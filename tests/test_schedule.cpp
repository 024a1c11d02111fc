/**
 * @file
 * Structural invariants of the scheduler's output (paper §5):
 * exactly one sending and one receiving thread block per connection,
 * at most one send/receive peer per thread block, disjoint channels
 * for parallelized instances, honored channel directives, valid
 * cross-thread-block dependencies, the cooperative-launch limit with
 * the IB merge fallback, and slot-bounded send schedules.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/schedule.h"
#include "test_util.h"

namespace mscclang {
namespace {

/** Checks the §5 structural constraints on any IR. */
void
checkStructure(const IrProgram &ir)
{
    using Conn = std::tuple<int, int, int>;
    std::map<Conn, int> senders, receivers;
    for (const IrGpu &gpu : ir.gpus) {
        std::set<int> tb_ids;
        for (const IrThreadBlock &tb : ir.gpus.blocks(gpu)) {
            EXPECT_TRUE(tb_ids.insert(tb.id).second)
                << "duplicate tb id on rank " << gpu.rank;
            if (tb.sendPeer >= 0)
                senders[{ gpu.rank, tb.sendPeer, tb.channel }]++;
            if (tb.recvPeer >= 0)
                receivers[{ tb.recvPeer, gpu.rank, tb.channel }]++;
            for (const IrInstruction &instr : ir.gpus.steps(tb)) {
                if (irOpSends(instr.op)) {
                    EXPECT_GE(tb.sendPeer, 0);
                }
                if (irOpReceives(instr.op)) {
                    EXPECT_GE(tb.recvPeer, 0);
                }
                for (const IrDep &dep : ir.gpus.deps(instr)) {
                    // Dependencies reference existing TBs and
                    // earlier-completing steps on the same rank.
                    ASSERT_GE(dep.tb, 0);
                    ASSERT_LT(dep.tb, gpu.numBlocks);
                    EXPECT_GE(dep.step, 0);
                    EXPECT_LT(dep.step,
                              ir.gpus.block(gpu.rank, dep.tb).numSteps);
                    EXPECT_NE(dep.tb, tb.id)
                        << "self-TB dependency is redundant";
                }
            }
        }
    }
    // Exactly one sending and one receiving thread block per used
    // connection (paper §5's design restriction).
    for (const auto &[conn, count] : senders)
        EXPECT_EQ(count, 1);
    for (const auto &[conn, count] : receivers)
        EXPECT_EQ(count, 1);
    // Every connection someone sends on is received on.
    for (const auto &[conn, count] : senders)
        EXPECT_TRUE(receivers.count(conn));
}

/** Send/recv instruction counts must match per connection. */
void
checkMessageBalance(const IrProgram &ir)
{
    using Conn = std::tuple<int, int, int>;
    std::map<Conn, int> sent, received;
    for (const IrGpu &gpu : ir.gpus) {
        for (const IrThreadBlock &tb : ir.gpus.blocks(gpu)) {
            for (const IrInstruction &instr : ir.gpus.steps(tb)) {
                if (irOpSends(instr.op))
                    sent[{ gpu.rank, tb.sendPeer, tb.channel }]++;
                if (irOpReceives(instr.op))
                    received[{ tb.recvPeer, gpu.rank, tb.channel }]++;
            }
        }
    }
    EXPECT_EQ(sent, received);
}

TEST(Schedule, RingStructure)
{
    AlgoConfig config;
    config.instances = 4;
    Compiled out = compileProgram(*makeRingAllReduce(8, 4, config));
    checkStructure(out.ir);
    checkMessageBalance(out.ir);
}

TEST(Schedule, AllPairsStructure)
{
    Compiled out = compileProgram(*makeAllPairsAllReduce(8, {}));
    checkStructure(out.ir);
    checkMessageBalance(out.ir);
}

TEST(Schedule, HierarchicalStructure)
{
    AlgoConfig config;
    config.instances = 2;
    Compiled out =
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, config));
    checkStructure(out.ir);
    checkMessageBalance(out.ir);
}

TEST(Schedule, TwoStepStructure)
{
    Compiled out = compileProgram(*makeTwoStepAllToAll(3, 4, {}));
    checkStructure(out.ir);
    checkMessageBalance(out.ir);
}

TEST(Schedule, AllToNextStructure)
{
    AlgoConfig config;
    config.instances = 8;
    Compiled out = compileProgram(*makeAllToNext(2, 8, config));
    checkStructure(out.ir);
    checkMessageBalance(out.ir);
}

TEST(Schedule, ChannelDirectivesAreHonored)
{
    // Hierarchical AllReduce puts intra phases on channels 0/2 and
    // inter on 1; with instances=1 the channels appear verbatim.
    Compiled out =
        compileProgram(*makeHierarchicalAllReduce(2, 3, 1, {}));
    std::set<int> channels;
    for (const IrThreadBlock &tb : out.ir.gpus.blocks())
        channels.insert(tb.channel);
    EXPECT_TRUE(channels.count(0));
    EXPECT_TRUE(channels.count(1));
    EXPECT_TRUE(channels.count(2));
}

TEST(Schedule, ParallelInstancesGetDisjointChannels)
{
    ProgramOptions options;
    options.instances = 4;
    auto coll = std::make_shared<AllReduceCollective>(2, 1);
    Program prog(coll, options);
    prog.chunk(0, BufferKind::Input, 0).copy(1, BufferKind::Scratch, 0);
    CompileOptions copts;
    copts.verify = false; // fragment, not a whole collective
    Compiled out = compileProgram(prog, copts);
    std::set<int> send_channels;
    for (const IrThreadBlock &tb : out.ir.gpus.blocks(out.ir.gpus[0])) {
        if (tb.sendPeer == 1)
            send_channels.insert(tb.channel);
    }
    EXPECT_EQ(send_channels.size(), 4u);
}

TEST(Schedule, ConflictingDirectivesOnFusedChainRejected)
{
    // A relay whose receive and its own local reuse force one chain
    // onto two different channels must be a compile error... the DSL
    // blocks fusion across differing directives instead, so build the
    // conflict directly: two ops with different directives that reuse
    // one chain is impossible by construction — verify the fusion
    // barrier held (compiles fine, unfused).
    auto coll = std::make_shared<AllReduceCollective>(3, 1);
    Program prog(coll);
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0)
                     .copy(1, BufferKind::Scratch, 0, OpOptions{ 2 });
    c.copy(2, BufferKind::Scratch, 0, OpOptions{ 3 });
    CompileOptions copts;
    copts.verify = false; // fragment, not a whole collective
    Compiled out = compileProgram(prog, copts);
    checkStructure(out.ir);
    std::set<int> channels;
    for (const IrThreadBlock &tb : out.ir.gpus.blocks()) {
        if (tb.numSteps > 0)
            channels.insert(tb.channel);
    }
    EXPECT_TRUE(channels.count(2));
    EXPECT_TRUE(channels.count(3));
}

TEST(Schedule, ThreadBlockLimitEnforced)
{
    AlgoConfig config;
    config.instances = 8;
    auto prog = makeRingAllReduce(8, 4, config); // 32 channels
    CompileOptions copts;
    copts.maxThreadBlocks = 16;
    EXPECT_THROW(compileProgram(*prog, copts), CompileError);
}

TEST(Schedule, IbMergeFallbackUnderSmPressure)
{
    // Naive AllToAll on 2x8: 15 peers. Without a limit the IB send
    // and recv connections get separate thread blocks; with a tight
    // limit they merge.
    Topology topo = makeGeneric(2, 8);
    auto prog = makeNaiveAllToAll(16, {});
    CompileOptions loose;
    loose.topology = &topo;
    Compiled unmerged = compileProgram(*prog, loose);

    auto prog2 = makeNaiveAllToAll(16, {});
    CompileOptions tight;
    tight.topology = &topo;
    tight.maxThreadBlocks = 16;
    Compiled merged = compileProgram(*prog2, tight);

    EXPECT_GT(unmerged.ir.maxThreadBlocks(),
              merged.ir.maxThreadBlocks());
    EXPECT_LE(merged.ir.maxThreadBlocks(), 16);
    checkStructure(merged.ir);
    checkMessageBalance(merged.ir);
}

TEST(Schedule, SlotGateBoundsOutstandingSends)
{
    // compileProgram schedules with as many FIFO slots as it verifies
    // against, so the emitted order is a witness execution that never
    // has more than verifySlots unreceived sends on a connection; the
    // verifier's deadlock check at that slot count is the real test.
    // The two-step alltoalls deadlocked at 1 and 2 slots when the
    // scheduler always assumed 8.
    struct Case
    {
        const char *name;
        std::unique_ptr<Program> program;
        Topology topology;
    };
    std::vector<Case> cases;
    cases.push_back({ "twostep_2x4", makeTwoStepAllToAll(2, 4, {}),
                      makeGeneric(2, 4) });
    cases.push_back({ "twostep_4x8", makeTwoStepAllToAll(4, 8, {}),
                      makeGeneric(4, 8) });
    cases.push_back({ "naive_8", makeNaiveAllToAll(8, {}),
                      makeGeneric(2, 4) });
    cases.push_back({ "naive_16", makeNaiveAllToAll(16, {}),
                      makeGeneric(2, 8) });
    for (const Case &c : cases) {
        for (int slots : { 1, 2, 4, 8 }) {
            SCOPED_TRACE(std::string(c.name) + " slots=" +
                         std::to_string(slots));
            CompileOptions copts;
            copts.topology = &c.topology;
            copts.verifySlots = slots;
            Compiled out;
            ASSERT_NO_THROW(out = compileProgram(*c.program, copts));
            checkStructure(out.ir);
            checkMessageBalance(out.ir);
        }
    }
}

/**
 * Compiles @p program at one FIFO slot, expecting the scheduler to
 * reject it by naming @p needed as the smallest slot count, and then
 * at that count, expecting it to compile and verify.
 */
void
expectMinimumSlots(const Program &program, int needed)
{
    CompileOptions one;
    one.verifySlots = 1;
    try {
        compileProgram(program, one);
        ADD_FAILURE() << "compiled at 1 slot";
    } catch (const CompileError &error) {
        std::string what = error.what();
        EXPECT_NE(what.find("at 1 FIFO slot;"), std::string::npos)
            << what;
        EXPECT_NE(what.find("needs at least " + std::to_string(needed) +
                            " slots"),
                  std::string::npos)
            << what;
    }
    CompileOptions enough;
    enough.verifySlots = needed;
    Compiled out;
    ASSERT_NO_THROW(out = compileProgram(program, enough));
    checkStructure(out.ir);
    checkMessageBalance(out.ir);
}

TEST(Schedule, OneSlotNamesMinimumSlotsHierarchical2x4i2)
{
    expectMinimumSlots(*makeHierarchicalAllReduce(2, 4, 2, {}), 2);
}

TEST(Schedule, OneSlotNamesMinimumSlotsRabenseifner8)
{
    expectMinimumSlots(*makeRabenseifnerAllReduce(8, {}), 2);
}

/** The full 1-slot CompileError text for @p program ("" if none). */
std::string
oneSlotError(const Program &program)
{
    CompileOptions one;
    one.verifySlots = 1;
    try {
        compileProgram(program, one);
    } catch (const CompileError &error) {
        return error.what();
    }
    return "";
}

TEST(Schedule, OneSlotErrorTextHierarchical4x8i2)
{
    // sweepFailure re-runs the gated sweep at 2 slots to name the
    // minimum; the whole message, counts included, is pinned.
    AlgoConfig i2;
    i2.instances = 2;
    EXPECT_EQ(oneSlotError(*makeHierarchicalAllReduce(4, 8, 1, i2)),
              "scheduler: only 64 of 1472 instructions could be ordered "
              "at 1 FIFO slot; the program needs at least 2 slots");
}

TEST(Schedule, OneSlotErrorTextRing16i2)
{
    AlgoConfig i2;
    i2.instances = 2;
    EXPECT_EQ(oneSlotError(*makeRingAllReduce(16, 1, i2)),
              "scheduler: only 32 of 992 instructions could be ordered "
              "at 1 FIFO slot; the program needs at least 2 slots");
}

TEST(Schedule, GatedSweepGoldens)
{
    // At these slot counts the FIFO and slot gates defer thousands of
    // nodes behind the priority order, so the sweep's pop order departs
    // from it; at the default 8 slots (the other goldens) these
    // programs pop the priority order unchanged. The last two are
    // 1-slot compiles on real machines. Hashes of the IR XML measured
    // at the Kahn-walk scheduler.
    struct Gold
    {
        const char *name;
        const char *machine;
        /** Whether the compile is given the machine's topology. */
        bool onMachine;
        int slots;
        std::uint64_t xmlHash;
        std::function<std::unique_ptr<Program>(const Topology &)> make;
    };
    auto twostep = [](const Topology &topo) {
        return makeTwoStepAllToAll(topo.numNodes(), topo.gpusPerNode(), {});
    };
    const Gold golds[] = {
        { "twostep_4x4", "generic:4:4", false, 1, 0x09ca924e47640bfeull,
          twostep },
        { "twostep_4x4", "generic:4:4", false, 2, 0x57f10aa164bcb38cull,
          twostep },
        { "twostep_4x8", "generic:4:8", false, 2, 0x6ba7c027efe626e4ull,
          twostep },
        { "twostep_8x8", "generic:8:8", false, 1, 0xb82b7f74de8253ddull,
          twostep },
        { "twostep_8x8", "generic:8:8", false, 2, 0x5a61844ab2e005a3ull,
          twostep },
        { "twostep_8x8", "generic:8:8", false, 4, 0xd8f29fbe3e807b67ull,
          twostep },
        { "sccl122_dgx1", "dgx1", true, 1, 0x851d6a39a5403a47ull,
          [](const Topology &topo) {
              return makeSccl122AllGather(topo, {});
          } },
        { "alltonext_2x8", "ndv4:2", true, 1, 0x0502df072496496cull,
          [](const Topology &topo) {
              return makeAllToNext(topo.numNodes(), topo.gpusPerNode(), {});
          } },
    };
    for (const Gold &gold : golds) {
        SCOPED_TRACE(std::string(gold.name) +
                     " slots=" + std::to_string(gold.slots));
        Topology topo = parseTopology(gold.machine);
        CompileOptions copts;
        copts.verifySlots = gold.slots;
        if (gold.onMachine)
            copts.topology = &topo;
        Compiled out = compileProgram(*gold.make(topo), copts);
        EXPECT_EQ(testing::fnv1a(out.ir.toXml()), gold.xmlHash);
    }
}

TEST(Schedule, ReceivesFollowTheirSendsOrder)
{
    // Rank 0 sends In0 and then In1 to rank 1 (both at depth 0). Rank 1
    // writes Scratch2 through three local copies before In0 lands there,
    // so the first receive sits at depth 3 and the second at depth 1:
    // the priority order has the receives the other way round from
    // their sends. The receive gate must hold the second receive back
    // until the first has run, or it pairs with the wrong send. Verify
    // is off (the allreduce postcondition does not hold), so only the
    // scheduler orders the receives. Hash of the IR XML measured at the
    // Kahn-walk scheduler.
    auto coll = std::make_shared<AllReduceCollective>(2, 2);
    Program prog(coll);
    prog.chunk(1, BufferKind::Input, 0).copy(1, BufferKind::Scratch, 0);
    prog.chunk(1, BufferKind::Scratch, 0).copy(1, BufferKind::Scratch, 1);
    prog.chunk(1, BufferKind::Scratch, 1).copy(1, BufferKind::Scratch, 2);
    prog.chunk(0, BufferKind::Input, 0).copy(1, BufferKind::Scratch, 2);
    prog.chunk(0, BufferKind::Input, 1).copy(1, BufferKind::Scratch, 3);
    CompileOptions copts;
    copts.verify = false;
    Compiled out = compileProgram(prog, copts);
    const IrGpu &receiver = out.ir.gpus[1];
    ASSERT_EQ(receiver.numBlocks, 1);
    std::span<const IrInstruction> steps =
        out.ir.gpus.steps(out.ir.gpus.block(1, 0));
    ASSERT_EQ(steps.size(), 5u);
    EXPECT_EQ(steps[3].op, IrOp::Recv);
    EXPECT_EQ(steps[3].dstOff, 2);
    EXPECT_EQ(steps[4].op, IrOp::Recv);
    EXPECT_EQ(steps[4].dstOff, 3);
    EXPECT_EQ(testing::fnv1a(out.ir.toXml()), 0x7733daae428bd2a0ull);
}

TEST(Schedule, EdgeAgainstIdOrderRejected)
{
    // Two independent copies 0 -> 1: sends 0 and 2 on rank 0, receives
    // 1 and 3 on rank 1. A hand-added edge 2 -> 0 keeps the graph
    // acyclic but runs against id order, which lowering and fusion
    // never produce and the scheduler's id-order sweeps rely on.
    auto coll = std::make_shared<AllReduceCollective>(2, 2);
    Program prog(coll);
    prog.chunk(0, BufferKind::Input, 0).copy(1, BufferKind::Scratch, 0);
    prog.chunk(0, BufferKind::Input, 1).copy(1, BufferKind::Scratch, 1);
    InstrGraph graph = lowerProgram(prog);
    fuseInstructions(graph);
    ASSERT_EQ(graph.numLive(), 4);
    ASSERT_EQ(graph.node(0).rank, 0);
    ASSERT_EQ(graph.node(2).rank, 0);
    ASSERT_NO_THROW(scheduleProgram(prog, graph));
    graph.addEdge(2, 0, DepKind::True);
    EXPECT_THROW(scheduleProgram(prog, graph), CompileError);
}

TEST(Schedule, EmptyProgramYieldsEmptyIr)
{
    auto coll = std::make_shared<AllReduceCollective>(2, 1);
    Program prog(coll);
    // An in-place "identity" program: nothing to do. The compiler
    // should produce empty GPU programs rather than fail (the
    // postcondition of allreduce is NOT satisfied though).
    InstrGraph graph = lowerProgram(prog);
    EXPECT_EQ(graph.numLive(), 0);
}

} // namespace
} // namespace mscclang
