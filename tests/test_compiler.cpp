/**
 * @file
 * Unit tests for the compiler passes: Chunk DAG construction (paper
 * §4.1), lowering patterns (§4.2), the instruction fusion rewrites
 * (§4.3) with their side conditions, and the shadowing-precise
 * dependence analysis that enables cross-phase fusion.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/chunk_dag.h"
#include "compiler/compiler.h"
#include "compiler/instr_graph.h"

namespace mscclang {
namespace {

std::shared_ptr<AllReduceCollective>
allreduce(int ranks, int chunks)
{
    return std::make_shared<AllReduceCollective>(ranks, chunks);
}

int
countOps(const InstrGraph &graph, IrOp op)
{
    int count = 0;
    for (const InstrNode &node : graph.nodes()) {
        if (node.live && node.op == op)
            count++;
    }
    return count;
}

// ---------------------------------------------------------------
// Chunk DAG.

TEST(ChunkDag, TrueDependenceThroughChunkMovement)
{
    Program prog(allreduce(3, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0)
                     .copy(1, BufferKind::Scratch, 0);
    c.copy(2, BufferKind::Scratch, 0);

    ChunkDag dag(prog);
    ASSERT_EQ(dag.numOps(), 2);
    ASSERT_EQ(dag.edges().size(), 1u);
    EXPECT_EQ(dag.edges()[0].kind, DepKind::True);
    EXPECT_EQ(dag.edges()[0].from, 0);
    EXPECT_EQ(dag.edges()[0].to, 1);
    EXPECT_EQ(dag.criticalPathLength(), 2);
}

TEST(ChunkDag, FalseDependenceThroughIndexReuse)
{
    Program prog(allreduce(3, 1));
    prog.chunk(0, BufferKind::Input, 0).copy(2, BufferKind::Scratch, 0);
    // Overwriting scratch 0 on rank 2 creates an output dependence.
    prog.chunk(1, BufferKind::Input, 0).copy(2, BufferKind::Scratch, 0);

    ChunkDag dag(prog);
    ASSERT_EQ(dag.edges().size(), 1u);
    EXPECT_EQ(dag.edges()[0].kind, DepKind::Output);
}

TEST(ChunkDag, ReadDependsOnlyOnLastWholeWriter)
{
    // Two whole writes of rank 2's scratch 0, then a read of it: the
    // read's one True edge comes from the second write. The first
    // write reaches the read through the second (Output edge).
    Program prog(allreduce(3, 1));
    prog.chunk(0, BufferKind::Input, 0).copy(2, BufferKind::Scratch, 0);
    prog.chunk(1, BufferKind::Input, 0).copy(2, BufferKind::Scratch, 0);
    prog.chunk(2, BufferKind::Scratch, 0).copy(0, BufferKind::Scratch, 0);

    ChunkDag dag(prog);
    std::vector<ChunkDep> into_read;
    for (const ChunkDep &edge : dag.edges()) {
        if (edge.to == 2)
            into_read.push_back(edge);
    }
    ASSERT_EQ(into_read.size(), 1u);
    EXPECT_EQ(into_read[0], (ChunkDep{ 1, 2, DepKind::True }));
    EXPECT_EQ(dag.criticalPathLength(), 3);
}

TEST(ChunkDag, IndependentOpsHaveNoEdges)
{
    Program prog(allreduce(4, 2));
    prog.chunk(0, BufferKind::Input, 0).copy(1, BufferKind::Scratch, 0);
    prog.chunk(2, BufferKind::Input, 1).copy(3, BufferKind::Scratch, 1);
    ChunkDag dag(prog);
    EXPECT_TRUE(dag.edges().empty());
    EXPECT_EQ(dag.criticalPathLength(), 1);
}

TEST(ChunkDag, DotRenderingMentionsEveryOp)
{
    Program prog(allreduce(2, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0);
    prog.chunk(1, BufferKind::Input, 0).reduce(c);
    ChunkDag dag(prog);
    std::string dot = dag.toDot(prog);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("n0"), std::string::npos);
}

// ---------------------------------------------------------------
// Lowering (instruction generation).

TEST(Lowering, RemoteCopyBecomesSendRecv)
{
    Program prog(allreduce(2, 1));
    prog.chunk(0, BufferKind::Input, 0).copy(1, BufferKind::Scratch, 0);
    InstrGraph graph = lowerProgram(prog);
    EXPECT_EQ(graph.numLive(), 2);
    EXPECT_EQ(countOps(graph, IrOp::Send), 1);
    EXPECT_EQ(countOps(graph, IrOp::Recv), 1);
    // Matched by a communication edge.
    for (const InstrNode &node : graph.nodes()) {
        if (node.op == IrOp::Send) {
            EXPECT_EQ(node.sendPeer, 1);
            EXPECT_EQ(graph.node(node.commSucc).op, IrOp::Recv);
        }
    }
}

TEST(Lowering, RemoteReduceBecomesSendRrc)
{
    Program prog(allreduce(2, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0);
    prog.chunk(1, BufferKind::Input, 0).reduce(c);
    InstrGraph graph = lowerProgram(prog);
    EXPECT_EQ(countOps(graph, IrOp::Send), 1);
    EXPECT_EQ(countOps(graph, IrOp::RecvReduceCopy), 1);
}

TEST(Lowering, LocalOpsStaySingleInstructions)
{
    Program prog(allreduce(2, 2));
    prog.chunk(0, BufferKind::Input, 0).copy(0, BufferKind::Scratch, 0);
    ChunkRef c = prog.chunk(0, BufferKind::Scratch, 0);
    prog.chunk(0, BufferKind::Input, 1).reduce(c);
    InstrGraph graph = lowerProgram(prog);
    EXPECT_EQ(countOps(graph, IrOp::Copy), 1);
    EXPECT_EQ(countOps(graph, IrOp::Reduce), 1);
    EXPECT_EQ(countOps(graph, IrOp::Send), 0);
}

TEST(Lowering, AliasedNoOpCopyIsDropped)
{
    // In-place: copying in[0] to out[0] on the same rank is the same
    // location and must vanish.
    Program prog(allreduce(2, 1));
    prog.chunk(0, BufferKind::Input, 0).copy(0, BufferKind::Output, 0);
    InstrGraph graph = lowerProgram(prog);
    EXPECT_EQ(graph.numLive(), 0);
}

TEST(Lowering, InstancesExpandOps)
{
    ProgramOptions options;
    options.instances = 4;
    Program prog(allreduce(2, 1), options);
    prog.chunk(0, BufferKind::Input, 0).copy(1, BufferKind::Scratch, 0);
    InstrGraph graph = lowerProgram(prog);
    EXPECT_EQ(countOps(graph, IrOp::Send), 4);
    // Sibling instances are independent: no processing edges.
    for (const InstrNode &node : graph.nodes())
        EXPECT_TRUE(graph.livePreds(node.id).empty());
}

TEST(Lowering, ParallelizeScopeMultipliesInstances)
{
    ProgramOptions options;
    options.instances = 2;
    Program prog(allreduce(2, 1), options);
    {
        ParallelizeScope scope = prog.parallelize(3);
        prog.chunk(0, BufferKind::Input, 0)
            .copy(1, BufferKind::Scratch, 0);
    }
    InstrGraph graph = lowerProgram(prog);
    EXPECT_EQ(countOps(graph, IrOp::Send), 6);
    for (const InstrNode &node : graph.nodes())
        EXPECT_EQ(node.splitCount, 6);
}

TEST(Lowering, ShadowedWriterDoesNotFeedReader)
{
    // w1 writes s[0]; w2 overwrites it; the read depends on w2 only
    // (w1 is shadowed) — the precision that enables fusing forwards
    // after phase transitions.
    Program prog(allreduce(3, 1));
    prog.chunk(0, BufferKind::Input, 0).copy(2, BufferKind::Scratch, 0);
    prog.chunk(1, BufferKind::Input, 0).copy(2, BufferKind::Scratch, 0);
    prog.chunk(2, BufferKind::Scratch, 0)
        .copy(0, BufferKind::Scratch, 1);
    InstrGraph graph = lowerProgram(prog);
    // Find the send of the third op (reads s[0] on rank 2).
    const InstrNode *reader = nullptr;
    for (const InstrNode &node : graph.nodes()) {
        if (node.op == IrOp::Send && node.rank == 2)
            reader = &node;
    }
    ASSERT_NE(reader, nullptr);
    std::vector<int> preds = graph.livePreds(reader->id);
    ASSERT_EQ(preds.size(), 1u);
    // Its only predecessor is the SECOND recv (the visible writer).
    EXPECT_EQ(graph.node(preds[0]).op, IrOp::Recv);
    EXPECT_EQ(graph.node(preds[0]).recvPeer, 1);
}

// ---------------------------------------------------------------
// Fusion.

TEST(Fusion, RecvSendBecomesRcs)
{
    // 0 -> 1 -> 2 relay: the middle recv+send fuse.
    Program prog(allreduce(3, 1));
    prog.chunk(0, BufferKind::Input, 0)
        .copy(1, BufferKind::Scratch, 0)
        .copy(2, BufferKind::Scratch, 0);
    InstrGraph graph = lowerProgram(prog);
    FusionStats stats = fuseInstructions(graph);
    EXPECT_EQ(stats.rcs, 1);
    EXPECT_EQ(countOps(graph, IrOp::RecvCopySend), 1);
    EXPECT_EQ(graph.numLive(), 3); // send, rcs, recv
}

TEST(Fusion, RrcSendBecomesRrcs)
{
    // reduce at rank 1, result forwarded and also kept locally as
    // the final output -> rrcs (the store is live).
    Program prog(allreduce(3, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0);
    c = prog.chunk(1, BufferKind::Input, 0).reduce(c);
    c.copy(2, BufferKind::Scratch, 0);
    InstrGraph graph = lowerProgram(prog);
    FusionStats stats = fuseInstructions(graph);
    EXPECT_EQ(stats.rrcs, 1);
    EXPECT_EQ(stats.rrs, 0); // in[0] at rank 1 is never overwritten
    EXPECT_EQ(countOps(graph, IrOp::RecvReduceCopySend), 1);
}

TEST(Fusion, DeadStoreBecomesRrs)
{
    // Same as above, but the reduced location is later overwritten
    // without being read -> the store is dead -> rrs.
    Program prog(allreduce(3, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0);
    c = prog.chunk(1, BufferKind::Input, 0).reduce(c);
    c.copy(2, BufferKind::Scratch, 0);
    prog.chunk(2, BufferKind::Input, 0).copy(1, BufferKind::Input, 0);
    InstrGraph graph = lowerProgram(prog);
    FusionStats stats = fuseInstructions(graph);
    EXPECT_EQ(stats.rrcs, 1);
    EXPECT_EQ(stats.rrs, 1);
    EXPECT_EQ(countOps(graph, IrOp::RecvReduceSend), 1);
    EXPECT_EQ(countOps(graph, IrOp::RecvReduceCopySend), 0);
}

TEST(Fusion, LocalReaderBlocksRcs)
{
    // The received chunk is also reduced locally afterwards, so the
    // forwarding send is not the receive's only consumer — but fusion
    // is still legal because the send only needs the recv. What must
    // NOT happen is fusing when the send has extra predecessors.
    Program prog(allreduce(3, 2));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0)
                     .copy(1, BufferKind::Scratch, 0);
    // a second write the send ALSO depends on would block fusion;
    // reduce the received chunk into another location first:
    ChunkRef combined =
        prog.chunk(1, BufferKind::Input, 0).reduce(c);
    combined.copy(2, BufferKind::Scratch, 0);
    InstrGraph graph = lowerProgram(prog);
    FusionStats stats = fuseInstructions(graph);
    // recv(s0@1) -> LOCAL reduce -> send: the send's producer is the
    // local reduce, not a receive, so neither rcs nor rrcs applies.
    EXPECT_EQ(stats.rcs, 0);
    EXPECT_EQ(stats.rrcs + stats.rrs, 0);
    EXPECT_EQ(countOps(graph, IrOp::Reduce), 1);
}

TEST(Fusion, ChannelDirectiveMismatchBlocksFusion)
{
    Program prog(allreduce(3, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0)
                     .copy(1, BufferKind::Scratch, 0, OpOptions{ 0 });
    c.copy(2, BufferKind::Scratch, 0, OpOptions{ 1 });
    InstrGraph graph = lowerProgram(prog);
    FusionStats stats = fuseInstructions(graph);
    EXPECT_EQ(stats.rcs, 0);
    EXPECT_EQ(countOps(graph, IrOp::Recv), 2);
}

TEST(Fusion, LongestPathSendWins)
{
    // One receive feeds two forwards; the one continuing the longer
    // chain is fused (paper §4.3).
    Program prog(allreduce(5, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0)
                     .copy(1, BufferKind::Scratch, 0);
    c.copy(2, BufferKind::Scratch, 0); // short branch: ends here
    // long branch: 1 -> 3 -> 4
    c.copy(3, BufferKind::Scratch, 0).copy(4, BufferKind::Scratch, 0);
    InstrGraph graph = lowerProgram(prog);
    FusionStats stats = fuseInstructions(graph);
    // rank 1's recv fused with the send on the long branch, and rank
    // 3's relay fused as well.
    EXPECT_EQ(stats.rcs, 2);
    const InstrNode *fused_at_1 = nullptr;
    for (const InstrNode &node : graph.nodes()) {
        if (node.live && node.rank == 1 &&
            node.op == IrOp::RecvCopySend) {
            fused_at_1 = &node;
        }
    }
    ASSERT_NE(fused_at_1, nullptr);
    EXPECT_EQ(fused_at_1->sendPeer, 3);
}

TEST(Fusion, DepthsAreConsistentAfterFusion)
{
    // A reduce chain 0 -> 1 -> 2 -> 3 fuses into rrcs links. Fusion
    // folds a send into the receive before it, so every live edge
    // still runs forward in id order and rdepth stays a longest path:
    // it drops by at least one along every live edge.
    Program prog(allreduce(4, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0);
    for (int r = 1; r < 4; r++)
        c = prog.chunk(r, BufferKind::Input, 0).reduce(c);
    EXPECT_EQ(prog.ops().size(), 3u);
    InstrGraph graph = lowerProgram(prog);
    FusionStats stats = fuseInstructions(graph);
    EXPECT_EQ(stats.rrcs, 2);
    std::vector<int> rdepth = computeRdepths(graph);
    int longest = 0;
    for (const InstrNode &node : graph.nodes()) {
        if (!node.live)
            continue;
        longest = std::max(longest, rdepth[node.id]);
        graph.forEachLiveSucc(node.id, [&](int succ) {
            EXPECT_GT(rdepth[node.id], rdepth[succ]);
        });
        if (node.commSucc >= 0) {
            EXPECT_GT(rdepth[node.id], rdepth[node.commSucc]);
        }
    }
    // send, two rrcs and the last rrc: one hop per rank.
    EXPECT_EQ(longest, 3);
}

// ---------------------------------------------------------------
// Compile stats plumbing.

TEST(CompileStats, CountsAreCoherent)
{
    ProgramOptions options;
    Program prog(allreduce(4, 4), options);
    for (int r = 0; r < 4; r++) {
        ChunkRef c = prog.chunk((r + 1) % 4, BufferKind::Input, r);
        for (int step = 1; step < 4; step++) {
            c = prog.chunk((r + 1 + step) % 4, BufferKind::Input, r)
                    .reduce(c);
        }
        for (int step = 1; step < 4; step++)
            c = c.copy((r + step) % 4, BufferKind::Input, r);
    }
    Compiled out = compileProgram(prog);
    EXPECT_EQ(out.stats.traceOps, 24);
    EXPECT_GT(out.stats.instrsBeforeFusion,
              out.stats.instrsAfterFusion);
    EXPECT_EQ(out.stats.totalInstructions,
              out.stats.instrsAfterFusion);
    EXPECT_EQ(ChunkDag(prog).criticalPathLength(), 6);
}

TEST(CompileStats, PhaseTimesFitInsideTheCompile)
{
    AlgoConfig config;
    config.instances = 2;
    std::unique_ptr<Program> prog = makeRingAllReduce(16, 2, config);
    auto start = std::chrono::steady_clock::now();
    Compiled out = compileProgram(*prog);
    std::int64_t wall_ns = std::chrono::duration_cast<
        std::chrono::nanoseconds>(std::chrono::steady_clock::now() - start)
        .count();
    const CompileStats &stats = out.stats;
    for (std::int64_t phase : { stats.lowerNs, stats.fuseNs,
                                stats.scheduleNs, stats.verifyNs }) {
        EXPECT_GE(phase, 0);
    }
    EXPECT_GT(stats.scheduleNs, 0);
    EXPECT_LE(stats.lowerNs + stats.fuseNs + stats.scheduleNs +
                  stats.verifyNs,
              wall_ns);

    // Phases that do not run report zero.
    CompileOptions bare;
    bare.fuse = false;
    bare.verify = false;
    Compiled unfused = compileProgram(*prog, bare);
    EXPECT_EQ(unfused.stats.fuseNs, 0);
    EXPECT_EQ(unfused.stats.verifyNs, 0);
}

TEST(CompileStats, MinorFaultsFitInsideTheProcess)
{
    // Each phase counts the calling thread's faults only, so their sum
    // cannot exceed the whole process's over the same compile.
    std::unique_ptr<Program> prog = makeRingAllReduce(64, 1, {});
    rusage before;
    ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
    Compiled out = compileProgram(*prog);
    rusage after;
    ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
    const CompileStats &stats = out.stats;
    std::int64_t sum = 0;
    for (std::int64_t faults :
         { stats.lowerMinorFaults, stats.fuseMinorFaults,
           stats.scheduleMinorFaults, stats.verifyMinorFaults }) {
        EXPECT_GE(faults, 0);
        sum += faults;
    }
    EXPECT_LE(sum, after.ru_minflt - before.ru_minflt);

    // Phases that do not run report zero.
    CompileOptions bare;
    bare.fuse = false;
    bare.verify = false;
    Compiled unfused = compileProgram(*prog, bare);
    EXPECT_EQ(unfused.stats.fuseMinorFaults, 0);
    EXPECT_EQ(unfused.stats.verifyMinorFaults, 0);
}

TEST(CompileStats, TopologyConnectivityEnforced)
{
    Topology dgx1 = makeDgx1();
    // GPU 0 and 7 are not NVLink-adjacent on a DGX-1.
    Program prog(allreduce(8, 1));
    prog.chunk(0, BufferKind::Input, 0).copy(7, BufferKind::Scratch, 0);
    CompileOptions copts;
    copts.topology = &dgx1;
    EXPECT_THROW(compileProgram(prog, copts), CompileError);
}

TEST(CompileStats, RankCountMismatchEnforced)
{
    Topology topo = makeGeneric(1, 4);
    Program prog(allreduce(8, 1));
    prog.chunk(0, BufferKind::Input, 0).copy(1, BufferKind::Scratch, 0);
    CompileOptions copts;
    copts.topology = &topo;
    EXPECT_THROW(compileProgram(prog, copts), CompileError);
}

} // namespace
} // namespace mscclang
