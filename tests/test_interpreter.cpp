/**
 * @file
 * Tests for the runtime interpreter (paper §6) and the Communicator:
 * determinism, tiling/pipelining behavior, protocol cost ordering,
 * kernel launch accounting, composed multi-kernel persistence,
 * algorithm selection windows, and runtime failure detection.
 */

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "runtime/communicator.h"
#include "test_util.h"

namespace mscclang {
namespace {

IrProgram
compiledRing(int ranks, Protocol proto, int instances = 1)
{
    AlgoConfig config;
    config.protocol = proto;
    config.instances = instances;
    return compileProgram(*makeRingAllReduce(ranks, 1, config)).ir;
}

TEST(Interpreter, TimingIsDeterministic)
{
    Topology topo = makeNdv4(1);
    IrProgram ir = compiledRing(8, Protocol::LL128, 4);
    Communicator comm(topo);
    RunOptions run;
    run.bytes = 1 << 20;
    double first = comm.runProgram(ir, run).timeUs;
    double second = comm.runProgram(ir, run).timeUs;
    EXPECT_DOUBLE_EQ(first, second);
    EXPECT_GT(first, 0.0);
}

TEST(Interpreter, TimeGrowsWithSize)
{
    Topology topo = makeNdv4(1);
    IrProgram ir = compiledRing(8, Protocol::Simple, 4);
    Communicator comm(topo);
    double last = 0.0;
    for (std::uint64_t bytes : { 1ULL << 16, 1ULL << 20, 1ULL << 24 }) {
        RunOptions run;
        run.bytes = bytes;
        double us = comm.runProgram(ir, run).timeUs;
        EXPECT_GT(us, last);
        last = us;
    }
}

TEST(Interpreter, LaunchOverheadIsIncluded)
{
    Topology topo = makeNdv4(1);
    IrProgram ir = compiledRing(8, Protocol::LL);
    Communicator comm(topo);
    RunOptions run;
    run.bytes = 1 << 10;
    EXPECT_GE(comm.runProgram(ir, run).timeUs,
              topo.params().kernelLaunchUs);
}

TEST(Interpreter, LLHasLowerLatencySimpleHigherBandwidth)
{
    Topology topo = makeNdv4(1);
    IrProgram ll = compiledRing(8, Protocol::LL, 4);
    IrProgram simple = compiledRing(8, Protocol::Simple, 4);
    Communicator comm(topo);
    RunOptions small;
    small.bytes = 1 << 10;
    RunOptions big;
    big.bytes = 64ULL << 20;
    EXPECT_LT(comm.runProgram(ll, small).timeUs,
              comm.runProgram(simple, small).timeUs);
    EXPECT_GT(comm.runProgram(ll, big).timeUs,
              comm.runProgram(simple, big).timeUs);
}

TEST(Interpreter, DeeperTilingHelpsPhasedAlgorithms)
{
    Topology topo = makeNdv4(2);
    AlgoConfig config;
    config.protocol = Protocol::Simple;
    config.instances = 2;
    IrProgram ir = compileProgram(
        *makeHierarchicalAllReduce(2, 8, 2, config)).ir;
    Communicator comm(topo);
    RunOptions serial;
    serial.bytes = 256ULL << 20;
    serial.maxTilesPerChunk = 1;
    RunOptions piped = serial;
    piped.maxTilesPerChunk = 8;
    EXPECT_GT(comm.runProgram(ir, serial).timeUs,
              comm.runProgram(ir, piped).timeUs * 1.2);
}

TEST(Interpreter, MessageAndWireStatsPopulated)
{
    Topology topo = makeNdv4(1);
    IrProgram ir = compiledRing(8, Protocol::LL);
    Communicator comm(topo);
    RunOptions run;
    run.bytes = 1 << 20;
    run.maxTilesPerChunk = 1; // one message per instruction
    RunResult result = comm.runProgram(ir, run);
    // Ring over 8 ranks, 8 chunk blocks x 14 hops = 112 messages.
    EXPECT_EQ(result.stats.messages, 112u);
    // LL doubles the wire bytes.
    double moved = 2.0 * 7.0 / 8.0 * (1 << 20) * 8; // algorithm bytes
    EXPECT_NEAR(result.stats.wireBytes, 2.0 * moved, moved * 0.05);
}

TEST(Interpreter, EmptyProgramFinishesAtLaunch)
{
    Topology topo = makeGeneric(1, 2);
    IrBuilder body;
    for (int r = 0; r < 2; r++)
        body.addGpu(r, 1, 1, 0);
    IrProgram ir;
    ir.numRanks = 2;
    ir.gpus = body.build(2, false);
    ExecOptions options;
    ExecStats stats = runIr(topo, ir, options);
    EXPECT_EQ(stats.messages, 0u);
}

TEST(Interpreter, RuntimeDetectsWedgedIr)
{
    // A receive with no matching send anywhere: the event queue
    // drains without completing and the runtime reports the wedge.
    Topology topo = makeGeneric(1, 2);
    IrBuilder body;
    for (int r = 0; r < 2; r++)
        body.addGpu(r, 1, 1, 0);
    IrInstruction recv;
    recv.op = IrOp::Recv;
    recv.dstBuf = BufferKind::Output;
    body.addThreadBlock(0, 0, -1, /*recv_peer=*/1);
    body.addStep(recv);
    IrProgram ir;
    ir.numRanks = 2;
    ir.gpus = body.build(2, false);
    ExecOptions options;
    EXPECT_THROW(runIr(topo, ir, options), RuntimeError);
}

TEST(Interpreter, DataModeNeedsDivisibleChunks)
{
    Topology topo = makeGeneric(1, 4);
    IrProgram ir = compiledRing(4, Protocol::Simple);
    DataStore store;
    // 4 ranks, chunkFactor 4: 5 floats do not divide into 4 chunks.
    EXPECT_THROW(store.configure(ir, 5 * sizeof(float)),
                 RuntimeError);
    EXPECT_THROW(store.configure(ir, 6), RuntimeError); // not float
    store.configure(ir, 4 * 16 * sizeof(float));
    EXPECT_EQ(store.input(0).size(), 64u);
}

TEST(Interpreter, ComposedKernelsShareScratchState)
{
    // The CUDA two-step baseline only works if scratch written by
    // kernel 1 is visible to kernel 2 — covered functionally here.
    Topology topo = makeGeneric(2, 2);
    std::vector<IrProgram> kernels = cudaTwoStepAllToAll(topo, 1 << 20);
    std::vector<const IrProgram *> refs;
    for (const IrProgram &k : kernels)
        refs.push_back(&k);
    AllToAllCollective coll(4, 1);
    EXPECT_EQ(testing::runIrsAndCheck(topo, refs, coll, 4 * 512 * 4),
              "");
}

TEST(Interpreter, ComposedTimeExceedsFusedTime)
{
    Topology topo = makeNdv4(2);
    AlgoConfig config;
    config.protocol = Protocol::Simple;
    config.instances = 4;
    IrProgram fused = compileProgram(
        *makeHierarchicalAllReduce(2, 8, 2, config)).ir;
    std::vector<IrProgram> kernels =
        composedHierarchicalAllReduce(topo, 64ULL << 20);
    std::vector<const IrProgram *> refs;
    for (const IrProgram &k : kernels)
        refs.push_back(&k);
    Communicator comm(topo);
    RunOptions run;
    run.bytes = 64ULL << 20;
    EXPECT_LT(comm.runProgram(fused, run).timeUs,
              comm.runComposed(refs, run).timeUs);
}

// ------------------------------------------------------------------
// Communicator registry.

TEST(Communicator, SelectsBySizeWindow)
{
    Topology topo = makeNdv4(1);
    IrProgram small = compiledRing(8, Protocol::LL);
    small.name = "small_algo";
    IrProgram big = compiledRing(8, Protocol::Simple);
    big.name = "big_algo";
    Communicator comm(topo);
    comm.registerAlgorithm(small, 0, 1 << 20);
    comm.registerAlgorithm(big, (1 << 20) + 1, 1ULL << 40);
    RunOptions run;
    run.bytes = 1 << 10;
    EXPECT_EQ(comm.run("allreduce", run).algorithm, "small_algo");
    run.bytes = 1ULL << 30;
    EXPECT_EQ(comm.run("allreduce", run).algorithm, "big_algo");
}

TEST(Communicator, FallsBackOutsideWindows)
{
    Topology topo = makeNdv4(1);
    IrProgram algo = compiledRing(8, Protocol::LL);
    Communicator comm(topo);
    comm.registerAlgorithm(algo, 0, 1 << 10);
    comm.registerFallback("allreduce", [&](std::uint64_t bytes) {
        return ncclAllReduceIr(topo, bytes);
    });
    RunOptions run;
    run.bytes = 1 << 20;
    RunResult result = comm.run("allreduce", run);
    EXPECT_NE(result.algorithm.find("fallback"), std::string::npos);
}

TEST(Communicator, MissingAlgorithmIsAnError)
{
    Topology topo = makeNdv4(1);
    Communicator comm(topo);
    RunOptions run;
    EXPECT_THROW(comm.run("allreduce", run), RuntimeError);
}

TEST(Communicator, RejectsForeignPrograms)
{
    Topology topo = makeNdv4(1);
    IrProgram four_ranks = compiledRing(4, Protocol::LL);
    Communicator comm(topo);
    EXPECT_THROW(comm.registerAlgorithm(four_ranks, 0, 100),
                 RuntimeError);
    IrProgram algo = compiledRing(8, Protocol::LL);
    EXPECT_THROW(comm.registerAlgorithm(algo, 10, 5), RuntimeError);
    EXPECT_THROW(comm.runComposed({}, RunOptions{}), RuntimeError);
}

TEST(Communicator, WindowBoundariesAreInclusive)
{
    Topology topo = makeNdv4(1);
    IrProgram algo = compiledRing(8, Protocol::LL);
    algo.name = "windowed";
    Communicator comm(topo);
    comm.registerAlgorithm(algo, 1024, 2048);
    RunOptions run;
    run.bytes = 1024;
    EXPECT_EQ(comm.run("allreduce", run).algorithm, "windowed");
    run.bytes = 2048;
    EXPECT_EQ(comm.run("allreduce", run).algorithm, "windowed");
    run.bytes = 2049;
    EXPECT_THROW(comm.run("allreduce", run), RuntimeError);
}

} // namespace
} // namespace mscclang
