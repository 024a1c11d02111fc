/**
 * @file
 * Tests for the autotuner, the chrome tracing export, and the
 * topology spec parser — the tooling layer around the runtime.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "runtime/tuner.h"
#include "test_util.h"

namespace mscclang {
namespace {

TEST(Tuner, PicksLatencyAlgorithmSmallBandwidthLarge)
{
    Topology topo = makeNdv4(1);
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    ll.instances = 4;
    AlgoConfig simple;
    simple.protocol = Protocol::Simple;
    simple.instances = 8;
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeAllPairsAllReduce(8, ll)).ir); // latency
    candidates.push_back(
        compileProgram(*makeRingAllReduce(8, 1, simple)).ir); // bw

    TuneOptions options;
    options.fromBytes = 1 << 10;
    options.toBytes = 64 << 20;
    std::vector<TunedWindow> windows =
        tuneWindows(topo, candidates, options);

    ASSERT_GE(windows.size(), 2u);
    EXPECT_EQ(windows.front().candidate, 0); // All Pairs at small
    EXPECT_EQ(windows.back().candidate, 1);  // Ring at large
    // Windows tile the space contiguously from zero to +inf.
    EXPECT_EQ(windows.front().minBytes, 0u);
    for (size_t i = 1; i < windows.size(); i++)
        EXPECT_EQ(windows[i].minBytes, windows[i - 1].maxBytes + 1);
    EXPECT_EQ(windows.back().maxBytes,
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Tuner, RegisteredWindowsDriveSelection)
{
    Topology topo = makeNdv4(1);
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    ll.instances = 4;
    AlgoConfig simple;
    simple.protocol = Protocol::Simple;
    simple.instances = 8;
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeAllPairsAllReduce(8, ll)).ir);
    candidates.back().name = "allpairs";
    candidates.push_back(
        compileProgram(*makeRingAllReduce(8, 1, simple)).ir);
    candidates.back().name = "ring";

    std::vector<TunedWindow> windows = tuneWindows(topo, candidates);
    Communicator comm(topo);
    registerTuned(comm, candidates, windows);

    RunOptions small;
    small.bytes = 1 << 10;
    EXPECT_EQ(comm.run("allreduce", small).algorithm, "allpairs");
    RunOptions big;
    big.bytes = 64 << 20;
    EXPECT_EQ(comm.run("allreduce", big).algorithm, "ring");
}

TEST(Tuner, DegenerateRangeYieldsOneWindowSet)
{
    Topology topo = makeGeneric(1, 4);
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeRingAllReduce(4, 1, {})).ir);

    // fromBytes == toBytes: a single sweep point, a single window
    // covering the whole size axis.
    TuneOptions options;
    options.fromBytes = 1 << 20;
    options.toBytes = 1 << 20;
    std::vector<TunedWindow> windows =
        tuneWindows(topo, candidates, options);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_EQ(windows[0].minBytes, 0u);
    EXPECT_EQ(windows[0].maxBytes,
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(windows[0].candidate, 0);
    EXPECT_GT(windows[0].timeUs, 0.0);
}

TEST(Tuner, NonPowerOfTwoEndpointIsMeasured)
{
    Topology topo = makeGeneric(1, 4);
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeRingAllReduce(4, 1, {})).ir);

    // toBytes is not a doubling point of fromBytes; it must still be
    // a measured sweep point, so the windows tile contiguously with
    // no gap between the last doubling point and toBytes.
    TuneOptions options;
    options.fromBytes = 1 << 10;
    options.toBytes = (1 << 14) + 512;
    std::vector<TunedWindow> windows =
        tuneWindows(topo, candidates, options);
    ASSERT_FALSE(windows.empty());
    EXPECT_EQ(windows.front().minBytes, 0u);
    for (size_t i = 1; i < windows.size(); i++)
        EXPECT_EQ(windows[i].minBytes, windows[i - 1].maxBytes + 1);
    EXPECT_EQ(windows.back().maxBytes,
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Tuner, OddSinglePointRange)
{
    // A non-power-of-two degenerate range: one measured point, full
    // tiling, no doubling arithmetic involved. (The top-bit overflow
    // clamp of the shared sweep loop is unit-tested directly in
    // Strings.SizeSweepBoundaries — sizes that large cannot be
    // simulated without the timeline itself overflowing.)
    Topology topo = makeGeneric(1, 4);
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeRingAllReduce(4, 1, {})).ir);
    TuneOptions options;
    options.fromBytes = (1 << 20) + 12288;
    options.toBytes = options.fromBytes;
    std::vector<TunedWindow> windows =
        tuneWindows(topo, candidates, options);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_EQ(windows[0].minBytes, 0u);
    EXPECT_EQ(windows[0].maxBytes,
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Tuner, RejectsBadInput)
{
    Topology topo = makeNdv4(1);
    EXPECT_THROW(tuneWindows(topo, {}), RuntimeError);
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeRingAllReduce(8, 1, {})).ir);
    TuneOptions bad;
    bad.fromBytes = 100;
    bad.toBytes = 10;
    EXPECT_THROW(tuneWindows(topo, candidates, bad), RuntimeError);
}

TEST(Tuner, SweepSizesBoundaries)
{
    // from == to: the single point.
    EXPECT_EQ(tuneSweepSizes(1 << 20, 1 << 20),
              (std::vector<std::uint64_t>{ 1 << 20 }));
    // Doubling with a non-power-of-two endpoint: the endpoint is
    // always the measured last point.
    std::vector<std::uint64_t> sizes = tuneSweepSizes(1024, 5000);
    EXPECT_EQ(sizes,
              (std::vector<std::uint64_t>{ 1024, 2048, 4096, 5000 }));
    // Bad ranges throw instead of producing an empty sweep.
    EXPECT_THROW(tuneSweepSizes(0, 1024), RuntimeError);
    EXPECT_THROW(tuneSweepSizes(2048, 1024), RuntimeError);
}

TEST(Tuner, MergeWindowsTieGoesToLowestIndex)
{
    // Exact ties at every point: candidate 0 wins everything, and
    // duplicate winners collapse into the single covering window.
    std::vector<std::uint64_t> sizes{ 1024, 2048, 4096 };
    std::vector<std::vector<double>> times{ { 5, 6, 7 },
                                            { 5, 6, 7 },
                                            { 5, 6, 7 } };
    std::vector<TunedWindow> windows = mergeTunedWindows(sizes, times);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_EQ(windows[0].candidate, 0);
    EXPECT_EQ(windows[0].minBytes, 0u);
    EXPECT_EQ(windows[0].maxBytes,
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Tuner, MergeWindowsCoalescesAdjacentSameWinner)
{
    // Candidate 1 wins the two middle points, candidate 0 the edges:
    // exactly three windows, the middle pair coalesced.
    std::vector<std::uint64_t> sizes{ 1024, 2048, 4096, 8192 };
    std::vector<std::vector<double>> times{ { 1, 9, 9, 1 },
                                            { 2, 3, 3, 2 } };
    std::vector<TunedWindow> windows = mergeTunedWindows(sizes, times);
    ASSERT_EQ(windows.size(), 3u);
    EXPECT_EQ(windows[0].candidate, 0);
    EXPECT_EQ(windows[1].candidate, 1);
    EXPECT_EQ(windows[1].minBytes, 2048u);
    EXPECT_EQ(windows[1].maxBytes, 8191u);
    EXPECT_EQ(windows[2].candidate, 0);
    for (size_t i = 1; i < windows.size(); i++)
        EXPECT_EQ(windows[i].minBytes, windows[i - 1].maxBytes + 1);
}

TEST(Tuner, MergeWindowsSinglePointAndDegenerateInputs)
{
    // A single sweep point yields the single all-covering window.
    std::vector<TunedWindow> one =
        mergeTunedWindows({ 4096 }, { { 3.5 }, { 2.5 } });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].candidate, 1);
    EXPECT_EQ(one[0].minBytes, 0u);
    EXPECT_EQ(one[0].maxBytes,
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(one[0].timeUs, 2.5);

    // Empty sweep, empty candidate list, ragged matrix: all throw
    // rather than corrupting the window table.
    EXPECT_THROW(mergeTunedWindows({}, { { 1.0 } }), RuntimeError);
    EXPECT_THROW(mergeTunedWindows({ 1024 }, {}), RuntimeError);
    EXPECT_THROW(
        mergeTunedWindows({ 1024, 2048 }, { { 1.0, 2.0 }, { 1.0 } }),
        RuntimeError);
}

TEST(Tracing, EmitsValidTimeline)
{
    Topology topo = makeGeneric(1, 4);
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    std::string path = testing::tempPath("trace.json");
    ExecOptions options;
    options.bytesPerRank = 64 << 10;
    options.traceFile = path;
    runIr(topo, ir, options);

    std::ifstream file(path);
    ASSERT_TRUE(file.good());
    std::ostringstream text;
    text << file.rdbuf();
    std::string json = text.str();
    EXPECT_EQ(json.front(), '[');
    // Fused ring instructions appear as slices with durations.
    EXPECT_NE(json.find("\"name\":\"rrcs\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    // One slice per executed (tile, step): count events ~ instrs.
    size_t events = 0;
    for (size_t pos = json.find("\"name\""); pos != std::string::npos;
         pos = json.find("\"name\"", pos + 1)) {
        events++;
    }
    EXPECT_GE(events, 24u); // 4 ranks x 6 steps at least
    std::remove(path.c_str());
}

TEST(TopologySpec, ParsesKnownMachines)
{
    EXPECT_EQ(parseTopology("ndv4:2").numRanks(), 16);
    EXPECT_EQ(parseTopology("dgx2:1").numRanks(), 16);
    EXPECT_EQ(parseTopology("dgx1").numRanks(), 8);
    Topology generic = parseTopology("generic:3:5");
    EXPECT_EQ(generic.numNodes(), 3);
    EXPECT_EQ(generic.gpusPerNode(), 5);
}

TEST(TopologySpec, RejectsJunk)
{
    EXPECT_THROW(parseTopology("tpu:4"), Error);
    EXPECT_THROW(parseTopology("ndv4:x"), Error);
    EXPECT_THROW(parseTopology(""), Error);
}

} // namespace
} // namespace mscclang
