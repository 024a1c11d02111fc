/**
 * @file
 * Bit-exact determinism of the simulator AND the compiler. Simulated
 * results — the ExecStats fingerprint, the trace file content, and
 * data-mode buffer contents — must be identical on every run of the
 * same program: hot-path work (incremental max-min rates, pooled
 * events, dense interpreter plans, parallel tuner sweeps) is only
 * allowed to move wall-clock time, never simulated time. The same
 * contract binds the compiler: data-structure and verifier overhauls
 * may only move wall-clock time, never the emitted IR (instruction
 * order, channel and thread-block assignment) or a verifier verdict,
 * pinned here by golden FNV-1a hashes of the IR XML measured at the
 * pre-overhaul compiler. EXPERIMENTS.md states both contracts.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/verifier.h"
#include "runtime/communicator.h"
#include "runtime/interpreter.h"
#include "runtime/reference.h"
#include "runtime/tuner.h"
#include "test_util.h"
#include "topology/topology.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace mscclang {
namespace {

using testing::fnv1a;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Runs @p ir once in timing mode, tracing to @p trace_path. */
ExecStats
runTimed(const Topology &topo, const IrProgram &ir,
         std::uint64_t bytes, const std::string &trace_path)
{
    ExecOptions exec;
    exec.bytesPerRank = bytes;
    exec.maxTilesPerChunk = 16;
    exec.launchOverheadUs = topo.params().kernelLaunchUs;
    exec.traceFile = trace_path;
    return runIr(topo, ir, exec);
}

/**
 * Runs twice from identical fresh state and requires the stats and
 * the trace files to be bitwise identical (== on doubles, byte-equal
 * trace content).
 */
void
expectBitIdentical(const Topology &topo, const IrProgram &ir,
                   std::uint64_t bytes)
{
    std::string path_a = testing::tempPath("a.json");
    std::string path_b = testing::tempPath("b.json");
    ExecStats a = runTimed(topo, ir, bytes, path_a);
    ExecStats b = runTimed(topo, ir, bytes, path_b);
    EXPECT_EQ(a.endNs, b.endNs);
    EXPECT_EQ(a.startNs, b.startNs);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.wireBytes, b.wireBytes); // exact, not NEAR
    std::string trace_a = slurp(path_a);
    std::string trace_b = slurp(path_b);
    EXPECT_FALSE(trace_a.empty());
    EXPECT_EQ(trace_a, trace_b);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Determinism, RingAllReduceSingleNode)
{
    Topology topo = makeNdv4(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(8, 2, cfg)).ir;
    expectBitIdentical(topo, ir, 1 << 20);
}

TEST(Determinism, RingAllReduceTwoNodesCrossesIb)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 4;
    IrProgram ir = compileProgram(*makeRingAllReduce(16, 4, cfg)).ir;
    expectBitIdentical(topo, ir, 4 << 20);
}

TEST(Determinism, DoubleBinaryTreeDgx2)
{
    Topology topo = makeDgx2(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL;
    cfg.instances = 2;
    IrProgram ir =
        compileProgram(*makeDoubleBinaryTreeAllReduce(16, cfg)).ir;
    expectBitIdentical(topo, ir, 256 << 10);
}

TEST(Determinism, HierarchicalAllReduceDgx1)
{
    Topology topo = makeDgx1();
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 1;
    IrProgram ir =
        compileProgram(*makeRabenseifnerAllReduce(8, cfg)).ir;
    expectBitIdentical(topo, ir, 1 << 20);
}

TEST(Determinism, DataModeStatsAndBuffersAreBitIdentical)
{
    Topology topo = makeNdv4(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    std::unique_ptr<Program> program = makeRingAllReduce(8, 2, cfg);
    IrProgram ir = compileProgram(*program).ir;
    const std::uint64_t bytes = 256 << 10;

    std::vector<std::vector<float>> inputs(8);
    auto run_once = [&](DataStore &store) {
        store.configure(ir, bytes);
        for (int r = 0; r < 8; r++) {
            std::vector<float> &in = store.input(r);
            for (size_t i = 0; i < in.size(); i++)
                in[i] = static_cast<float>((r * 131 + i) % 97);
            inputs[r] = in;
        }
        ExecOptions exec;
        exec.dataMode = true;
        exec.bytesPerRank = bytes;
        exec.maxTilesPerChunk = 16;
        exec.launchOverheadUs = topo.params().kernelLaunchUs;
        return runIr(topo, ir, exec, &store);
    };

    DataStore store_a, store_b;
    ExecStats a = run_once(store_a);
    ExecStats b = run_once(store_b);
    EXPECT_EQ(a.endNs, b.endNs);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.wireBytes, b.wireBytes);
    std::vector<std::vector<float>> outputs(8);
    for (int r = 0; r < 8; r++) {
        // Element-exact: reductions must run in the same order too.
        EXPECT_EQ(store_a.output(r), store_b.output(r)) << "rank " << r;
        outputs[r] = store_a.buffer(r, BufferKind::Output, ir.inPlace);
    }
    // And the buffers satisfy the collective's postcondition.
    EXPECT_EQ(compareToReference(program->collective(), inputs, outputs,
                                 ir.reduceOp),
              "");
}

TEST(Determinism, TimingModeMatchesDataModeTimings)
{
    // The two modes share one event schedule; moving real floats must
    // not perturb simulated time.
    Topology topo = makeNdv4(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(8, 2, cfg)).ir;
    const std::uint64_t bytes = 64 << 10;

    ExecOptions timing;
    timing.bytesPerRank = bytes;
    timing.maxTilesPerChunk = 16;
    timing.launchOverheadUs = topo.params().kernelLaunchUs;
    ExecStats t = runIr(topo, ir, timing);

    DataStore store;
    store.configure(ir, bytes);
    ExecOptions data = timing;
    data.dataMode = true;
    ExecStats d = runIr(topo, ir, data, &store);

    EXPECT_EQ(t.endNs, d.endNs);
    EXPECT_EQ(t.messages, d.messages);
    EXPECT_EQ(t.wireBytes, d.wireBytes);
}

/** One timing-mode run, optionally writing a trace file. */
ExecStats
runTiming(const Topology &topo, const IrProgram &ir, std::uint64_t bytes,
          const std::string &trace_path = std::string())
{
    ExecOptions exec;
    exec.bytesPerRank = bytes;
    exec.maxTilesPerChunk = 16;
    exec.launchOverheadUs = topo.params().kernelLaunchUs;
    exec.traceFile = trace_path;
    return runIr(topo, ir, exec);
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

TEST(Determinism, SimulatedFingerprintsMatchGoldens)
{
    // Pinned simulated results of six collectives (16 and 64 ranks;
    // ring allreduce, ring allgather and two-step alltoall). endNs and
    // messages are the values the retired serial interpreter produced,
    // so the rank-batched interpreter reproduces its timeline exactly;
    // wireBytes is a float sum folded rank by rank per batch, pinned
    // to the exact bits of that order.
    struct Golden
    {
        const char *name;
        Topology topo;
        IrProgram ir;
        std::uint64_t bytes;
        TimeNs endNs;
        std::uint64_t messages;
        std::uint64_t wireBytesBits;
    };
    AlgoConfig ll128;
    ll128.protocol = Protocol::LL128;
    ll128.instances = 4;
    AlgoConfig ll128x2;
    ll128x2.protocol = Protocol::LL128;
    ll128x2.instances = 2;
    AlgoConfig simple;
    simple.protocol = Protocol::Simple;
    simple.instances = 1;
    AlgoConfig simplex2;
    simplex2.protocol = Protocol::Simple;
    simplex2.instances = 2;
    std::vector<Golden> goldens;
    goldens.push_back({ "ring_allreduce_16", makeNdv4(2),
                        compileProgram(*makeRingAllReduce(16, 4, ll128)).ir,
                        1 << 20, 302200, 1920, 0x4184dd1e0000002dull });
    goldens.push_back({ "ring_allgather_16", makeNdv4(2),
                        compileProgram(*makeRingAllGather(16, 2, simplex2)).ir,
                        256 << 10, 227765, 480, 0x4191d36c65a5a5baull });
    goldens.push_back({ "twostep_alltoall_2x8", makeNdv4(2),
                        compileProgram(*makeTwoStepAllToAll(2, 8, simple)).ir,
                        256 << 10, 30641, 240, 0x415a3001e1e1e1ecull });
    goldens.push_back({ "ring_allreduce_64", makeNdv4(8),
                        compileProgram(*makeRingAllReduce(64, 2, ll128x2)).ir,
                        256 << 10, 269264, 16128, 0x418cd0f8ccccd2f5ull });
    goldens.push_back({ "ring_allgather_64", makeNdv4(8),
                        compileProgram(*makeRingAllGather(64, 2, simple)).ir,
                        128 << 10, 680649, 4032, 0x41c2a45e5787861eull });
    goldens.push_back({ "twostep_alltoall_8x8", makeNdv4(8),
                        compileProgram(*makeTwoStepAllToAll(8, 8, simple)).ir,
                        64 << 10, 29340, 4032, 0x4170c7bc3c3c3c3full });
    for (const Golden &gold : goldens) {
        SCOPED_TRACE(gold.name);
        ExecStats stats = runTiming(gold.topo, gold.ir, gold.bytes);
        EXPECT_EQ(stats.endNs, gold.endNs);
        EXPECT_EQ(stats.messages, gold.messages);
        EXPECT_EQ(doubleBits(stats.wireBytes), gold.wireBytesBits)
            << "wireBytes " << std::hexfloat << stats.wireBytes;
    }
}

TEST(Determinism, WideInstantFingerprintsMatchParent)
{
    // 128-rank rings on ndv4:16: every rank acts at the same instants,
    // so each interpreter batch carries hundreds of actions and takes
    // the large-bucket sort path. The allreduce's wireBytes bits move
    // if that sort drops or reorders a rank's actions. Values recorded
    // at the per-rank-heap interpreter that the per-instant buckets
    // replaced.
    AlgoConfig simple;
    simple.protocol = Protocol::Simple;
    simple.instances = 1;
    AlgoConfig simplex2;
    simplex2.protocol = Protocol::Simple;
    simplex2.instances = 2;
    Topology topo = makeNdv4(16);
    struct Golden
    {
        const char *name;
        IrProgram ir;
        std::uint64_t bytes;
        TimeNs endNs;
        std::uint64_t messages;
        std::uint64_t wireBytesBits;
    };
    std::vector<Golden> goldens;
    goldens.push_back({ "ring_allreduce_128",
                        compileProgram(*makeRingAllReduce(128, 2, simplex2)).ir,
                        128 << 10, 803166, 65024, 0x41a0c7e14b4b507bull });
    goldens.push_back({ "ring_allgather_128",
                        compileProgram(*makeRingAllGather(128, 1, simple)).ir,
                        128 << 10, 1352017, 16256, 0x41e2c08e1d2d2f29ull });
    for (const Golden &gold : goldens) {
        SCOPED_TRACE(gold.name);
        ExecStats stats = runTiming(topo, gold.ir, gold.bytes);
        EXPECT_EQ(stats.endNs, gold.endNs);
        EXPECT_EQ(stats.messages, gold.messages);
        EXPECT_EQ(doubleBits(stats.wireBytes), gold.wireBytesBits)
            << "wireBytes " << std::hexfloat << stats.wireBytes;
    }
}

/**
 * Fingerprint of the retired serial interpreter, recorded for each
 * program of the rank-batched interpreter checks below.
 */
struct SerialEngineFingerprint
{
    TimeNs startNs;
    TimeNs endNs;
    std::uint64_t messages;
    double wireBytes;
};

/**
 * The rank-batched interpreter contract (DESIGN.md §13): it
 * reproduces the serial interpreter it replaced — the timestamps and
 * message counts exactly, wireBytes up to floating-point summation
 * order (per-rank partial sums fold rank-by-rank instead of
 * accumulating in global event order).
 */
void
expectParallelInterpInvariant(const Topology &topo,
                              const IrProgram &ir,
                              std::uint64_t bytes,
                              const SerialEngineFingerprint &serial)
{
    ExecStats ref = runTiming(topo, ir, bytes);
    EXPECT_EQ(serial.endNs, ref.endNs) << "engine divergence";
    EXPECT_EQ(serial.startNs, ref.startNs);
    EXPECT_EQ(serial.messages, ref.messages);
    EXPECT_NEAR(serial.wireBytes, ref.wireBytes,
                1e-6 * serial.wireBytes + 1e-3);
}

TEST(Determinism, ParallelInterpInvariantAllReduce16)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 4;
    IrProgram ir = compileProgram(*makeRingAllReduce(16, 4, cfg)).ir;
    expectParallelInterpInvariant(topo, ir, 1 << 20,
                                  { 0, 302200, 1920, 43754431.999999136 });
}

TEST(Determinism, ParallelInterpInvariantAllGather16)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllGather(16, 2, cfg)).ir;
    expectParallelInterpInvariant(topo, ir, 256 << 10,
                                  { 0, 227765, 480, 74767129.411764801 });
}

TEST(Determinism, ParallelInterpInvariantAllToAll16)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 1;
    IrProgram ir = compileProgram(*makeTwoStepAllToAll(2, 8, cfg)).ir;
    expectParallelInterpInvariant(topo, ir, 256 << 10,
                                  { 0, 30641, 240, 6864903.5294117872 });
}

TEST(Determinism, ParallelInterpInvariantAllReduce64)
{
    Topology topo = makeNdv4(8);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(64, 2, cfg)).ir;
    expectParallelInterpInvariant(topo, ir, 256 << 10,
                                  { 0, 269264, 16128, 60432153.599992752 });
}

TEST(Determinism, ParallelInterpInvariantAllGather64)
{
    Topology topo = makeNdv4(8);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 1;
    IrProgram ir = compileProgram(*makeRingAllGather(64, 2, cfg)).ir;
    expectParallelInterpInvariant(topo, ir, 128 << 10,
                                  { 0, 680649, 4032, 625523887.05878043 });
}

TEST(Determinism, ParallelInterpInvariantAllToAll64)
{
    Topology topo = makeNdv4(8);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 1;
    IrProgram ir = compileProgram(*makeTwoStepAllToAll(8, 8, cfg)).ir;
    expectParallelInterpInvariant(topo, ir, 64 << 10,
                                  { 0, 29340, 4032, 17595331.764705688 });
}

TEST(Determinism, ParallelInterpTraceContentMatchesSerialEngine)
{
    // The full instruction timeline is engine-independent: every
    // slice's begin/end timestamp is byte-identical to the serial
    // interpreter's trace (pinned by its FNV-1a hash and length;
    // writeTrace's canonical sort erases append-order differences).
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(16, 2, cfg)).ir;
    std::string path = testing::tempPath("pinterp.json");
    runTiming(topo, ir, 1 << 20, path);
    std::string trace = slurp(path);
    EXPECT_EQ(trace.size(), 92107u);
    EXPECT_EQ(fnv1a(trace), 0x3e476cfc9356da45ull);
    std::remove(path.c_str());
}

TEST(Determinism, ParallelInterpInvariantWithActiveFaults)
{
    // Fired-fault sets and post-fault timings match the serial
    // interpreter's.
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(16, 2, cfg)).ir;
    const std::uint64_t bytes = 1 << 20;

    double healthy_us = runTiming(topo, ir, bytes).durationUs();
    const Route &route = topo.route(0, 1);
    ASSERT_FALSE(route.resources.empty());
    FaultEvent degrade;
    degrade.resource = route.resources.front();
    degrade.kind = FaultKind::Degrade;
    degrade.atUs = healthy_us * 0.3;
    degrade.durationUs = healthy_us * 0.4;
    degrade.factor = 0.05;
    topo.setFaultSchedule(FaultSchedule{ { degrade } });

    ExecStats ref = runTiming(topo, ir, bytes);
    EXPECT_FALSE(ref.aborted);
    EXPECT_EQ(ref.endNs, 176470); // the serial interpreter's
    EXPECT_GT(ref.durationUs(), healthy_us); // the fault bit
    EXPECT_EQ(ref.firedFaults, std::vector<int>{ 0 });
    EXPECT_EQ(ref.faultsSeen, 1);
}

TEST(Determinism, TunerWindowsIndependentOfThreadCount)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeRingAllReduce(16, 2, cfg)).ir);
    candidates.push_back(
        compileProgram(*makeAllPairsAllReduce(16, cfg)).ir);
    candidates.push_back(
        compileProgram(*makeDoubleBinaryTreeAllReduce(16, cfg)).ir);

    TuneOptions tune;
    tune.fromBytes = 1 << 12;
    tune.toBytes = 1 << 20;

    tune.threads = 1;
    std::vector<TunedWindow> serial =
        tuneWindows(topo, candidates, tune);
    tune.threads = 4;
    std::vector<TunedWindow> parallel =
        tuneWindows(topo, candidates, tune);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].minBytes, parallel[i].minBytes);
        EXPECT_EQ(serial[i].maxBytes, parallel[i].maxBytes);
        EXPECT_EQ(serial[i].candidate, parallel[i].candidate);
        EXPECT_EQ(serial[i].timeUs, parallel[i].timeUs); // exact
    }
}

TEST(Determinism, TunerMemoizesDuplicateCandidates)
{
    Topology topo = makeNdv4(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeRingAllReduce(8, 2, cfg)).ir);
    candidates.push_back(
        compileProgram(*makeAllPairsAllReduce(8, cfg)).ir);
    // The same ring again under a different name: structurally equal,
    // so it shares the first candidate's simulations and — by the
    // strict-< winner rule — can never displace it.
    candidates.push_back(candidates[0]);
    candidates.back().name = "ring-again";

    TuneOptions tune;
    tune.fromBytes = 1 << 12;
    tune.toBytes = 1 << 18;
    std::vector<TunedWindow> windows =
        tuneWindows(topo, candidates, tune);
    for (const TunedWindow &w : windows)
        EXPECT_NE(w.candidate, 2) << "duplicate displaced original";
}

// ------------------------------------------------------------------
// Compiler determinism: the IR emitted for a fixed program is part of
// the repo's contract. The hashes below were measured at the
// pre-overhaul compiler; any divergence means instruction order,
// channel assignment, or thread-block assignment changed.

struct GoldenProgram
{
    const char *name;
    std::uint64_t xmlHash;
    /** Hash of dump(), measured at the tree-shaped IR body. */
    std::uint64_t dumpHash;
    std::function<IrProgram()> compile;

    std::string compileXml() const { return compile().toXml(); }
};

std::vector<GoldenProgram>
goldenPrograms()
{
    AlgoConfig i2;
    i2.instances = 2;
    AlgoConfig i4;
    i4.instances = 4;
    i4.protocol = Protocol::LL128;
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    ll.instances = 2;
    AlgoConfig plain;
    auto ir = [](const Program &p, const CompileOptions &copts = {}) {
        return compileProgram(p, copts).ir;
    };
    return {
        { "ring_allreduce_8x2_i2", 0x75cca9cb1c069012ull, 0x8baf049219f49380ull,
          [=] { return ir(*makeRingAllReduce(8, 2, i2)); } },
        { "ring_allreduce_16x4_i4_ll128", 0x38abad495ed5569aull,
          0x994174bc93473a40ull,
          [=] { return ir(*makeRingAllReduce(16, 4, i4)); } },
        { "ring_allreduce_oop_8x2", 0x1f2f8a7279bbe52cull,
          0xf0543bf3ade2c3bcull,
          [=] { return ir(*makeRingAllReduceOutOfPlace(8, 2, i2)); } },
        { "allpairs_8_ll", 0x8f00059d8a9ebce5ull, 0xcd608ece8128fc0dull,
          [=] { return ir(*makeAllPairsAllReduce(8, ll)); } },
        { "hierarchical_2x4_i2", 0xf050070cec36d9b9ull, 0x8529d9b15ca0bc3bull,
          [=] {
              return ir(*makeHierarchicalAllReduce(2, 4, 2, plain));
          } },
        // Multi-node scaling goldens: the hierarchical factory at
        // 16/64/256 ranks (8-GPU nodes) plus an explicit hierarchy
        // split, pinning the generalized group loops to the exact IR
        // the whole-node implementation emitted.
        { "hierarchical_2x8", 0xb575bde688fd43aaull, 0x8c8aa4f524436ba6ull,
          [=] {
              return ir(*makeHierarchicalAllReduce(2, 8, 1, plain));
          } },
        { "hierarchical_8x8", 0x4f3d555957bfb307ull, 0x054b467d1b47d833ull,
          [=] {
              return ir(*makeHierarchicalAllReduce(8, 8, 1, plain));
          } },
        { "hierarchical_32x8", 0x39147a7e3b401852ull, 0x9168903ad25dab20ull,
          [=] {
              return ir(*makeHierarchicalAllReduce(32, 8, 1, plain));
          } },
        { "hierarchical_2x4_h2", 0x7d3a2ab38d94a56cull, 0xd8687d2327b557eaull,
          [=] {
              AlgoConfig split;
              split.hierSplit = 2;
              return ir(*makeHierarchicalAllReduce(2, 4, 2, split));
          } },
        { "twostep_alltoall_2x4", 0x45fd89fa179dffa7ull, 0x1a410e13dffc8217ull,
          [=] { return ir(*makeTwoStepAllToAll(2, 4, plain)); } },
        { "naive_alltoall_8", 0xf3352f705b2aeb2eull, 0xb26a2442c2b92d66ull,
          [=] { return ir(*makeNaiveAllToAll(8, plain)); } },
        { "alltonext_2x4", 0xc05b83444d2becf6ull, 0xb2f8e41fe7745689ull,
          [=] { return ir(*makeAllToNext(2, 4, plain)); } },
        { "naive_alltonext_2x4", 0x705dbf06d0bb286aull, 0xdbd01917af77fe70ull,
          [=] { return ir(*makeNaiveAllToNext(2, 4, plain)); } },
        { "ring_allgather_8x2_i2", 0xa2b4b8c1d774e602ull, 0x93e4227f202849e1ull,
          [=] { return ir(*makeRingAllGather(8, 2, i2)); } },
        { "dbt_allreduce_16_ll", 0x2ad83adb6e380f8full, 0x3d2a35b3c8e6e709ull,
          [=] { return ir(*makeDoubleBinaryTreeAllReduce(16, ll)); } },
        { "rabenseifner_8", 0xffa1b3a08739c09eull, 0xcda52086edf45b48ull,
          [=] { return ir(*makeRabenseifnerAllReduce(8, plain)); } },
        { "sccl122_allgather_dgx1", 0x3515935a2aea16adull,
          0xe734ca4c84a8b94cull,
          [=] {
              Topology dgx1 = makeDgx1();
              CompileOptions copts;
              copts.topology = &dgx1;
              return ir(*makeSccl122AllGather(dgx1, plain), copts);
          } },
    };
}

TEST(Determinism, CompiledIrMatchesGoldenHashes)
{
    for (const GoldenProgram &gold : goldenPrograms()) {
        SCOPED_TRACE(gold.name);
        EXPECT_EQ(fnv1a(gold.compileXml()), gold.xmlHash);
    }
}

// The --dump text of the same programs, pinned the same way: a change
// to the IR body's layout must leave the human-readable form as is.
TEST(Determinism, CompiledDumpsMatchGoldenHashes)
{
    for (const GoldenProgram &gold : goldenPrograms()) {
        SCOPED_TRACE(gold.name);
        EXPECT_EQ(fnv1a(gold.compile().dump()), gold.dumpHash);
    }
}

// The programs the end-to-end benchmark compiles: the four compile-big
// programs (128-512 ranks) and the four sim-sweep plans, compiled
// with default options as the benchmark does. They sit outside
// goldenPrograms() so the compile-twice and concurrent loops above do
// not pay for them again; hashes measured at the pre-dense-scheduler
// compiler.
TEST(Determinism, MeasuredProgramsMatchGoldenHashes)
{
    AlgoConfig simple;
    AlgoConfig two;
    two.instances = 2;
    AlgoConfig ring;
    ring.instances = 8;
    ring.protocol = Protocol::LL128;
    struct Measured
    {
        const char *name;
        std::uint64_t xmlHash;
        std::function<std::unique_ptr<Program>()> make;
    };
    const std::vector<Measured> measured = {
        { "big_ring_allreduce_256", 0xd63c4533e3ee3720ull,
          [=] { return makeRingAllReduce(256, 1, simple); } },
        { "big_hierarchical_64x8", 0xf733e69710cec19dull,
          [=] { return makeHierarchicalAllReduce(64, 8, 1, simple); } },
        { "big_ring_allgather_256_ch2_r2", 0x595b6dbcb41d264cull,
          [=] { return makeRingAllGather(256, 2, two); } },
        { "big_twostep_alltoall_16x8", 0x4d424b92d06a5442ull,
          [=] { return makeTwoStepAllToAll(16, 8, simple); } },
        { "sweep_ring_allreduce_64x4_i8_ll128", 0x4a66204f6e31ce2dull,
          [=] { return makeRingAllReduce(64, 4, ring); } },
        { "sweep_hierarchical_8x8_i8", 0x8863d792d8334869ull,
          [=] { return makeHierarchicalAllReduce(8, 8, 8, simple); } },
        { "sweep_twostep_alltoall_8x8", 0x121c4868ecf76375ull,
          [=] { return makeTwoStepAllToAll(8, 8, simple); } },
        { "sweep_ring_allgather_64x2_i2", 0x8a135c04e64645a6ull,
          [=] { return makeRingAllGather(64, 2, two); } },
    };
    for (const Measured &m : measured) {
        SCOPED_TRACE(m.name);
        EXPECT_EQ(fnv1a(compileProgram(*m.make()).ir.toXml()), m.xmlHash);
    }
}

TEST(Determinism, CompilingTwiceYieldsIdenticalIr)
{
    // Byte-equal XML means identical instruction order, channel, and
    // thread-block assignment — stronger than hash equality.
    for (const GoldenProgram &gold : goldenPrograms()) {
        SCOPED_TRACE(gold.name);
        EXPECT_EQ(gold.compileXml(), gold.compileXml());
    }
}

TEST(Determinism, ConcurrentCompilesYieldIdenticalIr)
{
    // The compiler owns no global mutable state; racing full compiles
    // of different programs must still reproduce every golden hash.
    std::vector<GoldenProgram> golds = goldenPrograms();
    std::vector<std::uint64_t> hashes(golds.size(), 0);
    std::vector<std::thread> pool;
    for (size_t i = 0; i < golds.size(); i++) {
        pool.emplace_back([&, i] {
            hashes[i] = fnv1a(golds[i].compileXml());
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (size_t i = 0; i < golds.size(); i++) {
        SCOPED_TRACE(golds[i].name);
        EXPECT_EQ(hashes[i], golds[i].xmlHash);
    }
}

/** Two thread blocks writing output chunk 0 of rank 0, unordered. */
IrProgram
racyWriteWriteIr()
{
    IrBuilder body;
    body.addGpu(0, 2, 1, 0);
    for (int t = 0; t < 2; t++) {
        IrInstruction copy;
        copy.op = IrOp::Copy;
        copy.srcBuf = BufferKind::Input;
        copy.srcOff = t;
        copy.dstBuf = BufferKind::Output;
        copy.dstOff = 0;
        body.addThreadBlock(0, t);
        body.addStep(copy);
    }
    IrProgram ir;
    ir.numRanks = 1;
    ir.gpus = body.build(1, false);
    return ir;
}

/** A scratch write racing a scratch read across thread blocks. */
IrProgram
racyReadWriteIr()
{
    IrBuilder body;
    body.addGpu(0, 1, 1, 1);
    IrInstruction w;
    w.op = IrOp::Copy;
    w.srcBuf = BufferKind::Input;
    w.dstBuf = BufferKind::Scratch;
    body.addThreadBlock(0, 0);
    body.addStep(w);
    IrInstruction r;
    r.op = IrOp::Copy;
    r.srcBuf = BufferKind::Scratch;
    r.dstBuf = BufferKind::Output;
    body.addThreadBlock(0, 1);
    body.addStep(r);
    IrProgram ir;
    ir.numRanks = 1;
    ir.gpus = body.build(1, false);
    return ir;
}

std::string
raceVerdict(const IrProgram &ir)
{
    try {
        verifyRaceFree(ir);
    } catch (const VerificationError &e) {
        return e.what();
    }
    return "";
}

TEST(Determinism, RaceVerdictsMatchGoldenMessages)
{
    // Exact messages measured at the pre-overhaul whole-graph
    // analysis; the last-writer walk must reproduce the same first
    // error.
    EXPECT_EQ(raceVerdict(racyWriteWriteIr()),
              "data race: rank 0 tb 0 step 0 and tb 1 step 0 "
              "access o[0] unordered");
    EXPECT_EQ(raceVerdict(racyReadWriteIr()),
              "data race: rank 0 tb 0 step 0 and tb 1 step 0 "
              "access s[0] unordered");
}

TEST(Determinism, SeededWorkloadSpecsAreByteIdentical)
{
    // The same contract extends to the workload layer: a seeded
    // generator is a pure function of its arguments, pinned at the
    // JSON byte level so traces can be diffed and replayed exactly.
    for (std::uint64_t seed : { 1ULL, 7ULL, 0xabcdefULL }) {
        SCOPED_TRACE(seed);
        EXPECT_EQ(makeMixedInferenceWorkload(seed).toJson(),
                  makeMixedInferenceWorkload(seed).toJson());
        EXPECT_EQ(makeDecodeWorkload(16, 1 << 20, 250.0, seed)
                      .toJson(),
                  makeDecodeWorkload(16, 1 << 20, 250.0, seed)
                      .toJson());
        EXPECT_EQ(makeMoeWorkload(16, 1 << 20, 300.0, seed).toJson(),
                  makeMoeWorkload(16, 1 << 20, 300.0, seed).toJson());
        EXPECT_EQ(
            makeBurstyWorkload(3, 4, 1 << 19, 800.0, seed).toJson(),
            makeBurstyWorkload(3, 4, 1 << 19, 800.0, seed).toJson());
    }
}

TEST(Determinism, WorkloadReplayInvariantAcrossThreads)
{
    // A stormed multi-stream replay — retries, backoff jitter,
    // quarantine churn and all — must produce the identical op-level
    // fingerprint whether it runs alone or beside other replays on
    // concurrent host threads (as the tuner and search sweeps run
    // simulations): no simulation may share mutable state with
    // another. This pins the whole recovery stack, not just one
    // kernel's timing.
    Topology topo = parseTopology("generic:2:4");
    WorkloadSpec spec = mergeSpecs(
        "det", { makeDecodeWorkload(4, 512 * 1024, 300.0, 3),
                 makeMoeWorkload(3, 1 << 20, 500.0, 3) });
    FaultSchedule storm = makeLinkFlapStorm(
        resourcesMatching(topo, "ib-send[0.3]"), 3, 700.0, 500.0,
        150.0);
    auto replay_once = [&](int *faults_fired) {
        Communicator comm(topo);
        registerWorkloadPlans(comm, spec);
        ReplayResult replay =
            replayWorkload(comm, spec, storm, ReplayOptions{});
        *faults_fired = replay.faultsFired;
        return replay.fingerprint();
    };

    int faults_fired = 0;
    std::uint64_t reference = replay_once(&faults_fired);
    EXPECT_GT(faults_fired, 0) << "the storm must actually hit the traffic";

    constexpr int kConcurrent = 4;
    std::vector<std::uint64_t> got(kConcurrent, 0);
    std::vector<int> fired(kConcurrent, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kConcurrent; t++)
        workers.emplace_back([&, t] { got[t] = replay_once(&fired[t]); });
    for (std::thread &worker : workers)
        worker.join();
    for (int t = 0; t < kConcurrent; t++) {
        EXPECT_EQ(got[t], reference) << "thread " << t;
        EXPECT_EQ(fired[t], faults_fired) << "thread " << t;
    }
}

TEST(Determinism, StormedReplayFingerprintMatchesParent)
{
    // The replay above only compares a replay with itself, so an
    // event-order change (a same-instant tie-break between a replay
    // dispatch, a flow-network batch and an interpreter batch) would
    // pass it. This pins the op-level fingerprint against values
    // recorded at the shard-heap event queue that per-producer due
    // slots replaced. Two identical bursty streams dispatch their ops
    // at the same instants, beside decode and MoE traffic, while a
    // flap storm stalls the inter-node NICs mid-traffic. The tight
    // no-progress watchdog makes the run order-sensitive: its ticks
    // land on instants where interpreter batches are due, and running
    // serial events after same-instant producers (instead of in stamp
    // order) changes which attempts abort, and so the fingerprint.
    Topology topo = parseTopology("generic:2:8");
    WorkloadSpec spec = mergeSpecs(
        "pinned", { makeBurstyWorkload(3, 4, 256 * 1024, 400.0, 3),
                    makeBurstyWorkload(3, 4, 256 * 1024, 400.0, 3),
                    makeDecodeWorkload(6, 512 * 1024, 250.0, 3),
                    makeMoeWorkload(4, 1 << 20, 350.0, 3) });
    FaultSchedule storm = makeLinkFlapStorm(
        resourcesMatching(topo, "ib-send"), 4, 450.0, 300.0, 100.0);
    Communicator comm(topo);
    registerWorkloadPlans(comm, spec);
    ReplayOptions options;
    options.watchdogNoProgressUs = 100.0;
    ReplayResult replay = replayWorkload(comm, spec, storm, options);
    int retried = 0;
    for (const OpRecord &op : replay.ops)
        retried += op.attempts > 1 ? 1 : 0;
    EXPECT_GT(retried, 0) << "the storm must force recoveries";
    EXPECT_EQ(replay.fingerprint(), 3740928916910341309ull);
    EXPECT_EQ(replay.faultsFired, 64);
}

} // namespace
} // namespace mscclang
