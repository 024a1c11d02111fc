/**
 * @file
 * Workload layer tests (DESIGN.md §14): trace generators and JSON
 * round-trips (Workload suite), the multi-stream replay engine with
 * storms and recovery (Replay suite), and the SLO aggregation math
 * (Slo suite).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "runtime/communicator.h"
#include "topology/topology.h"
#include "workload/json.h"
#include "workload/replay.h"
#include "workload/workload.h"

using namespace mscclang;

namespace {

/** A tiny deterministic 2-stream spec for replay tests. */
WorkloadSpec
smallSpec(int ops_per_stream = 3, std::uint64_t bytes = 128 * 1024)
{
    WorkloadSpec spec;
    spec.name = "small";
    for (int s = 0; s < 2; s++) {
        WorkloadStream stream;
        stream.name = s == 0 ? "left" : "right";
        for (int o = 0; o < ops_per_stream; o++) {
            WorkloadOp op;
            op.collective = "allreduce";
            op.bytes = bytes;
            op.issueUs = 200.0 * o;
            stream.ops.push_back(op);
        }
        spec.streams.push_back(std::move(stream));
    }
    return spec;
}

ReplayOptions
fastOptions()
{
    ReplayOptions options;
    options.watchdogNoProgressUs = 150.0;
    options.maxAttempts = 4;
    return options;
}

/** A communicator with the standard plan library for @p spec. */
struct Fixture
{
    Topology topology;
    Communicator comm;

    explicit Fixture(const WorkloadSpec &spec,
                     const std::string &machine = "generic:2:2",
                     std::uint64_t seed = 1)
        : topology(parseTopology(machine)),
          comm(topology,
               [seed] {
                   HealthOptions health;
                   health.seed = seed;
                   return health;
               }())
    {
        registerWorkloadPlans(comm, spec);
    }
};

} // namespace

// ---------------------------------------------------------------------
// Workload suite: specs, generators, storms.
// ---------------------------------------------------------------------

TEST(Workload, GeneratorsAreSeedDeterministic)
{
    std::string a = makeMixedInferenceWorkload(7).toJson();
    std::string b = makeMixedInferenceWorkload(7).toJson();
    EXPECT_EQ(a, b);
    std::string c = makeMixedInferenceWorkload(8).toJson();
    EXPECT_NE(a, c) << "seed must reach the generators";
}

TEST(Workload, JsonRoundTripIsExact)
{
    WorkloadSpec spec = makeMixedInferenceWorkload(3);
    WorkloadSpec parsed = WorkloadSpec::fromJson(spec.toJson());
    EXPECT_EQ(spec.toJson(), parsed.toJson());
    EXPECT_EQ(spec.totalOps(), parsed.totalOps());
}

TEST(Workload, ValidateRejectsOutOfRangeDeps)
{
    WorkloadSpec spec = smallSpec();
    spec.streams[0].ops[1].deps.push_back(OpDep{ 5, 0 });
    EXPECT_THROW(spec.validate(), Error);

    spec = smallSpec();
    spec.streams[0].ops[1].deps.push_back(OpDep{ 1, 99 });
    EXPECT_THROW(spec.validate(), Error);
}

TEST(Workload, ValidateRejectsDependencyCycles)
{
    WorkloadSpec spec = smallSpec(1);
    spec.streams[0].ops[0].deps.push_back(OpDep{ 1, 0 });
    spec.streams[1].ops[0].deps.push_back(OpDep{ 0, 0 });
    EXPECT_THROW(spec.validate(), Error);
}

TEST(Workload, ValidateRejectsZeroByteOps)
{
    WorkloadSpec spec = smallSpec();
    spec.streams[1].ops[0].bytes = 0;
    EXPECT_THROW(spec.validate(), Error);
}

TEST(Workload, MergeRemapsDependencyStreamIndices)
{
    WorkloadSpec pipeline = makePipelineWorkload(2, 2, 64 * 1024, 10.0);
    WorkloadSpec merged = mergeSpecs(
        "merged", { makeDecodeWorkload(2, 64 * 1024, 100.0, 1),
                    pipeline });
    merged.validate();
    ASSERT_EQ(merged.streams.size(), 3u);
    // The pipeline's stage1 -> stage0 deps moved from stream 0 to
    // stream 1 (the decode spec contributed one stream up front).
    const WorkloadOp &op = merged.streams[2].ops[0];
    ASSERT_EQ(op.deps.size(), 1u);
    EXPECT_EQ(op.deps[0].stream, 1);
    EXPECT_EQ(op.deps[0].op, 0);
}

TEST(Workload, MoeSizesAreSkewedAndQuantized)
{
    WorkloadSpec spec = makeMoeWorkload(32, 1 << 20, 100.0, 11);
    std::set<std::uint64_t> sizes;
    for (const WorkloadOp &op : spec.streams[0].ops) {
        EXPECT_GT(op.bytes, 0u);
        EXPECT_EQ(op.bytes % (16 * 1024), 0u)
            << "sizes quantized for chunk geometry";
        sizes.insert(op.bytes);
    }
    EXPECT_GT(sizes.size(), 4u) << "skewed draw, not a constant";
}

TEST(Workload, LinkFlapStormIsPeriodic)
{
    Topology topology = parseTopology("generic:2:2");
    std::vector<ResourceId> targets =
        resourcesMatching(topology, "ib-send[0.1]");
    ASSERT_EQ(targets.size(), 1u);
    FaultSchedule storm =
        makeLinkFlapStorm(targets, 3, 500.0, 200.0, 100.0);
    ASSERT_EQ(storm.events.size(), 3u);
    EXPECT_DOUBLE_EQ(storm.events[0].atUs, 100.0);
    EXPECT_DOUBLE_EQ(storm.events[2].atUs, 1100.0);
    for (const FaultEvent &event : storm.events) {
        EXPECT_EQ(event.kind, FaultKind::Stall);
        EXPECT_DOUBLE_EQ(event.durationUs, 200.0);
    }
}

TEST(Workload, NicFailureTargetsBothDirections)
{
    Topology topology = parseTopology("generic:2:2");
    FaultSchedule failure = makeNicFailure(topology, 1, 50.0);
    ASSERT_EQ(failure.events.size(), 2u);
    std::set<std::string> names;
    for (const FaultEvent &event : failure.events) {
        EXPECT_EQ(event.kind, FaultKind::LinkDown);
        names.insert(topology.resourceName(event.resource));
    }
    EXPECT_TRUE(names.count("ib-send[0.1]"));
    EXPECT_TRUE(names.count("ib-recv[0.1]"));

    Topology single = parseTopology("dgx1");
    EXPECT_THROW(makeNicFailure(single, 0, 1.0), Error);
}

TEST(Workload, MergeSchedulesSortsByTimestamp)
{
    FaultSchedule a;
    a.events.push_back(FaultEvent{ 0, FaultKind::Stall, 300.0, 10.0 });
    FaultSchedule b;
    b.events.push_back(
        FaultEvent{ 1, FaultKind::Degrade, 100.0, 10.0, 0.5 });
    FaultSchedule merged = mergeSchedules({ a, b });
    ASSERT_EQ(merged.events.size(), 2u);
    EXPECT_DOUBLE_EQ(merged.events[0].atUs, 100.0);
    EXPECT_DOUBLE_EQ(merged.events[1].atUs, 300.0);
}

TEST(Workload, JsonParserRejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{\"a\": }"), Error);
    EXPECT_THROW(parseJson("[1, 2"), Error);
    EXPECT_THROW(parseJson("{} trailing"), Error);
    EXPECT_THROW(parseJson("\"\\u12\""), Error);
    JsonValue ok = parseJson(" {\"k\": [1, 2.5, \"s\\n\", true, "
                             "null]} ");
    EXPECT_EQ(ok.at("k").asArray().size(), 5u);
    EXPECT_DOUBLE_EQ(ok.at("k").asArray()[1].asNumber(), 2.5);
}

// ---------------------------------------------------------------------
// Replay suite: the multi-stream engine over the shared fabric.
// ---------------------------------------------------------------------

TEST(Replay, SingleOpMatchesCommunicatorRun)
{
    WorkloadSpec spec;
    spec.name = "one";
    WorkloadStream stream;
    stream.name = "s";
    WorkloadOp op;
    op.collective = "allreduce";
    op.bytes = 256 * 1024;
    stream.ops.push_back(op);
    spec.streams.push_back(stream);

    Fixture fx(spec);
    ReplayOptions options = fastOptions();
    options.maxTilesPerChunk = 16; // match RunOptions' default
    ReplayResult replay =
        replayWorkload(fx.comm, spec, FaultSchedule{}, options);
    ASSERT_EQ(replay.ops.size(), 1u);
    EXPECT_TRUE(replay.ops[0].completed);

    Fixture solo(spec);
    RunOptions run;
    run.bytes = op.bytes;
    RunResult result = solo.comm.run("allreduce", run);
    EXPECT_DOUBLE_EQ(replay.ops[0].latencyUs, result.timeUs)
        << "an uncontended replayed op costs exactly one run";
    EXPECT_EQ(replay.ops[0].algorithm, result.algorithm);
}

TEST(Replay, ConcurrentStreamsContendForBandwidth)
{
    WorkloadSpec one = smallSpec(1, 1 << 20);
    one.streams.pop_back();
    Fixture solo(one);
    ReplayResult alone =
        replayWorkload(solo.comm, one, FaultSchedule{},
                       fastOptions());

    WorkloadSpec both = smallSpec(1, 1 << 20);
    Fixture fx(both);
    ReplayResult contended =
        replayWorkload(fx.comm, both, FaultSchedule{}, fastOptions());
    ASSERT_EQ(contended.ops.size(), 2u);
    for (const OpRecord &op : contended.ops) {
        EXPECT_TRUE(op.completed);
        EXPECT_GT(op.latencyUs, alone.ops[0].latencyUs)
            << "two concurrent rings share the same links";
    }
}

TEST(Replay, OverlappingOpsBothObserveSharedFault)
{
    // Two concurrent big allreduces; one mild degrade fires while
    // both are in flight. Per-run-timeline observation means BOTH
    // report it — global consumption would hide it from one.
    WorkloadSpec spec = smallSpec(1, 4 << 20);
    Fixture fx(spec);
    Topology probe = parseTopology("generic:2:2");
    std::vector<ResourceId> targets =
        resourcesMatching(probe, "ib-send[0.1]");
    FaultSchedule storm =
        makeDegradeWave(targets, 120.0, 50.0, 0.5);
    ReplayResult replay =
        replayWorkload(fx.comm, spec, storm, fastOptions());
    ASSERT_EQ(replay.ops.size(), 2u);
    EXPECT_EQ(replay.faultsFired, 1);
    for (const OpRecord &op : replay.ops) {
        EXPECT_TRUE(op.completed);
        EXPECT_EQ(op.faultsSeen, 1)
            << "stream " << op.stream
            << " must observe the shared fault";
    }
}

TEST(Replay, StormEngagesRecovery)
{
    WorkloadSpec spec = smallSpec(4, 512 * 1024);
    Fixture fx(spec);
    std::vector<ResourceId> targets =
        resourcesMatching(fx.topology, "ib-send[0.1]");
    FaultSchedule storm =
        makeLinkFlapStorm(targets, 3, 600.0, 400.0, 80.0);
    ReplayResult replay =
        replayWorkload(fx.comm, spec, storm, fastOptions());
    EXPECT_GT(replay.faultsFired, 0);
    int retried = 0;
    for (const OpRecord &op : replay.ops)
        retried += op.attempts > 1 ? 1 : 0;
    EXPECT_GT(retried, 0) << "the storm must abort live traffic";
}

TEST(Replay, HealingBeatsBlindRetryOnAvailability)
{
    // The 16-rank machine gives the replanner room to route the ring
    // around the flapping node-boundary NIC; 4 ranks have no
    // alternative ring, so healing and blind retry tie there.
    WorkloadSpec spec = makeMixedInferenceWorkload(1);
    std::vector<ResourceId> targets = resourcesMatching(
        parseTopology("generic:2:8"), "ib-send[0.7]");
    FaultSchedule storm =
        makeLinkFlapStorm(targets, 6, 900.0, 700.0, 200.0);

    ReplayOptions options; // stock watchdog/attempt budget
    Fixture base(spec, "generic:2:8");
    ReplayResult baseline =
        replayWorkload(base.comm, spec, FaultSchedule{}, options);

    Fixture on(spec, "generic:2:8");
    options.selfHealing = true;
    ReplayResult healed = replayWorkload(on.comm, spec, storm, options);
    SloReport healed_report =
        buildSloReport(spec, healed, &baseline, options);

    Fixture off(spec, "generic:2:8");
    options.selfHealing = false;
    ReplayResult blind = replayWorkload(off.comm, spec, storm, options);
    SloReport blind_report =
        buildSloReport(spec, blind, &baseline, options);

    EXPECT_GT(healed_report.fleet.availability,
              blind_report.fleet.availability);
    EXPECT_GT(healed.quarantineChanges, 0);
    EXPECT_EQ(blind.quarantineChanges, 0);
    EXPECT_EQ(blind.replanCompiles, 0);
}

TEST(Replay, RetryBudgetExhaustionHasDistinctReason)
{
    WorkloadSpec spec;
    spec.name = "doomed";
    WorkloadStream stream;
    stream.name = "s";
    WorkloadOp op;
    op.collective = "alltoall"; // no replanner: every pair talks
    op.bytes = 64 * 1024;
    stream.ops.push_back(op);
    spec.streams.push_back(stream);

    Fixture fx(spec);
    FaultSchedule storm = makeNicFailure(fx.topology, 1, 10.0);
    ReplayOptions options = fastOptions();
    options.maxAttempts = 2;
    ReplayResult replay =
        replayWorkload(fx.comm, spec, storm, options);
    ASSERT_EQ(replay.ops.size(), 1u);
    EXPECT_FALSE(replay.ops[0].completed);
    EXPECT_EQ(replay.ops[0].attempts, 2);
    EXPECT_NE(replay.ops[0].failReason.find("retry budget exhausted"),
              std::string::npos)
        << replay.ops[0].failReason;
}

TEST(Replay, FailedDependencyReleasesDependents)
{
    WorkloadSpec spec;
    spec.name = "chain";
    WorkloadStream doomed;
    doomed.name = "doomed";
    WorkloadOp bad;
    bad.collective = "alltoall";
    bad.bytes = 64 * 1024;
    doomed.ops.push_back(bad);
    WorkloadStream waiter;
    waiter.name = "waiter";
    WorkloadOp good;
    good.collective = "allreduce";
    good.bytes = 64 * 1024;
    good.deps.push_back(OpDep{ 0, 0 });
    waiter.ops.push_back(good);
    spec.streams.push_back(doomed);
    spec.streams.push_back(waiter);

    // 8 ranks: rank 3's NIC dies, but a ring keeping rank 3 between
    // intra-node neighbours still exists, so the alltoall fails while
    // the dependent allreduce must still dispatch (after the
    // failure) and finish on the replanned ring.
    Fixture fx(spec, "generic:2:4");
    FaultSchedule storm = makeNicFailure(fx.topology, 3, 10.0);
    ReplayOptions options = fastOptions();
    options.maxAttempts = 2;
    ReplayResult replay =
        replayWorkload(fx.comm, spec, storm, options);
    ASSERT_EQ(replay.ops.size(), 2u);
    EXPECT_FALSE(replay.ops[0].completed);
    EXPECT_TRUE(replay.ops[1].completed)
        << replay.ops[1].failReason;
    EXPECT_GE(replay.ops[1].startUs, replay.ops[0].doneUs);
}

TEST(Replay, DataModeRollsBackAbortedInPlaceAttempts)
{
    WorkloadSpec spec = smallSpec(1, 64 * 1024);
    spec.streams.pop_back();
    Fixture fx(spec);
    std::vector<ResourceId> targets =
        resourcesMatching(fx.topology, "ib-send[0.1]");
    FaultSchedule storm =
        makeLinkFlapStorm(targets, 1, 1000.0, 300.0, 20.0);
    ReplayOptions options = fastOptions();
    options.dataMode = true;
    ReplayResult replay =
        replayWorkload(fx.comm, spec, storm, options);
    ASSERT_EQ(replay.ops.size(), 1u);
    EXPECT_TRUE(replay.ops[0].completed)
        << replay.ops[0].failReason;
    EXPECT_GT(replay.ops[0].attempts, 1);
    EXPECT_TRUE(replay.ops[0].rolledBack)
        << "in-place allreduce retries must roll the store back";
}

TEST(Replay, NoPlanSourceThrowsBeforeTheSimStarts)
{
    WorkloadSpec spec = smallSpec(1);
    Topology topology = parseTopology("generic:2:2");
    Communicator comm(topology);
    EXPECT_THROW(replayWorkload(comm, spec, FaultSchedule{},
                                fastOptions()),
                 RuntimeError);
}

// ---------------------------------------------------------------------
// Slo suite: aggregation math and report emission.
// ---------------------------------------------------------------------

namespace {

/** A synthetic 1-stream replay with fixed latencies. */
void
syntheticReplay(const std::vector<double> &latencies,
                const std::vector<bool> &completed, WorkloadSpec &spec,
                ReplayResult &result)
{
    spec = WorkloadSpec{};
    spec.name = "synthetic";
    WorkloadStream stream;
    stream.name = "s";
    for (size_t i = 0; i < latencies.size(); i++) {
        WorkloadOp op;
        op.collective = "allreduce";
        op.bytes = 1000;
        stream.ops.push_back(op);

        OpRecord record;
        record.stream = 0;
        record.op = static_cast<int>(i);
        record.collective = "allreduce";
        record.bytes = 1000;
        record.latencyUs = latencies[i];
        record.doneUs = latencies[i];
        record.completed = completed[i];
        result.ops.push_back(record);
        result.makespanUs =
            std::max(result.makespanUs, record.doneUs);
    }
    spec.streams.push_back(std::move(stream));
}

} // namespace

TEST(Slo, PercentilesUseNearestRank)
{
    WorkloadSpec spec;
    ReplayResult result;
    syntheticReplay({ 10, 20, 30, 40, 50, 60, 70, 80, 90, 100 },
                    std::vector<bool>(10, true), spec, result);
    SloReport report =
        buildSloReport(spec, result, nullptr, ReplayOptions{});
    EXPECT_DOUBLE_EQ(report.fleet.p50Us, 50.0);
    EXPECT_DOUBLE_EQ(report.fleet.p99Us, 100.0);
    EXPECT_DOUBLE_EQ(report.fleet.p999Us, 100.0);
    EXPECT_DOUBLE_EQ(report.fleet.meanUs, 55.0);
    EXPECT_DOUBLE_EQ(report.fleet.availability, 1.0);
}

TEST(Slo, AvailabilityComparesAgainstBaseline)
{
    WorkloadSpec spec;
    ReplayResult baseline;
    syntheticReplay({ 10, 10, 10, 10 }, { true, true, true, true },
                    spec, baseline);
    ReplayResult stormed;
    WorkloadSpec same;
    // 25 <= 3x10 passes; 35 misses; a failed op is always a miss.
    syntheticReplay({ 25, 35, 10, 10 }, { true, true, false, true },
                    same, stormed);
    ReplayOptions options;
    options.sloMultiplier = 3.0;
    SloReport report =
        buildSloReport(spec, stormed, &baseline, options);
    EXPECT_DOUBLE_EQ(report.fleet.availability, 0.5);
    EXPECT_EQ(report.fleet.failed, 1);
    EXPECT_EQ(report.fleet.completed, 3);
}

TEST(Slo, BaselineShapeMismatchThrows)
{
    WorkloadSpec spec;
    ReplayResult result;
    syntheticReplay({ 10 }, { true }, spec, result);
    ReplayResult baseline;
    WorkloadSpec other;
    syntheticReplay({ 10, 20 }, { true, true }, other, baseline);
    EXPECT_THROW(
        buildSloReport(spec, result, &baseline, ReplayOptions{}),
        Error);
}

TEST(Slo, ReportEmissionIsByteStable)
{
    WorkloadSpec spec = smallSpec(2, 128 * 1024);
    std::vector<ResourceId> targets = resourcesMatching(
        parseTopology("generic:2:2"), "ib-send[0.1]");
    FaultSchedule storm =
        makeLinkFlapStorm(targets, 2, 400.0, 250.0, 50.0);
    std::string first;
    for (int round = 0; round < 2; round++) {
        Fixture fx(spec);
        ReplayResult replay =
            replayWorkload(fx.comm, spec, storm, fastOptions());
        SloReport report =
            buildSloReport(spec, replay, nullptr, fastOptions());
        if (round == 0)
            first = report.toJson() + report.toCsv();
        else
            EXPECT_EQ(report.toJson() + report.toCsv(), first);
    }
    // Structure: one CSV row per stream plus fleet plus header.
    Fixture fx(spec);
    ReplayResult replay =
        replayWorkload(fx.comm, spec, storm, fastOptions());
    SloReport report =
        buildSloReport(spec, replay, nullptr, fastOptions());
    std::string csv = report.toCsv();
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
              static_cast<long>(2 + spec.streams.size()));
    EXPECT_NE(report.toJson().find("\"p99_us\""), std::string::npos);
}

TEST(Slo, FingerprintMatchesJsonBytes)
{
    WorkloadSpec spec;
    ReplayResult result;
    syntheticReplay({ 10, 20 }, { true, true }, spec, result);
    SloReport a =
        buildSloReport(spec, result, nullptr, ReplayOptions{});
    SloReport b =
        buildSloReport(spec, result, nullptr, ReplayOptions{});
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.fleet.p50Us += 1.0;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Slo, JsonReportEscapesNames)
{
    // Workload and stream names come from user spec files; a quote or
    // backslash in one must not break the report's JSON.
    WorkloadSpec spec;
    ReplayResult result;
    syntheticReplay({ 10, 20 }, { true, true }, spec, result);
    spec.name = "w\"1\\";
    spec.streams[0].name = "say \"hi\" \\ bye";
    spec = WorkloadSpec::fromJson(spec.toJson());
    EXPECT_EQ(spec.streams[0].name, "say \"hi\" \\ bye");
    SloReport report =
        buildSloReport(spec, result, nullptr, ReplayOptions{});
    JsonValue json = parseJson(report.toJson());
    EXPECT_EQ(json.at("workload").asString(), spec.name);
    ASSERT_EQ(json.at("streams").asArray().size(), 1u);
    EXPECT_EQ(json.at("streams").asArray()[0].at("name").asString(),
              spec.streams[0].name);
}

TEST(Slo, CsvReportQuotesNames)
{
    // RFC 4180: a name holding a comma or a quote is one quoted field
    // with its quotes doubled, so every row keeps the header's 19
    // columns.
    WorkloadSpec spec;
    ReplayResult result;
    syntheticReplay({ 10, 20 }, { true, true }, spec, result);
    spec.name = "mix \"a\"";
    spec.streams[0].name = "decode,prefill";
    SloReport report =
        buildSloReport(spec, result, nullptr, ReplayOptions{});
    std::string csv = report.toCsv();
    std::vector<std::string> rows = splitString(csv, '\n');
    ASSERT_EQ(rows.size(), 4u); // header, fleet, one stream, ""
    EXPECT_EQ(rows[2].rfind("\"mix \"\"a\"\"\",\"decode,prefill\",", 0), 0u)
        << rows[2];
    for (int i = 0; i < 3; i++) {
        // Count the separators outside quotes.
        int fields = 1;
        bool quoted = false;
        for (char c : rows[i]) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                fields++;
        }
        EXPECT_EQ(fields, 19) << rows[i];
    }
}
