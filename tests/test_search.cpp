/**
 * @file
 * Tests for the schedule-space search layer (src/search): label
 * derivation, candidate enumeration, pareto pruning, window
 * installation, the hand-tuned acceptance baseline, determinism
 * across thread counts, and error propagation out of the sweep's
 * worker threads.
 */

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/plan_cache.h"
#include "runtime/communicator.h"
#include "search/search.h"

namespace mscclang {
namespace {

/** The compact knob space most tests sweep: small enough to stay
 *  fast, big enough to contain every hand-tuned pick. */
SearchOptions
compactSpace()
{
    SearchOptions options;
    options.channels = { 1, 4 };
    options.parallelize = { 1 };
    options.instances = { 4, 8 };
    options.protocols = { Protocol::LL, Protocol::LL128 };
    options.aggregates = { 1 };
    options.fromBytes = 64 << 10;
    options.toBytes = 4 << 20;
    return options;
}

TEST(Search, LabelsDeriveFromSpec)
{
    // The exact strings the bench hard-coded before the search
    // existed — now derived, so a label can never lie about the
    // program it names.
    std::vector<ScheduleCandidate> hand = handTunedAllReduceCandidates();
    ASSERT_EQ(hand.size(), 4u);
    EXPECT_EQ(candidateLabel(hand[0]), "Ring ch4 r8 LL128");
    EXPECT_EQ(candidateLabel(hand[1]), "AllPairs r4 LL");
    EXPECT_EQ(candidateLabel(hand[2]), "Tree r4 LL");
    EXPECT_EQ(candidateLabel(hand[3]), "Rabenseifner r4 LL");

    // Non-default knobs show up; channels only for ring families.
    ScheduleCandidate spec;
    spec.family = &algoEntry("ring_allreduce");
    spec.channels = 2;
    spec.parallelize = 2;
    spec.instances = 4;
    spec.protocol = Protocol::Simple;
    spec.aggregate = 2;
    EXPECT_EQ(candidateLabel(spec), "Ring ch2 r4 p2 a2 Simple");
    spec.family = &algoEntry("tree_allreduce");
    spec.aggregate = 1;
    EXPECT_EQ(candidateLabel(spec), "Tree r4 p2 Simple");
}

TEST(Search, LabelMatchesBuiltProgram)
{
    // The built program's own name carries the same knobs the label
    // claims (instances/protocol live in ProgramOptions, the p/a
    // suffixes in the name).
    Topology topo = makeNdv4(1);
    ScheduleCandidate spec;
    spec.family = &algoEntry("ring_allreduce");
    spec.channels = 2;
    spec.parallelize = 2;
    spec.instances = 4;
    spec.protocol = Protocol::LL;
    spec.aggregate = 2;
    std::unique_ptr<Program> program = buildCandidate(spec, topo);
    EXPECT_NE(program->options().name.find("_p2"), std::string::npos);
    EXPECT_NE(program->options().name.find("_a2"), std::string::npos);
    EXPECT_EQ(program->options().instances, 4);
    EXPECT_EQ(program->options().protocol, Protocol::LL);
}

TEST(Search, EnumerationRespectsTopologyAndFamilies)
{
    SearchOptions options = compactSpace();

    // Single node: no hierarchical candidates.
    std::vector<ScheduleCandidate> single =
        enumerateCandidates("allreduce", makeNdv4(1), options);
    EXPECT_TRUE(std::none_of(
        single.begin(), single.end(), [](const ScheduleCandidate &c) {
            return c.family == &algoEntry("hierarchical_allreduce");
        }));
    // Ring: 2 channels x 2 instances x 2 protocols = 8; AllPairs,
    // Tree, Rabenseifner with channels/aggregate pinned: 4 each.
    EXPECT_EQ(single.size(), 8u + 3 * 4u);
    for (const ScheduleCandidate &c : single) {
        if (c.family != &algoEntry("ring_allreduce")) {
            EXPECT_EQ(c.channels, 1);
            EXPECT_EQ(c.aggregate, 1);
        }
    }

    // Two nodes: hierarchical joins.
    std::vector<ScheduleCandidate> multi =
        enumerateCandidates("allreduce", makeNdv4(2), options);
    EXPECT_TRUE(std::any_of(
        multi.begin(), multi.end(), [](const ScheduleCandidate &c) {
            return c.family == &algoEntry("hierarchical_allreduce");
        }));

    // Non-power-of-two ranks: no Rabenseifner.
    std::vector<ScheduleCandidate> npo2 =
        enumerateCandidates("allreduce", makeGeneric(1, 6), options);
    EXPECT_TRUE(std::none_of(
        npo2.begin(), npo2.end(), [](const ScheduleCandidate &c) {
            return c.family == &algoEntry("rabenseifner_allreduce");
        }));

    EXPECT_THROW(
        enumerateCandidates("alltoallv", makeNdv4(1), options), Error);
}

TEST(Search, SubsampleIsSeededAndOrderPreserving)
{
    Topology topo = makeNdv4(1);
    SearchOptions options = compactSpace();
    std::vector<ScheduleCandidate> full =
        enumerateCandidates("allreduce", topo, options);

    options.maxCandidates = 5;
    options.seed = 1234;
    std::vector<ScheduleCandidate> a =
        enumerateCandidates("allreduce", topo, options);
    std::vector<ScheduleCandidate> b =
        enumerateCandidates("allreduce", topo, options);
    ASSERT_EQ(a.size(), 5u);
    EXPECT_EQ(a, b); // same seed, same sample

    // The sample is a subsequence of the full enumeration (sorted
    // back into enumeration order after the shuffle).
    size_t cursor = 0;
    for (const ScheduleCandidate &spec : a) {
        while (cursor < full.size() && !(full[cursor] == spec))
            cursor++;
        ASSERT_LT(cursor, full.size());
        cursor++;
    }

    options.seed = 4321;
    std::vector<ScheduleCandidate> c =
        enumerateCandidates("allreduce", topo, options);
    EXPECT_FALSE(a == c); // different seed, different sample
}

TEST(Search, FrontierIsParetoAndWindowsTile)
{
    Topology topo = makeNdv4(1);
    SearchResult result =
        searchSchedules(topo, "allreduce", compactSpace());

    ASSERT_FALSE(result.frontier.empty());
    ASSERT_EQ(result.frontier.size(), result.frontierIr.size());
    EXPECT_EQ(result.enumerated,
              result.evaluated.size() + result.deduped +
                  result.skipped);

    // No frontier member dominates another; every non-member is
    // dominated by some member.
    auto dominates = [&](const CandidateResult &a,
                         const CandidateResult &b, size_t ia,
                         size_t ib) {
        bool any_less = false;
        for (size_t i = 0; i < result.sizes.size(); i++) {
            if (a.timesUs[i] > b.timesUs[i])
                return false;
            if (a.timesUs[i] < b.timesUs[i])
                any_less = true;
        }
        return any_less || ia < ib;
    };
    for (size_t b = 0; b < result.evaluated.size(); b++) {
        bool on_frontier = result.evaluated[b].onFrontier;
        bool dominated = false;
        for (size_t a : result.frontier) {
            if (a != b &&
                dominates(result.evaluated[a], result.evaluated[b], a,
                          b)) {
                dominated = true;
                break;
            }
        }
        EXPECT_EQ(dominated, !on_frontier) << "candidate " << b;
    }

    // Windows tile [0, uint64 max] contiguously and point at
    // frontier programs.
    ASSERT_FALSE(result.windows.empty());
    EXPECT_EQ(result.windows.front().minBytes, 0u);
    for (size_t i = 1; i < result.windows.size(); i++) {
        EXPECT_EQ(result.windows[i].minBytes,
                  result.windows[i - 1].maxBytes + 1);
    }
    EXPECT_EQ(result.windows.back().maxBytes,
              std::numeric_limits<std::uint64_t>::max());
    for (const TunedWindow &window : result.windows) {
        ASSERT_GE(window.candidate, 0);
        ASSERT_LT(static_cast<size_t>(window.candidate),
                  result.frontierIr.size());
    }
}

TEST(Search, NeverSlowerThanHandTunedPicks)
{
    // The acceptance gate: the searched windows beat (or match) the
    // best hand-tuned candidate at every swept size. Holds by
    // construction because the compact space contains every hand
    // pick — this test is the proof that the plumbing (labels,
    // dedup, pareto, window merge) preserves that containment.
    Topology topo = makeNdv4(1);
    SearchOptions options = compactSpace();
    SearchResult result = searchSchedules(topo, "allreduce", options);

    CompileOptions copts;
    copts.topology = &topo;
    std::vector<IrProgram> hand_irs;
    for (const ScheduleCandidate &spec : handTunedAllReduceCandidates())
        hand_irs.push_back(
            compileProgramCached(*buildCandidate(spec, topo), copts)
                .ir);
    std::vector<const IrProgram *> pointers;
    for (const IrProgram &ir : hand_irs)
        pointers.push_back(&ir);
    TuneOptions topts;
    topts.maxTilesPerChunk = options.maxTilesPerChunk;
    std::vector<std::vector<double>> hand_times =
        sweepCandidateTimesUs(topo, pointers, result.sizes, topts);

    for (size_t i = 0; i < result.sizes.size(); i++) {
        double best_hand = std::numeric_limits<double>::infinity();
        for (const std::vector<double> &row : hand_times)
            best_hand = std::min(best_hand, row[i]);
        const TunedWindow *window = nullptr;
        for (const TunedWindow &w : result.windows) {
            if (result.sizes[i] >= w.minBytes &&
                result.sizes[i] <= w.maxBytes)
                window = &w;
        }
        ASSERT_NE(window, nullptr);
        size_t winner =
            result.frontier[static_cast<size_t>(window->candidate)];
        EXPECT_LE(result.evaluated[winner].timesUs[i], best_hand)
            << "size " << result.sizes[i];
    }
}

TEST(Search, ByteIdenticalAcrossSeedsAndThreadCounts)
{
    Topology topo = makeNdv4(1);
    SearchOptions options = compactSpace();
    options.maxCandidates = 9; // make the seeded subsample bite
    options.seed = 99;

    options.threads = 1;
    SearchResult serial = searchSchedules(topo, "allreduce", options);
    options.threads = 4;
    SearchResult threaded =
        searchSchedules(topo, "allreduce", options);

    EXPECT_EQ(frontierToJson(serial), frontierToJson(threaded));
    EXPECT_EQ(frontierToCsv(serial), frontierToCsv(threaded));
    ASSERT_EQ(serial.windows.size(), threaded.windows.size());
    for (size_t i = 0; i < serial.windows.size(); i++) {
        EXPECT_EQ(serial.windows[i].minBytes,
                  threaded.windows[i].minBytes);
        EXPECT_EQ(serial.windows[i].maxBytes,
                  threaded.windows[i].maxBytes);
        EXPECT_EQ(serial.windows[i].candidate,
                  threaded.windows[i].candidate);
        EXPECT_EQ(serial.windows[i].timeUs,
                  threaded.windows[i].timeUs);
    }
    // Installed windows are identical too: same programs over the
    // same byte ranges, independent of how many threads swept.
    Communicator a(topo);
    Communicator b(topo);
    installTuned(a, serial);
    installTuned(b, threaded);
    for (std::uint64_t bytes : serial.sizes) {
        RunOptions run;
        run.bytes = bytes;
        EXPECT_EQ(a.run("allreduce", run).algorithm,
                  b.run("allreduce", run).algorithm);
    }
}

TEST(Search, InstallTunedDrivesSelection)
{
    Topology topo = makeNdv4(1);
    SearchResult result =
        searchSchedules(topo, "allreduce", compactSpace());
    Communicator comm(topo);
    installTuned(comm, result);

    // Every swept size runs the exact program its window says.
    for (size_t i = 0; i < result.sizes.size(); i++) {
        const TunedWindow *window = nullptr;
        for (const TunedWindow &w : result.windows) {
            if (result.sizes[i] >= w.minBytes &&
                result.sizes[i] <= w.maxBytes)
                window = &w;
        }
        ASSERT_NE(window, nullptr);
        RunOptions run;
        run.bytes = result.sizes[i];
        EXPECT_EQ(
            comm.run("allreduce", run).algorithm,
            result.frontierIr[static_cast<size_t>(window->candidate)]
                .name);
    }
}

TEST(Search, InstallTunedRejectsEmptyFrontier)
{
    Topology topo = makeNdv4(1);
    Communicator comm(topo);
    SearchResult empty;
    empty.collective = "allreduce";
    empty.topologyName = topo.name();
    EXPECT_THROW(installTuned(comm, empty), RuntimeError);
}

TEST(Search, SingleSweepPointYieldsOneWindow)
{
    // Degenerate sweep: from == to gives one measured point and one
    // all-covering window, still installable.
    Topology topo = makeNdv4(1);
    SearchOptions options = compactSpace();
    options.fromBytes = 1 << 20;
    options.toBytes = 1 << 20;
    SearchResult result = searchSchedules(topo, "allreduce", options);
    ASSERT_EQ(result.sizes.size(), 1u);
    ASSERT_EQ(result.windows.size(), 1u);
    EXPECT_EQ(result.windows[0].minBytes, 0u);
    EXPECT_EQ(result.windows[0].maxBytes,
              std::numeric_limits<std::uint64_t>::max());
    Communicator comm(topo);
    installTuned(comm, result);
    RunOptions run;
    run.bytes = 7;
    EXPECT_FALSE(comm.run("allreduce", run).algorithm.empty());
}

TEST(Search, BadSweepRangeThrows)
{
    Topology topo = makeNdv4(1);
    SearchOptions options = compactSpace();
    options.fromBytes = 0;
    EXPECT_THROW(searchSchedules(topo, "allreduce", options),
                 RuntimeError);
    options.fromBytes = 2 << 20;
    options.toBytes = 1 << 20;
    EXPECT_THROW(searchSchedules(topo, "allreduce", options),
                 RuntimeError);
}

TEST(Search, AllGatherSearchWorks)
{
    Topology topo = makeNdv4(1);
    SearchOptions options = compactSpace();
    SearchResult result = searchSchedules(topo, "allgather", options);
    ASSERT_FALSE(result.frontier.empty());
    Communicator comm(topo);
    installTuned(comm, result);
    RunOptions run;
    run.bytes = 1 << 20;
    EXPECT_FALSE(comm.run("allgather", run).algorithm.empty());
}

TEST(Search, ReportsAreWellFormed)
{
    Topology topo = makeNdv4(1);
    SearchOptions options = compactSpace();
    options.fromBytes = 1 << 20;
    options.toBytes = 2 << 20;
    SearchResult result = searchSchedules(topo, "allreduce", options);

    std::string json = frontierToJson(result);
    EXPECT_NE(json.find("\"collective\": \"allreduce\""),
              std::string::npos);
    EXPECT_NE(json.find("\"windows\""), std::string::npos);
    // Balanced braces/brackets (cheap structural sanity).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));

    std::string csv = frontierToCsv(result);
    size_t lines =
        static_cast<size_t>(std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(lines, result.evaluated.size() + 1); // header + rows
}

TEST(Search, ThrowingSweepLeavesLaterSweepsWorking)
{
    // A simulation throwing mid-sweep must surface as an Error on
    // the caller once every worker has stopped, and must leave
    // nothing behind that breaks the next sweep. The mismatched IR
    // (8 ranks on a 4-rank machine) makes every sweep worker throw.
    Topology topo4 = makeGeneric(1, 4);
    Topology topo8 = makeNdv4(1);
    ScheduleCandidate spec;
    spec.family = &algoEntry("ring_allreduce");
    IrProgram wrong =
        compileProgramCached(*buildCandidate(spec, topo8)).ir;
    IrProgram right =
        compileProgramCached(*buildCandidate(spec, topo4)).ir;

    std::vector<std::uint64_t> sizes{ 1 << 20, 2 << 20, 4 << 20,
                                      8 << 20 };
    TuneOptions options;
    options.threads = 4;
    std::vector<const IrProgram *> bad{ &wrong, &wrong };
    EXPECT_THROW(sweepCandidateTimesUs(topo4, bad, sizes, options),
                 Error);

    std::vector<const IrProgram *> good{ &right };
    std::vector<std::vector<double>> times =
        sweepCandidateTimesUs(topo4, good, sizes, options);
    ASSERT_EQ(times.size(), 1u);
    ASSERT_EQ(times[0].size(), sizes.size());
    for (double us : times[0])
        EXPECT_GT(us, 0.0);
}

} // namespace
} // namespace mscclang
