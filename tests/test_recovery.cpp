/**
 * @file
 * Tests for the self-healing runtime: link-health scoring and the
 * quarantine state machine, degraded-topology construction, ring
 * reformation around dead links, the Communicator's replan path
 * (verifier-checked recompilation, replan cache), progress-aware
 * rollback, transient-stall backoff, and the tuner's quarantine
 * retune hook — all bit-deterministic across runs and tuner thread
 * counts.
 */

#include <chrono>
#include <limits>

#include <gtest/gtest.h>

#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "runtime/communicator.h"
#include "runtime/health.h"
#include "runtime/tuner.h"
#include "test_util.h"
#include "workload/workload.h"

namespace mscclang {
namespace {

using testing::fillInputs;

FaultEvent
makeFault(ResourceId resource, FaultKind kind, double at_us,
          double duration_us = 0.0, double factor = 0.5)
{
    FaultEvent event;
    event.resource = resource;
    event.kind = kind;
    event.atUs = at_us;
    event.durationUs = duration_us;
    event.factor = factor;
    return event;
}

/** Resource id by exact name; fails the test when absent. */
ResourceId
resourceNamed(const Topology &topo, const std::string &name)
{
    for (ResourceId id = 0; id < topo.numResources(); id++) {
        if (topo.resourceName(id) == name)
            return id;
    }
    ADD_FAILURE() << "no resource named " << name;
    return -1;
}

TEST(Health, FaultScoresQuarantineAndDecay)
{
    Topology topo = makeGeneric(2, 4);
    LinkHealthMonitor monitor(topo);
    ResourceId nic = resourceNamed(topo, "ib-send[0.3]");

    // A NIC-send fault implicates exactly rank 3's cross-node links.
    std::vector<Link> nic_links = topo.linksUsingResource(nic);
    ASSERT_EQ(nic_links.size(), 4u);
    EXPECT_EQ(nic_links.front(), (Link{ 3, 4 }));
    EXPECT_EQ(nic_links.back(), (Link{ 3, 7 }));

    // A Degrade alone stays below the threshold; LinkDown does not.
    monitor.noteFault(makeFault(nic, FaultKind::Degrade, 1.0));
    EXPECT_EQ(monitor.state(Link{ 3, 4 }), LinkState::Healthy);
    monitor.noteFault(makeFault(nic, FaultKind::LinkDown, 2.0));
    EXPECT_EQ(monitor.state(Link{ 3, 4 }), LinkState::Quarantined);
    EXPECT_EQ(monitor.quarantined(), nic_links);
    // Links on other resources are untouched.
    EXPECT_EQ(monitor.state(Link{ 0, 1 }), LinkState::Healthy);

    // Scores decay exponentially at run starts.
    double before = monitor.score(Link{ 3, 4 });
    monitor.beginRun();
    EXPECT_DOUBLE_EQ(monitor.score(Link{ 3, 4 }),
                     before * monitor.options().decayPerRun);
}

TEST(Health, QuarantineProbesAndHeals)
{
    Topology topo = makeGeneric(1, 4);
    HealthOptions options;
    options.probeAfterRuns = 2;
    LinkHealthMonitor monitor(topo, options);

    Link link{ 0, 1 };
    monitor.noteBlocked({ link });
    monitor.noteBlocked({ link }); // 2 x 0.5 crosses the threshold
    ASSERT_EQ(monitor.state(link), LinkState::Quarantined);

    // Two successful runs elsewhere move it to probing...
    monitor.noteSuccess({});
    EXPECT_EQ(monitor.state(link), LinkState::Quarantined);
    monitor.noteSuccess({});
    EXPECT_EQ(monitor.state(link), LinkState::Probing);
    EXPECT_TRUE(monitor.quarantined().empty());

    // ...and a successful run across it heals it completely.
    monitor.noteSuccess({ link });
    EXPECT_EQ(monitor.state(link), LinkState::Healthy);
    EXPECT_DOUBLE_EQ(monitor.score(link), 0.0);
}

TEST(Health, FailedProbeDoublesTheHold)
{
    Topology topo = makeGeneric(1, 4);
    HealthOptions options;
    options.probeAfterRuns = 1;
    LinkHealthMonitor monitor(topo, options);

    Link link{ 0, 1 };
    monitor.noteBlocked({ link });
    monitor.noteBlocked({ link }); // 2 x 0.5 crosses the threshold
    ASSERT_EQ(monitor.state(link), LinkState::Quarantined);
    monitor.noteSuccess({});
    ASSERT_EQ(monitor.state(link), LinkState::Probing);

    // The probe is implicated again: quarantined for twice as long.
    monitor.noteBlocked({ link });
    EXPECT_EQ(monitor.state(link), LinkState::Quarantined);
    monitor.noteSuccess({});
    EXPECT_EQ(monitor.state(link), LinkState::Quarantined);
    monitor.noteSuccess({});
    EXPECT_EQ(monitor.state(link), LinkState::Probing);
}

TEST(Health, BackoffIsBoundedDeterministicAndResets)
{
    Topology topo = makeGeneric(1, 4);
    LinkHealthMonitor a(topo), b(topo);
    std::vector<double> seq_a, seq_b;
    for (int i = 0; i < 8; i++) {
        seq_a.push_back(a.nextBackoffUs());
        seq_b.push_back(b.nextBackoffUs());
    }
    EXPECT_EQ(seq_a, seq_b); // same seed, bit-identical jitter
    for (double us : seq_a) {
        EXPECT_GT(us, 0.0);
        EXPECT_LE(us, a.options().backoffMaxUs);
    }
    // Exponential growth until the cap.
    EXPECT_GT(seq_a[1], seq_a[0]);
    EXPECT_TRUE(a.transientBudgetSpent());
    a.noteSuccess({});
    EXPECT_EQ(a.backoffsTaken(), 0);
    EXPECT_FALSE(a.transientBudgetSpent());
}

TEST(Recovery, DegradedTopologyDropsExactlyTheExcludedLinks)
{
    Topology topo = makeGeneric(2, 4);
    ResourceId nic = resourceNamed(topo, "ib-send[0.3]");
    Topology degraded = topo.degraded(topo.linksUsingResource(nic));

    for (int dst = 4; dst < 8; dst++) {
        EXPECT_FALSE(degraded.connected(3, dst));
        EXPECT_TRUE(degraded.connected(dst, 3)); // reverse unaffected
    }
    EXPECT_TRUE(degraded.connected(3, 0));
    EXPECT_TRUE(degraded.connected(0, 4));
    EXPECT_EQ(degraded.numResources(), topo.numResources());
    EXPECT_TRUE(degraded.faultSchedule().empty());

    EXPECT_THROW(topo.degraded({ Link{ 0, 99 } }), Error);
}

TEST(Recovery, FindRingOrderRoutesAroundDeadLinks)
{
    Topology topo = makeGeneric(2, 4);
    // The healthy machine is all-to-all: identity order wins.
    std::vector<Rank> healthy = findRingOrder(topo);
    EXPECT_EQ(healthy, (std::vector<Rank>{ 0, 1, 2, 3, 4, 5, 6, 7 }));

    ResourceId nic = resourceNamed(topo, "ib-send[0.3]");
    Topology degraded = topo.degraded(topo.linksUsingResource(nic));
    std::vector<Rank> order = findRingOrder(degraded);
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); i++) {
        Rank from = order[i];
        Rank to = order[(i + 1) % order.size()];
        EXPECT_TRUE(degraded.connected(from, to))
            << linkName(Link{ from, to });
    }

    // Cutting every link out of a rank makes a cycle impossible.
    std::vector<Link> all_out;
    for (int dst = 1; dst < 8; dst++)
        all_out.push_back(Link{ 0, dst });
    EXPECT_TRUE(findRingOrder(topo.degraded(all_out)).empty());
}

TEST(Recovery, FindRingOrderGivesUpQuicklyOnDeadBoundaryNic)
{
    // The NIC of node 0's last GPU dies on a 4-node machine. The
    // backtracking search would explore same-node permutations for
    // hours; its step cap must end it within a second, and an empty
    // order sends the replanner to its fallback.
    Topology topo = parseTopology("generic:4:8");
    std::vector<Link> dead;
    for (const FaultEvent &event : makeNicFailure(topo, 7, 0.0).events) {
        for (Link link : topo.linksUsingResource(event.resource))
            dead.push_back(link);
    }
    Topology degraded = topo.degraded(dead);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<Rank> order = findRingOrder(degraded);
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed.count(), 1.0);
    EXPECT_TRUE(order.empty());

    // The same dead NIC on a 2-node machine still reforms a ring.
    Topology small = parseTopology("generic:2:8");
    std::vector<Link> small_dead;
    for (const FaultEvent &event : makeNicFailure(small, 7, 0.0).events) {
        for (Link link : small.linksUsingResource(event.resource))
            small_dead.push_back(link);
    }
    EXPECT_EQ(findRingOrder(small.degraded(small_dead)).size(), 16u);
}

TEST(Recovery, ReformedRingPrefersSameNodePaths)
{
    // Kill two intra-node links on node 0 of a 2-node machine. A
    // purely lexicographic reformation would hop to node 1 and back
    // to pick up the stranded rank (4 node crossings); the same-node
    // preference must detour locally and cross the NIC boundary only
    // the minimal 2 times.
    Topology topo = makeGeneric(2, 4);
    Topology degraded =
        topo.degraded({ Link{ 1, 2 }, Link{ 3, 2 } });
    std::vector<Rank> order = findRingOrder(degraded);
    ASSERT_EQ(order.size(), 8u);
    int crossings = 0;
    for (size_t i = 0; i < order.size(); i++) {
        Rank from = order[i];
        Rank to = order[(i + 1) % order.size()];
        EXPECT_TRUE(degraded.connected(from, to))
            << linkName(Link{ from, to });
        if (degraded.nodeOf(from) != degraded.nodeOf(to))
            crossings++;
    }
    EXPECT_EQ(crossings, 2);
    EXPECT_EQ(order,
              (std::vector<Rank>{ 0, 1, 3, 4, 5, 6, 7, 2 }));

    // The reformed program over that order still computes allreduce.
    auto prog = makeRingAllReduceOver(order, 1, {});
    EXPECT_EQ(testing::runAndCheck(degraded, *prog, 8 * 1024), "");
}

TEST(Recovery, RingOverBuildersShareThePlainBodies)
{
    // Over the index order, a reformed ring is the plain ring under
    // another name — allgather's aggregate knob included.
    AlgoConfig config;
    config.instances = 2;
    config.aggregate = 2;
    std::vector<Rank> order = { 0, 1, 2, 3, 4, 5 };
    IrProgram plain = compileProgram(*makeRingAllReduce(6, 2, config)).ir;
    IrProgram over =
        compileProgram(*makeRingAllReduceOver(order, 2, config)).ir;
    EXPECT_EQ(over.name, "ring_allreduce_reformed_ch2_a2");
    over.name = plain.name;
    EXPECT_TRUE(over == plain);

    plain = compileProgram(*makeRingAllGather(6, 2, config)).ir;
    over = compileProgram(*makeRingAllGatherOver(order, 2, config)).ir;
    EXPECT_EQ(over.name, "ring_allgather_reformed_a2");
    over.name = plain.name;
    EXPECT_TRUE(over == plain);
}

/**
 * The acceptance scenario: a 2-node generic machine, primary ring in
 * rank order, the NIC carrying rank 3's cross-node sends dies
 * mid-kernel. The run must recover via a verifier-checked recompiled
 * ring over the surviving links — not the registered fallback — with
 * bit-correct buffers.
 */
struct ReplanHarness
{
    Topology topo = makeGeneric(2, 4);
    IrProgram primary;
    IrProgram fallback;

    ReplanHarness()
    {
        primary = compileProgram(*makeRingAllReduce(8, 1, {})).ir;
        primary.name = "ring-primary";
        fallback = compileProgram(*makeRingAllReduce(8, 2, {})).ir;
        fallback.name = "ring-fallback";
    }

    Communicator
    makeComm() const
    {
        Communicator comm(topo);
        IrProgram ir = primary;
        comm.registerAlgorithm(
            std::move(ir), 0,
            std::numeric_limits<std::uint64_t>::max());
        IrProgram fb = fallback;
        comm.registerFallback("allreduce", [fb](std::uint64_t) {
            return fb;
        });
        comm.registerReplanner(
            "allreduce",
            [](const Topology &degraded,
               std::uint64_t) -> std::unique_ptr<Program> {
                std::vector<Rank> order = findRingOrder(degraded);
                if (order.empty())
                    return nullptr;
                return makeRingAllReduceOver(order, 1, {});
            });
        return comm;
    }

    double
    healthyUs() const
    {
        Communicator comm = makeComm();
        RunOptions run;
        run.bytes = 1 << 20;
        return comm.run("allreduce", run).timeUs;
    }
};

TEST(Recovery, LinkDownRecoversViaReplanNotFallback)
{
    ReplanHarness harness;
    std::uint64_t bytes = 1 << 20;
    double healthy_us = harness.healthyUs();
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(resourceNamed(harness.topo, "ib-send[0.3]"),
                    FaultKind::LinkDown, healthy_us * 0.3) } });

    Communicator comm = harness.makeComm();
    std::vector<std::vector<float>> inputs =
        fillInputs(comm, harness.primary, bytes);
    RunOptions run;
    run.bytes = bytes;
    run.dataMode = true;
    run.watchdogNoProgressUs = healthy_us;
    RunResult result = comm.run("allreduce", run);

    EXPECT_EQ(result.attempts, 2);
    EXPECT_TRUE(result.degraded);
    EXPECT_TRUE(result.recoveredViaReplan);
    EXPECT_EQ(result.algorithm, "ring_allreduce_reformed_ch1 (replan)");
    EXPECT_FALSE(result.stats.aborted);
    EXPECT_GE(result.faultsSeen, 1);
    EXPECT_TRUE(result.rolledBack); // in-place allreduce mutates input
    EXPECT_GT(result.totalTimeUs, result.timeUs);
    ASSERT_EQ(result.quarantinedLinks.size(), 4u);
    EXPECT_EQ(result.quarantinedLinks.front(), (Link{ 3, 4 }));
    EXPECT_EQ(comm.replanCompiles(), 1);

    // Bit-correct buffers despite the aborted in-place attempt.
    auto program = makeRingAllReduce(8, 1, {});
    std::vector<std::vector<float>> outputs(8);
    for (int r = 0; r < 8; r++) {
        outputs[r] = comm.store().buffer(r, BufferKind::Output,
                                         harness.primary.inPlace);
    }
    EXPECT_EQ(compareToReference(program->collective(), inputs,
                                 outputs, ReduceOp::Sum),
              "");
}

TEST(Recovery, ReplanCacheHitsOnRepeatedRuns)
{
    ReplanHarness harness;
    std::uint64_t bytes = 1 << 20;
    double healthy_us = harness.healthyUs();
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(resourceNamed(harness.topo, "ib-send[0.3]"),
                    FaultKind::LinkDown, healthy_us * 0.3) } });

    Communicator comm = harness.makeComm();
    RunOptions run;
    run.bytes = bytes;
    run.watchdogNoProgressUs = healthy_us;
    RunResult first = comm.run("allreduce", run);
    EXPECT_EQ(first.attempts, 2);
    EXPECT_TRUE(first.recoveredViaReplan);
    EXPECT_EQ(comm.replanCompiles(), 1);

    // The fault was consumed, but the quarantine persists: the next
    // run skips the primary window and goes straight to the cached
    // repair plan — no second compile, no extra attempts.
    RunResult second = comm.run("allreduce", run);
    EXPECT_EQ(second.attempts, 1);
    EXPECT_TRUE(second.recoveredViaReplan);
    EXPECT_FALSE(second.degraded);
    EXPECT_EQ(second.algorithm,
              "ring_allreduce_reformed_ch1 (replan)");
    EXPECT_EQ(comm.replanCompiles(), 1);
}

TEST(Recovery, PlanChoicesOutliveTheCommunicator)
{
    // A choice holds its program by value, sharing the plan's body:
    // replan and fallback choices stay whole after the communicator
    // that produced them is gone.
    ReplanHarness harness;
    double healthy_us = harness.healthyUs();
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(resourceNamed(harness.topo, "ib-send[0.3]"),
                    FaultKind::LinkDown, healthy_us * 0.3) } });
    RunOptions run;
    run.bytes = 1 << 20;
    run.watchdogNoProgressUs = healthy_us;

    PlanChoice replan;
    PlanChoice fallback;
    std::string replan_xml;
    {
        Communicator comm = harness.makeComm();
        ASSERT_TRUE(comm.run("allreduce", run).recoveredViaReplan);
        replan = comm.selectPlan("allreduce", run.bytes);
        replan_xml = replan.program.toXml();

        Communicator blind(harness.topo);
        IrProgram fb = harness.fallback;
        blind.registerFallback("allreduce", [fb](std::uint64_t) {
            return fb;
        });
        fallback = blind.selectPlan("allreduce", run.bytes);
    }
    EXPECT_EQ(replan.source, PlanSource::Replan);
    EXPECT_EQ(replan.program.name, "ring_allreduce_reformed_ch1");
    EXPECT_EQ(replan.program.toXml(), replan_xml);
    EXPECT_EQ(fallback.source, PlanSource::Fallback);
    EXPECT_EQ(fallback.program.gpus.bodyId(),
              harness.fallback.gpus.bodyId());

    // Both still run to completion on a healthy machine.
    Topology healthy = makeGeneric(2, 4);
    ExecOptions exec;
    exec.bytesPerRank = run.bytes;
    EXPECT_FALSE(runIr(healthy, replan.program, exec).aborted);
    EXPECT_FALSE(runIr(healthy, fallback.program, exec).aborted);
}

TEST(Recovery, RecoveryIsDeterministicAcrossRuns)
{
    ReplanHarness harness;
    double healthy_us = harness.healthyUs();
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(resourceNamed(harness.topo, "ib-send[0.3]"),
                    FaultKind::LinkDown, healthy_us * 0.3) } });
    RunOptions run;
    run.bytes = 1 << 20;
    run.watchdogNoProgressUs = healthy_us;

    Communicator first = harness.makeComm();
    RunResult a = first.run("allreduce", run);
    Communicator second = harness.makeComm();
    RunResult b = second.run("allreduce", run);

    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.faultsSeen, b.faultsSeen);
    EXPECT_DOUBLE_EQ(a.timeUs, b.timeUs);
    EXPECT_DOUBLE_EQ(a.totalTimeUs, b.totalTimeUs);
    EXPECT_DOUBLE_EQ(a.backoffUs, b.backoffUs);
    EXPECT_EQ(a.quarantinedLinks, b.quarantinedLinks);
}

TEST(Recovery, CopyOnlyCollectiveRetriesWithoutRollback)
{
    Topology topo = makeGeneric(1, 4);
    IrProgram primary =
        compileProgram(*makeRingAllGather(4, 1, {})).ir;
    primary.name = "ag-primary";
    ASSERT_FALSE(primary.mutatesInput());
    IrProgram fb = compileProgram(*makeRingAllGather(4, 2, {})).ir;
    fb.name = "ag-fallback";

    std::uint64_t bytes = 1 << 20;
    double healthy_us;
    {
        Communicator comm(topo);
        RunOptions run;
        run.bytes = bytes;
        run.dataMode = true;
        fillInputs(comm, primary, bytes);
        healthy_us = comm.runProgram(primary, run).timeUs;
    }
    topo.setFaultSchedule(FaultSchedule{
        { makeFault(topo.route(0, 1).resources.front(),
                    FaultKind::LinkDown, healthy_us * 0.3) } });

    Communicator comm(topo);
    comm.registerAlgorithm(IrProgram(primary), 0,
                           std::numeric_limits<std::uint64_t>::max());
    comm.registerFallback("allgather",
                          [fb](std::uint64_t) { return fb; });
    std::vector<std::vector<float>> inputs =
        fillInputs(comm, primary, bytes);
    RunOptions run;
    run.bytes = bytes;
    run.dataMode = true;
    run.watchdogNoProgressUs = healthy_us;
    RunResult result = comm.run("allgather", run);

    // Progress-aware recovery: no snapshot, no rollback — the
    // copy-only retry just re-executes over the intact inputs.
    EXPECT_EQ(result.attempts, 2);
    EXPECT_FALSE(result.rolledBack);
    EXPECT_EQ(result.algorithm, "ag-fallback (fallback)");

    auto program = makeRingAllGather(4, 1, {});
    std::vector<std::vector<float>> outputs(4);
    for (int r = 0; r < 4; r++) {
        outputs[r] = comm.store().buffer(r, BufferKind::Output,
                                         primary.inPlace);
    }
    EXPECT_EQ(compareToReference(program->collective(), inputs,
                                 outputs, ReduceOp::Sum),
              "");
}

TEST(Recovery, TransientStallBacksOffAndKeepsThePlan)
{
    Topology topo = makeGeneric(1, 4);
    IrProgram primary = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    primary.name = "ring-primary";
    IrProgram fb = compileProgram(*makeRingAllReduce(4, 2, {})).ir;
    fb.name = "ring-fallback";

    std::uint64_t bytes = 1 << 20;
    double healthy_us;
    {
        Communicator comm(topo);
        RunOptions run;
        run.bytes = bytes;
        healthy_us = comm.runProgram(primary, run).timeUs;
    }
    // A long stall wedges the kernel past the no-progress watchdog,
    // but a stall is transient evidence: scores stay below the
    // threshold, so the retry backs off and keeps the same plan.
    topo.setFaultSchedule(FaultSchedule{
        { makeFault(topo.route(0, 1).resources.front(),
                    FaultKind::Stall, healthy_us * 0.3,
                    healthy_us * 50.0) } });

    Communicator comm(topo);
    comm.registerAlgorithm(IrProgram(primary), 0,
                           std::numeric_limits<std::uint64_t>::max());
    comm.registerFallback("allreduce",
                          [fb](std::uint64_t) { return fb; });
    RunOptions run;
    run.bytes = bytes;
    run.watchdogNoProgressUs = healthy_us * 0.5;
    RunResult result = comm.run("allreduce", run);

    EXPECT_EQ(result.attempts, 2);
    EXPECT_EQ(result.algorithm, "ring-primary"); // no fallback suffix
    EXPECT_FALSE(result.recoveredViaReplan);
    EXPECT_GT(result.backoffUs, 0.0);
    EXPECT_GE(result.totalTimeUs, result.timeUs + result.backoffUs);
    EXPECT_TRUE(result.quarantinedLinks.empty());
}

TEST(Recovery, RetunedWindowAvoidingQuarantineWinsOverReplan)
{
    Topology topo = makeGeneric(2, 4);
    // Candidate A: the identity ring (crosses 3->4). Candidate B: a
    // ring whose node crossings avoid rank 3's NIC entirely.
    IrProgram cand_a = compileProgram(*makeRingAllReduce(8, 1, {})).ir;
    cand_a.name = "ring-identity";
    IrProgram cand_b =
        compileProgram(*makeRingAllReduceOver(
                           { 0, 1, 2, 4, 5, 6, 7, 3 }, 1, {}))
            .ir;
    cand_b.name = "ring-detour";

    std::uint64_t bytes = 1 << 20;
    double healthy_us;
    {
        Communicator comm(topo);
        RunOptions run;
        run.bytes = bytes;
        healthy_us = comm.runProgram(cand_a, run).timeUs;
    }

    // Tune on the healthy machine (the realistic order: windows are
    // built before anything fails), then arm the fault.
    std::vector<IrProgram> candidates{ cand_a, cand_b };
    TuneOptions tune;
    tune.fromBytes = bytes;
    tune.toBytes = bytes;
    tune.threads = 1;
    std::vector<TunedWindow> windows =
        tuneWindows(topo, candidates, tune);
    topo.setFaultSchedule(FaultSchedule{
        { makeFault(resourceNamed(topo, "ib-send[0.3]"),
                    FaultKind::LinkDown, healthy_us * 0.3) } });

    auto make_comm = [&](int threads) {
        auto comm = std::make_unique<Communicator>(topo);
        TuneOptions retune = tune;
        retune.threads = threads; // the hook re-tunes with these
        registerTuned(*comm, candidates, windows, retune);
        IrProgram fb = cand_a;
        fb.name = "ring-fallback";
        comm->registerFallback("allreduce",
                               [fb](std::uint64_t) { return fb; });
        return comm;
    };

    RunOptions run;
    run.bytes = bytes;
    run.watchdogNoProgressUs = healthy_us;

    auto comm = make_comm(1);
    RunResult result = comm->run("allreduce", run);
    // The retune hook dropped the dead windows and re-tuned the
    // surviving candidate on the degraded machine: recovery lands on
    // a first-class window, not the replan path or the fallback.
    EXPECT_EQ(result.attempts, 2);
    EXPECT_EQ(result.algorithm, "ring-detour");
    EXPECT_FALSE(result.recoveredViaReplan);
    EXPECT_EQ(comm->replanCompiles(), 0);

    // And the whole recovery is invariant to tuner thread counts.
    auto comm4 = make_comm(4);
    RunResult threaded = comm4->run("allreduce", run);
    EXPECT_EQ(threaded.algorithm, result.algorithm);
    EXPECT_EQ(threaded.attempts, result.attempts);
    EXPECT_DOUBLE_EQ(threaded.timeUs, result.timeUs);
    EXPECT_DOUBLE_EQ(threaded.totalTimeUs, result.totalTimeUs);
}

TEST(Recovery, ReplanFailureFallsBackBlind)
{
    // Cut every link out of rank 0: no Hamiltonian cycle survives,
    // so the replanner returns null and recovery degrades to the
    // registered fallback.
    Topology topo = makeGeneric(1, 4);
    IrProgram primary = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    primary.name = "ring-primary";
    IrProgram fb = compileProgram(*makeRingAllReduce(4, 2, {})).ir;
    fb.name = "ring-fallback";

    std::uint64_t bytes = 1 << 20;
    double healthy_us;
    {
        Communicator comm(topo);
        RunOptions run;
        run.bytes = bytes;
        healthy_us = comm.runProgram(primary, run).timeUs;
    }
    // nvlink-out[0] carries every link out of rank 0.
    topo.setFaultSchedule(FaultSchedule{
        { makeFault(resourceNamed(topo, "nvlink-out[0]"),
                    FaultKind::LinkDown, healthy_us * 0.3) } });

    Communicator comm(topo);
    comm.registerAlgorithm(IrProgram(primary), 0,
                           std::numeric_limits<std::uint64_t>::max());
    comm.registerFallback("allreduce",
                          [fb](std::uint64_t) { return fb; });
    comm.registerReplanner(
        "allreduce",
        [](const Topology &degraded,
           std::uint64_t) -> std::unique_ptr<Program> {
            std::vector<Rank> order = findRingOrder(degraded);
            if (order.empty())
                return nullptr;
            return makeRingAllReduceOver(order, 1, {});
        });
    RunOptions run;
    run.bytes = bytes;
    run.watchdogNoProgressUs = healthy_us;
    RunResult result = comm.run("allreduce", run);

    EXPECT_EQ(result.attempts, 2);
    EXPECT_EQ(result.algorithm, "ring-fallback (fallback)");
    EXPECT_FALSE(result.recoveredViaReplan);
    EXPECT_EQ(comm.replanCompiles(), 0);
}

TEST(Recovery, ReformedRingVerifiesAndRunsCorrectly)
{
    // The reformed ring is a first-class program: it compiles with
    // the verifier against the degraded machine and produces
    // oracle-correct buffers on the full one.
    Topology topo = makeGeneric(2, 4);
    ResourceId nic = resourceNamed(topo, "ib-send[0.3]");
    Topology degraded = topo.degraded(topo.linksUsingResource(nic));
    std::vector<Rank> order = findRingOrder(degraded);
    ASSERT_FALSE(order.empty());

    CompileOptions copts;
    copts.topology = &degraded;
    EXPECT_EQ(testing::runAndCheck(topo,
                                   *makeRingAllReduceOver(order, 1, {}),
                                   1 << 18, copts),
              "");
    EXPECT_EQ(testing::runAndCheck(topo,
                                   *makeRingAllGatherOver(order, 1, {}),
                                   1 << 18, copts),
              "");
    // The identity ring does NOT verify against the degraded
    // machine: its 3->4 edge is gone.
    EXPECT_THROW(compileProgram(*makeRingAllReduce(8, 1, {}), copts),
                 Error);
}

/** noteSuccess({}) runs until @p link leaves Quarantined. */
int
runsUntilProbing(LinkHealthMonitor &monitor, Link link)
{
    for (int runs = 1; runs <= 64; runs++) {
        monitor.noteSuccess({});
        if (monitor.state(link) == LinkState::Probing)
            return runs;
    }
    return -1;
}

TEST(Health, ProbeHoldDoublingIsBoundedUnderStorms)
{
    // A link that keeps failing its probe doubles its quarantine
    // hold each round trip, but never past maxProbeHold — a storm
    // cannot push a link into an unbounded exile.
    Topology topo = makeGeneric(1, 4);
    HealthOptions options;
    options.probeAfterRuns = 1;
    options.maxProbeHold = 4;
    LinkHealthMonitor monitor(topo, options);

    Link link{ 0, 1 };
    monitor.noteBlocked({ link });
    monitor.noteBlocked({ link });
    ASSERT_EQ(monitor.state(link), LinkState::Quarantined);

    std::vector<int> holds;
    for (int round = 0; round < 5; round++) {
        holds.push_back(runsUntilProbing(monitor, link));
        monitor.noteBlocked({ link }); // probe fails, hold doubles
        ASSERT_EQ(monitor.state(link), LinkState::Quarantined);
    }
    EXPECT_EQ(holds, (std::vector<int>{ 1, 2, 4, 4, 4 }));
}

TEST(Health, StormRoundTripsAreDeterministicForFixedSeed)
{
    // Two monitors fed the identical storm transcript walk the
    // identical Quarantined -> Probing -> Healthy trajectory and
    // draw bit-identical backoff jitter; a third monitor with a
    // different seed diverges in jitter only.
    Topology topo = makeGeneric(2, 4);
    ResourceId nic = resourceNamed(topo, "ib-send[0.3]");
    Link cross{ 3, 4 };

    HealthOptions seeded;
    seeded.seed = 0xfeedULL;
    HealthOptions other = seeded;
    other.seed = 0xbeefULL;
    LinkHealthMonitor a(topo, seeded), b(topo, seeded);
    LinkHealthMonitor c(topo, other);

    auto drive = [&](LinkHealthMonitor &m) {
        std::vector<double> trace;
        m.beginRun();
        m.noteFault(makeFault(nic, FaultKind::LinkDown, 1.0));
        trace.push_back(static_cast<double>(m.state(cross)));
        trace.push_back(m.nextBackoffUs());
        trace.push_back(m.nextBackoffUs());
        // Heal: hold expires, then a clean probe run crosses it.
        m.noteSuccess({});
        m.noteSuccess({});
        trace.push_back(static_cast<double>(m.state(cross)));
        m.noteSuccess({ cross });
        trace.push_back(static_cast<double>(m.state(cross)));
        trace.push_back(m.score(cross));
        // Second round trip of the storm.
        m.noteFault(makeFault(nic, FaultKind::LinkDown, 2.0));
        trace.push_back(static_cast<double>(m.state(cross)));
        trace.push_back(m.nextBackoffUs());
        return trace;
    };

    std::vector<double> trace_a = drive(a);
    std::vector<double> trace_b = drive(b);
    std::vector<double> trace_c = drive(c);
    EXPECT_EQ(trace_a, trace_b);
    EXPECT_NE(trace_a, trace_c) << "jitter must depend on the seed";
    // The states (every non-backoff entry) agree across seeds.
    EXPECT_EQ(trace_a[0], trace_c[0]);
    EXPECT_EQ(trace_a[3], trace_c[3]);
    EXPECT_EQ(trace_a[4], trace_c[4]);
    EXPECT_EQ(trace_a[6], trace_c[6]);
    // Full round trip actually happened.
    EXPECT_EQ(trace_a[0],
              static_cast<double>(LinkState::Quarantined));
    EXPECT_EQ(trace_a[3], static_cast<double>(LinkState::Probing));
    EXPECT_EQ(trace_a[4], static_cast<double>(LinkState::Healthy));
    EXPECT_EQ(trace_a[6],
              static_cast<double>(LinkState::Quarantined));
}

TEST(Health, InterleavedStreamFeedsStayConsistent)
{
    // The replay engine feeds one shared monitor from several
    // concurrent streams. Duplicate implications of the same NIC
    // must pile onto the same entries — no duplicate quarantine
    // rows, no bleed into unrelated links.
    Topology topo = makeGeneric(2, 4);
    LinkHealthMonitor monitor(topo);
    ResourceId nic = resourceNamed(topo, "ib-send[0.3]");
    std::vector<Link> nic_links = topo.linksUsingResource(nic);

    // Stream A sees the LinkDown; stream B reports the same links
    // blocked; stream A reports them blocked again.
    monitor.noteFault(makeFault(nic, FaultKind::LinkDown, 1.0));
    monitor.noteBlocked(nic_links);
    monitor.noteBlocked(nic_links);
    EXPECT_EQ(monitor.quarantined(), nic_links)
        << "each link exactly once, in canonical order";
    EXPECT_EQ(monitor.state(Link{ 0, 1 }), LinkState::Healthy);

    // A clean run on stream B over healthy links does not release
    // the quarantine early.
    monitor.noteSuccess({ Link{ 0, 1 }, Link{ 1, 2 } });
    EXPECT_EQ(monitor.quarantined(), nic_links);
    EXPECT_DOUBLE_EQ(monitor.score(Link{ 0, 1 }), 0.0);
}

TEST(Recovery, SaturatingAccountingClampsBudgets)
{
    EXPECT_DOUBLE_EQ(saturatingAddUs(1.5, 2.5), 4.0);
    EXPECT_DOUBLE_EQ(saturatingAddUs(kMaxAccountedUs, 1.0),
                     kMaxAccountedUs);
    EXPECT_DOUBLE_EQ(saturatingAddUs(kMaxAccountedUs / 2,
                                     kMaxAccountedUs),
                     kMaxAccountedUs);
    // NaN contributions are dropped, not propagated.
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DOUBLE_EQ(saturatingAddUs(3.0, nan), 3.0);
    EXPECT_DOUBLE_EQ(saturatingAddUs(nan, nan), 0.0);
    // Negative contributions are dropped per-operand: accounted
    // time never goes down, let alone negative.
    EXPECT_DOUBLE_EQ(saturatingAddUs(2.0, -5.0), 2.0);
    EXPECT_DOUBLE_EQ(saturatingAddUs(-3.0, -5.0), 0.0);

    EXPECT_EQ(saturatingIncrement(0), 1);
    EXPECT_EQ(saturatingIncrement(std::numeric_limits<int>::max()),
              std::numeric_limits<int>::max());
}

TEST(Recovery, RetryBudgetExhaustionAbortsWithDistinctReason)
{
    // With the budget already spent, exhaustion outranks recovery:
    // even a registered fallback is not consulted, and the error
    // names the budget — not a missing plan. (The replay suite
    // covers the genuine multi-attempt exhaustion path.)
    Topology topo = makeGeneric(1, 4);
    IrProgram primary = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    primary.name = "ring-primary";
    IrProgram fb = compileProgram(*makeRingAllReduce(4, 2, {})).ir;
    fb.name = "ring-fallback";

    std::uint64_t bytes = 1 << 20;
    double healthy_us;
    {
        Communicator comm(topo);
        RunOptions run;
        run.bytes = bytes;
        healthy_us = comm.runProgram(primary, run).timeUs;
    }
    ResourceId out = resourceNamed(topo, "nvlink-out[0]");
    topo.setFaultSchedule(FaultSchedule{
        { makeFault(out, FaultKind::LinkDown, healthy_us * 0.3) } });

    Communicator comm(topo);
    comm.registerAlgorithm(IrProgram(primary), 0,
                           std::numeric_limits<std::uint64_t>::max());
    comm.registerFallback("allreduce",
                          [fb](std::uint64_t) { return fb; });
    RunOptions run;
    run.bytes = bytes;
    run.watchdogNoProgressUs = healthy_us;
    run.maxAttempts = 1;
    try {
        comm.run("allreduce", run);
        FAIL() << "the only attempt hit a dead link; run must throw";
    } catch (const RuntimeError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("retry budget exhausted"),
                  std::string::npos)
            << error.what();
    }
}

} // namespace
} // namespace mscclang
