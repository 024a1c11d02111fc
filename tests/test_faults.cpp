/**
 * @file
 * Tests for the fault-injection and graceful-degradation subsystem:
 * fault schedules on the topology, the flow network's capacity
 * mutations, the interpreter watchdog's clean aborts, and the
 * Communicator's retry-with-fallback policy — plus the FIFO slot
 * contract shared by the verifier and the runtime.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/verifier.h"
#include "runtime/communicator.h"
#include "runtime/protocol.h"
#include "runtime/tuner.h"
#include "test_util.h"

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

/** A resource the 4-rank generic ring actually crosses. */
ResourceId
ringResource(const Topology &topo)
{
    const Route &route = topo.route(0, 1);
    EXPECT_FALSE(route.resources.empty());
    return route.resources.front();
}

TEST(Faults, ScheduleValidation)
{
    Topology topo = makeGeneric(1, 4);
    // Unknown resource.
    EXPECT_THROW(topo.setFaultSchedule(FaultSchedule{
                     { makeFault(topo.numResources(),
                                 FaultKind::LinkDown, 1.0) } }),
                 Error);
    EXPECT_THROW(topo.setFaultSchedule(FaultSchedule{
                     { makeFault(-1, FaultKind::LinkDown, 1.0) } }),
                 Error);
    // Negative activation time.
    EXPECT_THROW(topo.setFaultSchedule(FaultSchedule{
                     { makeFault(0, FaultKind::Stall, -1.0) } }),
                 Error);
    // Degrade factor must stay in (0, 1].
    EXPECT_THROW(topo.setFaultSchedule(FaultSchedule{
                     { makeFault(0, FaultKind::Degrade, 1.0, 0.0,
                                 0.0) } }),
                 Error);
    EXPECT_THROW(topo.setFaultSchedule(FaultSchedule{
                     { makeFault(0, FaultKind::Degrade, 1.0, 0.0,
                                 1.5) } }),
                 Error);
    // A well-formed schedule sticks.
    topo.setFaultSchedule(FaultSchedule{
        { makeFault(0, FaultKind::Degrade, 1.0, 5.0, 0.5) } });
    EXPECT_EQ(topo.faultSchedule().events.size(), 1u);
}

TEST(Faults, DegradeSlowsDownAndIsDeterministic)
{
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    ExecOptions exec;
    exec.bytesPerRank = 1 << 20;

    Topology healthy = makeGeneric(1, 4);
    double healthy_us = runIr(healthy, ir, exec).durationUs();

    // Degrade far enough that the link (300 GB/s) drops below the
    // per-thread-block rate cap — otherwise the fault is absorbed.
    Topology faulted = makeGeneric(1, 4);
    faulted.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(faulted), FaultKind::Degrade,
                    healthy_us * 0.2, 0.0, 0.02) } });
    ExecStats first = runIr(faulted, ir, exec);
    ExecStats second = runIr(faulted, ir, exec);

    EXPECT_FALSE(first.aborted);
    EXPECT_EQ(first.faultsSeen, 1);
    EXPECT_EQ(first.firedFaults, std::vector<int>{ 0 });
    EXPECT_GT(first.durationUs(), healthy_us);
    // Replay is bit-deterministic: integer-ns event times, same
    // schedule, same program.
    EXPECT_EQ(first.endNs - first.startNs, second.endNs - second.startNs);
    EXPECT_EQ(first.firedFaults, second.firedFaults);
}

TEST(Faults, StallDelaysButCompletes)
{
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    ExecOptions exec;
    exec.bytesPerRank = 1 << 20;

    Topology healthy = makeGeneric(1, 4);
    double healthy_us = runIr(healthy, ir, exec).durationUs();

    double stall_us = healthy_us * 0.5;
    Topology faulted = makeGeneric(1, 4);
    faulted.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(faulted), FaultKind::Stall,
                    healthy_us * 0.2, stall_us) } });
    ExecStats stats = runIr(faulted, ir, exec);

    EXPECT_FALSE(stats.aborted);
    EXPECT_EQ(stats.faultsSeen, 1);
    // The run pays at least part of the stall but recovers: it lands
    // strictly between healthy and healthy + 2 * stall.
    EXPECT_GT(stats.durationUs(), healthy_us);
    EXPECT_LT(stats.durationUs(), healthy_us + 2.0 * stall_us);
}

TEST(Faults, LinkDownWedgesWithoutWatchdog)
{
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    Topology faulted = makeGeneric(1, 4);
    faulted.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(faulted), FaultKind::LinkDown,
                    10.0) } });
    ExecOptions exec;
    exec.bytesPerRank = 1 << 20;
    // Flows on the dead link freeze at rate 0 (not the starvation
    // error); the event queue drains with the kernel unfinished and
    // runIr diagnoses the wedge with the blocked-set report.
    try {
        runIr(faulted, ir, exec);
        FAIL() << "expected a wedge diagnosis";
    } catch (const RuntimeError &error) {
        EXPECT_NE(std::string(error.what()).find("wedged"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("blocked at step"),
                  std::string::npos);
    }
}

TEST(Faults, TunerDeterministicAcrossThreads)
{
    Topology topo = makeGeneric(1, 4);
    topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(topo), FaultKind::Degrade, 50.0,
                    0.0, 0.25) } });
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    std::vector<IrProgram> candidates;
    candidates.push_back(compileProgram(*makeAllPairsAllReduce(4, ll)).ir);
    candidates.push_back(compileProgram(*makeRingAllReduce(4, 1, {})).ir);

    TuneOptions serial;
    serial.fromBytes = 1 << 10;
    serial.toBytes = 4 << 20;
    serial.threads = 1;
    TuneOptions wide = serial;
    wide.threads = 4;

    std::vector<TunedWindow> a = tuneWindows(topo, candidates, serial);
    std::vector<TunedWindow> b = tuneWindows(topo, candidates, wide);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].minBytes, b[i].minBytes);
        EXPECT_EQ(a[i].maxBytes, b[i].maxBytes);
        EXPECT_EQ(a[i].candidate, b[i].candidate);
        EXPECT_DOUBLE_EQ(a[i].timeUs, b[i].timeUs);
    }
}

TEST(Faults, SlotContractSingleSourceOfTruth)
{
    // The verifier's deadlock model and the interpreter's ring
    // inboxes must agree on the FIFO depth; both derive from
    // kFifoSlotsPerConnection.
    for (Protocol proto : { Protocol::Simple, Protocol::LL,
                            Protocol::LL128, Protocol::Direct }) {
        EXPECT_EQ(protocolParams(proto).slots, kFifoSlotsPerConnection)
            << protocolName(proto);
    }
    // VerifyOptions defaults to "the runtime's depth" (sentinel 0).
    EXPECT_EQ(VerifyOptions{}.slots, 0);
    // And the sentinel resolves: compileProgram verifies with the
    // default options, so this would throw if 0 were rejected.
    compileProgram(*makeRingAllReduce(4, 1, {}));
}

TEST(Watchdog, AbortsWedgedRunCleanly)
{
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    Topology faulted = makeGeneric(1, 4);
    FaultSchedule schedule{
        { makeFault(ringResource(faulted), FaultKind::LinkDown, 10.0) }
    };
    faulted.setFaultSchedule(schedule);

    EventQueue events;
    FlowNetwork network(faulted, events);
    network.injectFaults(schedule);
    ExecOptions exec;
    exec.bytesPerRank = 1 << 20;
    exec.watchdogNoProgressUs = 100.0;
    IrExecution run(faulted, ir, events, network, exec, nullptr);
    ExecStats stats;
    bool completed = false;
    run.start([&](const ExecStats &s) {
        stats = s;
        completed = true;
    });
    events.run();

    ASSERT_TRUE(completed);
    EXPECT_TRUE(stats.aborted);
    EXPECT_NE(stats.abortReason.find("no progress"), std::string::npos);
    EXPECT_NE(stats.abortReason.find("blocked at step"),
              std::string::npos);
    EXPECT_NE(stats.abortReason.find("waiting for"), std::string::npos);
    EXPECT_EQ(stats.faultsSeen, 1);
    // The abort drained cleanly: no live events remain and the heap
    // holds no leaked entries (the pooled arena is peak-bounded by
    // construction; a leak would show up as live events here).
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(events.heapEntries(), 0u);
    EXPECT_GT(events.poolSlots(), 0u);
}

TEST(Watchdog, ParallelInterpAbortMatchesSerial)
{
    // The watchdog abort of a rank-batched run is clean: it reports
    // the wedge (abort reason in the blocked-set format, implicated
    // links, fired faults), and pending rank-batch actions staged
    // before the abort drain (freeing their pooled sends) rather
    // than leak.
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    Topology faulted = makeGeneric(1, 4);
    FaultSchedule schedule{
        { makeFault(ringResource(faulted), FaultKind::LinkDown, 10.0) }
    };
    faulted.setFaultSchedule(schedule);
    EventQueue events;
    FlowNetwork network(faulted, events);
    network.injectFaults(schedule);
    ExecOptions exec;
    exec.bytesPerRank = 1 << 20;
    exec.watchdogNoProgressUs = 100.0;
    IrExecution run(faulted, ir, events, network, exec, nullptr);
    ExecStats stats;
    bool completed = false;
    run.start([&](const ExecStats &s) {
        stats = s;
        completed = true;
    });
    events.run();

    ASSERT_TRUE(completed);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(events.heapEntries(), 0u);
    EXPECT_GT(events.poolSlots(), 0u);
    ASSERT_TRUE(stats.aborted);
    EXPECT_NE(stats.abortReason.find("no progress"), std::string::npos);
    EXPECT_NE(stats.abortReason.find("blocked at step"),
              std::string::npos);
    EXPECT_FALSE(stats.blockedLinks.empty());
    EXPECT_EQ(stats.firedFaults, std::vector<int>{ 0 });
    EXPECT_EQ(stats.faultsSeen, 1);
}

TEST(Watchdog, AbsoluteTimeoutFires)
{
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    Topology topo = makeGeneric(1, 4);
    ExecOptions exec;
    exec.bytesPerRank = 4 << 20;
    exec.watchdogTimeoutUs = 5.0; // far below any real completion
    ExecStats stats = runIr(topo, ir, exec);
    EXPECT_TRUE(stats.aborted);
    EXPECT_NE(stats.abortReason.find("exceeded"), std::string::npos);
    // Aborted at (launch + timeout), not at natural completion.
    EXPECT_LT(stats.durationUs(), 100.0);
}

TEST(Watchdog, TraceFlushedOnAbort)
{
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    Topology faulted = makeGeneric(1, 4);
    faulted.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(faulted), FaultKind::LinkDown,
                    10.0) } });
    std::string path = testing::tempPath("abort_trace.json");
    ExecOptions exec;
    exec.bytesPerRank = 1 << 20;
    exec.watchdogNoProgressUs = 100.0;
    exec.traceFile = path;
    ExecStats stats = runIr(faulted, ir, exec);
    EXPECT_TRUE(stats.aborted);

    std::ifstream file(path);
    ASSERT_TRUE(file.good());
    std::ostringstream text;
    text << file.rdbuf();
    std::string json = text.str();
    // Well-formed despite the abort: a complete JSON array.
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    size_t last = json.find_last_not_of(" \n");
    ASSERT_NE(last, std::string::npos);
    EXPECT_EQ(json[last], ']');
    // The executed prefix made it into the timeline.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(Watchdog, AbortWithPendingLaunchesDrains)
{
    // The absolute timeout fires before the first send's issue time
    // is over, so every send the kickoff issued still waits in a
    // queued Launch action. The abort must drop those actions with
    // their pooled sends and cancel the execution's pending event:
    // nothing is left in the queue and no flow ever reaches the wire.
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    Topology topo = makeGeneric(1, 4);
    EventQueue events;
    FlowNetwork network(topo, events);
    ExecOptions exec;
    exec.bytesPerRank = 1 << 20;
    exec.watchdogTimeoutUs = topo.params().instrOverheadUs / 2;
    IrExecution run(topo, ir, events, network, exec, nullptr);
    ExecStats stats;
    bool completed = false;
    run.start([&](const ExecStats &s) {
        stats = s;
        completed = true;
    });
    events.run();

    ASSERT_TRUE(completed);
    EXPECT_TRUE(stats.aborted);
    EXPECT_NE(stats.abortReason.find("exceeded"), std::string::npos);
    EXPECT_EQ(stats.endNs, usToNs(exec.watchdogTimeoutUs));
    EXPECT_GT(stats.messages, 0u); // sends were issued, not launched
    EXPECT_EQ(network.activeFlows(), 0);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(events.heapEntries(), 0u);
}

TEST(Watchdog, CleanRunUnaffected)
{
    IrProgram ir = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    Topology topo = makeGeneric(1, 4);
    ExecOptions plain;
    plain.bytesPerRank = 1 << 20;
    ExecOptions guarded = plain;
    guarded.watchdogTimeoutUs = 1e7;
    guarded.watchdogNoProgressUs = 1e6;
    ExecStats a = runIr(topo, ir, plain);
    ExecStats b = runIr(topo, ir, guarded);
    EXPECT_FALSE(b.aborted);
    // An armed-but-silent watchdog must not perturb the simulated
    // timeline at all.
    EXPECT_EQ(a.endNs - a.startNs, b.endNs - b.startNs);
}

/** Registers ring as the primary and a Simple ring as fallback. */
struct ChaosHarness
{
    Topology topo = makeGeneric(1, 4);
    IrProgram primary;
    IrProgram fallback;

    ChaosHarness()
    {
        AlgoConfig ll;
        ll.protocol = Protocol::LL;
        ll.instances = 2;
        primary = compileProgram(*makeRingAllReduce(4, 2, ll)).ir;
        primary.name = "ring-primary";
        AlgoConfig simple;
        simple.protocol = Protocol::Simple;
        fallback = compileProgram(*makeRingAllReduce(4, 1, simple)).ir;
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
        return comm;
    }
};

TEST(CommunicatorFaults, RetriesOnFallbackAfterLinkDown)
{
    ChaosHarness harness;
    // Anchor the link-down mid-kernel: measure the healthy latency
    // first, then kill the ring link at 30% of it.
    std::uint64_t bytes = 1 << 20;
    double healthy_us;
    {
        Communicator comm = harness.makeComm();
        RunOptions run;
        run.bytes = bytes;
        healthy_us = comm.run("allreduce", run).timeUs;
    }
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(harness.topo), FaultKind::LinkDown,
                    healthy_us * 0.3) } });

    Communicator comm = harness.makeComm();
    std::vector<std::vector<float>> inputs =
        fillInputs(comm, harness.primary, bytes);
    RunOptions run;
    run.bytes = bytes;
    run.dataMode = true;
    run.watchdogNoProgressUs = healthy_us; // generous, still fires
    RunResult result = comm.run("allreduce", run);

    // The degradation record: aborted primary, fallback finished.
    EXPECT_EQ(result.attempts, 2);
    EXPECT_TRUE(result.degraded);
    EXPECT_GE(result.faultsSeen, 1);
    EXPECT_EQ(result.algorithm, "ring-fallback (fallback)");
    EXPECT_TRUE(result.stats.aborted == false);

    // Despite the aborted in-place attempt, the store was rolled
    // back and the fallback produced oracle-correct buffers.
    auto program = makeRingAllReduce(4, 1, {});
    std::vector<std::vector<float>> outputs(4);
    for (int r = 0; r < 4; r++) {
        outputs[r] = comm.store().buffer(r, BufferKind::Output,
                                         harness.fallback.inPlace);
    }
    EXPECT_EQ(compareToReference(program->collective(), inputs,
                                 outputs, ReduceOp::Sum),
              "");
}

TEST(CommunicatorFaults, RetryIsDeterministic)
{
    ChaosHarness harness;
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(harness.topo), FaultKind::LinkDown,
                    20.0) } });
    RunOptions run;
    run.bytes = 1 << 20;
    run.watchdogNoProgressUs = 200.0;

    Communicator first = harness.makeComm();
    RunResult a = first.run("allreduce", run);
    Communicator second = harness.makeComm();
    RunResult b = second.run("allreduce", run);

    EXPECT_EQ(a.attempts, 2);
    EXPECT_EQ(b.attempts, a.attempts);
    EXPECT_EQ(a.faultsSeen, b.faultsSeen);
    EXPECT_DOUBLE_EQ(a.timeUs, b.timeUs);
    EXPECT_EQ(a.algorithm, b.algorithm);
}

TEST(CommunicatorFaults, ThrowsWhenAllAttemptsAbort)
{
    ChaosHarness harness;
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(harness.topo), FaultKind::LinkDown,
                    20.0) } });
    RunOptions run;
    run.bytes = 1 << 20;
    run.watchdogNoProgressUs = 200.0;

    // maxAttempts == 1: the abort is final and carries the report.
    {
        Communicator comm = harness.makeComm();
        RunOptions once = run;
        once.maxAttempts = 1;
        try {
            comm.run("allreduce", once);
            FAIL() << "expected the single attempt to abort";
        } catch (const RuntimeError &error) {
            EXPECT_NE(std::string(error.what()).find("aborted"),
                      std::string::npos);
            EXPECT_NE(std::string(error.what()).find("blocked at step"),
                      std::string::npos);
        }
    }

    // No fallback registered: nothing to retry on.
    {
        Communicator comm(harness.topo);
        IrProgram ir = harness.primary;
        comm.registerAlgorithm(
            std::move(ir), 0,
            std::numeric_limits<std::uint64_t>::max());
        EXPECT_THROW(comm.run("allreduce", run), RuntimeError);
    }
}

TEST(CommunicatorFaults, RunProgramReportsAbortWithoutRetry)
{
    ChaosHarness harness;
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(harness.topo), FaultKind::LinkDown,
                    20.0) } });
    Communicator comm(harness.topo);
    RunOptions run;
    run.bytes = 1 << 20;
    run.watchdogNoProgressUs = 200.0;
    RunResult result = comm.runProgram(harness.primary, run);
    EXPECT_TRUE(result.stats.aborted);
    EXPECT_EQ(result.attempts, 1);
}

TEST(CommunicatorComposed, FaultTimelineSpansComposition)
{
    // One fault timeline covers the whole composed sequence: an
    // event timed inside the second kernel's window fires exactly
    // once, in the second kernel, at the rebased timestamp — and a
    // fired event never re-fires in later kernels.
    ChaosHarness harness;
    std::vector<const IrProgram *> irs{ &harness.primary,
                                        &harness.primary };
    RunOptions run;
    run.bytes = 1 << 20;

    Communicator healthy = harness.makeComm();
    RunResult base = healthy.runComposed(irs, run);
    double kernel_us = base.timeUs / 2.0;

    // Inside kernel 2's window (after kernel 1 completes).
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(harness.topo), FaultKind::Degrade,
                    kernel_us * 1.3, 0.0, 0.02) } });
    Communicator in_second = harness.makeComm();
    RunResult hit = in_second.runComposed(irs, run);
    EXPECT_FALSE(hit.stats.aborted);
    EXPECT_EQ(hit.faultsSeen, 1);
    EXPECT_GT(hit.timeUs, base.timeUs);

    // Inside kernel 1's window: fires there, consumed, kernel 2
    // runs clean — not once per kernel.
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(harness.topo), FaultKind::Degrade,
                    kernel_us * 0.3, 0.0, 0.02) } });
    Communicator in_first = harness.makeComm();
    RunResult once = in_first.runComposed(irs, run);
    EXPECT_FALSE(once.stats.aborted);
    EXPECT_EQ(once.faultsSeen, 1);

    // Replay is deterministic.
    Communicator again = harness.makeComm();
    RunResult replay = again.runComposed(irs, run);
    EXPECT_DOUBLE_EQ(replay.timeUs, once.timeUs);
    EXPECT_EQ(replay.faultsSeen, once.faultsSeen);
}

TEST(CommunicatorComposed, AbortMidCompositionStopsTheChain)
{
    ChaosHarness harness;
    std::vector<const IrProgram *> irs{ &harness.primary,
                                        &harness.fallback };
    RunOptions run;
    run.bytes = 1 << 20;

    Communicator healthy = harness.makeComm();
    double first_us =
        healthy.runProgram(harness.primary, run).timeUs;
    run.watchdogNoProgressUs = first_us;

    // Kernel 1 dies: the chain stops before kernel 2 ever launches.
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(harness.topo), FaultKind::LinkDown,
                    first_us * 0.3) } });
    {
        Communicator comm = harness.makeComm();
        RunResult result = comm.runComposed(irs, run);
        EXPECT_TRUE(result.stats.aborted);
        EXPECT_EQ(result.algorithm, "ring-primary");
        EXPECT_FALSE(result.stats.blockedLinks.empty());
        EXPECT_NE(result.stats.abortReason.find("blocked at step"),
                  std::string::npos);
    }

    // Kernel 2 dies: kernel 1's work is reported, the chain stops
    // at the failing kernel.
    harness.topo.setFaultSchedule(FaultSchedule{
        { makeFault(ringResource(harness.topo), FaultKind::LinkDown,
                    first_us * 1.3) } });
    {
        Communicator comm = harness.makeComm();
        RunResult result = comm.runComposed(irs, run);
        EXPECT_TRUE(result.stats.aborted);
        EXPECT_EQ(result.algorithm, "ring-primary+ring-fallback");
        EXPECT_GT(result.timeUs, first_us);
    }
}

TEST(CommunicatorFaults, OverlappingFaultsConsumeInTimestampOrder)
{
    // A Degrade window containing a LinkDown on the same resource,
    // with the two events listed in opposite orders in the user's
    // schedule. The working schedule is timestamp-sorted before
    // arming, so both spellings replay — and are consumed across
    // retries — identically.
    std::uint64_t bytes = 1 << 20;
    double healthy_us;
    {
        ChaosHarness harness;
        Communicator comm = harness.makeComm();
        RunOptions run;
        run.bytes = bytes;
        healthy_us = comm.run("allreduce", run).timeUs;
    }

    auto run_with = [&](bool down_first) {
        ChaosHarness harness;
        FaultEvent degrade =
            makeFault(ringResource(harness.topo), FaultKind::Degrade,
                      healthy_us * 0.2, healthy_us * 4.0, 0.02);
        FaultEvent down =
            makeFault(ringResource(harness.topo), FaultKind::LinkDown,
                      healthy_us * 0.5);
        FaultSchedule schedule;
        if (down_first)
            schedule.events = { down, degrade };
        else
            schedule.events = { degrade, down };
        harness.topo.setFaultSchedule(schedule);
        Communicator comm = harness.makeComm();
        RunOptions run;
        run.bytes = bytes;
        run.watchdogNoProgressUs = healthy_us;
        return comm.run("allreduce", run);
    };

    RunResult a = run_with(true);
    RunResult b = run_with(false);
    EXPECT_EQ(a.attempts, 2);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.faultsSeen, b.faultsSeen);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_DOUBLE_EQ(a.timeUs, b.timeUs);
    EXPECT_EQ(a.quarantinedLinks, b.quarantinedLinks);
}

TEST(CommunicatorWindows, ExactBoundaryIsInclusive)
{
    Topology topo = makeGeneric(1, 4);
    Communicator comm(topo);
    IrProgram small = compileProgram(*makeAllPairsAllReduce(4, {})).ir;
    small.name = "small";
    IrProgram big = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    big.name = "big";
    comm.registerAlgorithm(small, 0, 1 << 20);
    comm.registerAlgorithm(big, (1 << 20) + 1,
                           std::numeric_limits<std::uint64_t>::max());

    // bytes == maxBytes must select the window, not fall past it.
    RunOptions at_boundary;
    at_boundary.bytes = 1 << 20;
    EXPECT_EQ(comm.run("allreduce", at_boundary).algorithm, "small");
    RunOptions past;
    past.bytes = (1 << 20) + 1;
    EXPECT_EQ(comm.run("allreduce", past).algorithm, "big");
}

TEST(CommunicatorWindows, OverlapsResolveToMostSpecificLatest)
{
    Topology topo = makeGeneric(1, 4);
    Communicator comm(topo);
    IrProgram broad = compileProgram(*makeRingAllReduce(4, 1, {})).ir;
    broad.name = "broad";
    IrProgram narrow = compileProgram(*makeAllPairsAllReduce(4, {})).ir;
    narrow.name = "narrow";
    IrProgram refresh = compileProgram(*makeRingAllReduce(4, 2, {})).ir;
    refresh.name = "refresh";
    // broad covers everything; narrow overlaps with a higher lower
    // bound; refresh re-registers narrow's exact window later.
    comm.registerAlgorithm(
        broad, 0, std::numeric_limits<std::uint64_t>::max());
    comm.registerAlgorithm(narrow, 1 << 16, 1 << 22);
    comm.registerAlgorithm(refresh, 1 << 16, 1 << 22);

    RunOptions below;
    below.bytes = 1 << 10;
    EXPECT_EQ(comm.run("allreduce", below).algorithm, "broad");
    RunOptions inside;
    inside.bytes = 1 << 20;
    // Largest minBytes wins; the tie between narrow and refresh goes
    // to the latest registration.
    EXPECT_EQ(comm.run("allreduce", inside).algorithm, "refresh");
    RunOptions above;
    above.bytes = 1 << 23;
    EXPECT_EQ(comm.run("allreduce", above).algorithm, "broad");
}

} // namespace
} // namespace mscclang
