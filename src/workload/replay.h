/**
 * @file
 * The workload replay engine (DESIGN.md §14): multiplexes every
 * stream of a WorkloadSpec onto ONE shared EventQueue + FlowNetwork
 * timeline, so concurrent collectives contend for link bandwidth
 * under the max-min fair sharing model, with a fault storm armed once
 * on the shared fabric and firing mid-traffic.
 *
 * Recovery rides the Communicator's own selection/recovery cascade
 * (selectPlan / decideRecovery), so a replayed fleet heals exactly
 * like individual Communicator::run calls would — but re-entrantly
 * across interleaved ops. Fired-fault observation is per-op-timeline:
 * each op snapshots the shared network's fired-fault index at
 * dispatch and attributes the suffix to itself at resolution, so two
 * overlapping ops BOTH see a fault that fired while both were in
 * flight (global consumption would hide it from the second). The
 * health monitor is fed each fired event exactly once, in global
 * firing order, plus every abort's blocked-link attribution.
 *
 * The SLO layer turns the op records into per-stream and fleet-wide
 * p50/p99/p99.9 latency, goodput, recovery counts, quarantine churn,
 * and availability — the fraction of ops that completed within
 * sloMultiplier x their fault-free latency (measured by replaying
 * the same spec without the storm).
 */

#ifndef MSCCLANG_WORKLOAD_REPLAY_H_
#define MSCCLANG_WORKLOAD_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/communicator.h"
#include "workload/workload.h"

namespace mscclang {

/** Replay configuration. */
struct ReplayOptions
{
    /**
     * Engage the self-healing runtime: feed the communicator's
     * health monitor, and recover aborted ops through its
     * decideRecovery cascade (backoff / window switch / verified
     * replan / fallback). When false the monitor is never fed and an
     * aborted op simply retries its original plan after a fixed
     * deterministic backoff — the control arm of the availability
     * comparison.
     */
    bool selfHealing = true;
    /** Move real floats with per-stream stores, snapshot/rollback on
     *  aborted in-place programs (expensive; tests only). */
    bool dataMode = false;
    /** Kernel attempts per op before it is recorded as failed. */
    int maxAttempts = 4;
    /** Per-execution watchdog knobs (see ExecOptions); the
     *  no-progress watchdog is what detects storm-wedged ops. */
    double watchdogNoProgressUs = 250.0;
    double watchdogTimeoutUs = 0.0;
    int maxTilesPerChunk = 4;
    /** Availability threshold: an op is available when it completed
     *  within this multiple of its fault-free latency. */
    double sloMultiplier = 3.0;
    /** Seed for data-mode input fills. */
    std::uint64_t dataFillSeed = 1;
    /** Fixed backoff per retry when selfHealing is off, microsec. */
    double blindBackoffUs = 100.0;
    /** Wall-clock phase accounting (not owned; null disables). */
    SimProfile *profile = nullptr;
};

/** What happened to one op of the replayed trace. */
struct OpRecord
{
    int stream = 0;
    int op = 0;
    std::string collective;
    std::uint64_t bytes = 0;
    /** Spec issue time (the arrival the latency is measured from). */
    double issueUs = 0.0;
    /** Dispatch time: deps resolved and issue time reached. */
    double startUs = 0.0;
    /** Resolution time (completion or failure). */
    double doneUs = 0.0;
    /** doneUs - issueUs: queueing + execution + recovery. */
    double latencyUs = 0.0;
    bool completed = false;
    /** Name of the plan that finished the op ("ring_allreduce",
     *  with " (replan)"/" (fallback)" provenance suffixes). */
    std::string algorithm;
    int attempts = 1;
    /** Faults fired on the shared fabric while this op was in
     *  flight — the per-op-timeline view (overlapping ops both
     *  count a shared fault). */
    int faultsSeen = 0;
    /** Transient backoff retries taken and time charged. */
    int backoffs = 0;
    double backoffUs = 0.0;
    /** Recovery provenance of the finishing plan. */
    bool replanned = false;
    bool fellBack = false;
    /** An aborted in-place attempt forced a DataStore rollback. */
    bool rolledBack = false;
    /** Why the op failed (empty when completed): "retry budget
     *  exhausted", "no plan", "wedged", ... */
    std::string failReason;
};

/** Everything one replay produced. */
struct ReplayResult
{
    /** One record per op, ordered by (stream, op). */
    std::vector<OpRecord> ops;
    /** Resolution time of the last op, microseconds. */
    double makespanUs = 0.0;
    /** Storm events that activated on the shared fabric. */
    int faultsFired = 0;
    /** Times the quarantined-link set changed during the replay. */
    int quarantineChanges = 0;
    /** Degraded-topology compilations the replay triggered. */
    int replanCompiles = 0;
    /** Quarantine at the end of the replay (sorted). */
    std::vector<Link> quarantined;

    /** FNV-1a over every op record and the fleet counters; the same
     *  spec, storm and options always give the same value. */
    std::uint64_t fingerprint() const;
};

/**
 * Replays @p spec over @p comm's machine with @p storm armed on the
 * shared fabric (workload-timeline timestamps). Plans must already be
 * registered (registerWorkloadPlans or by hand). Op failures are
 * recorded, not thrown; the replay always runs the trace to the end.
 * @throws mscclang::Error only on structural problems (invalid spec,
 * no plan source registered at all for a collective).
 */
ReplayResult replayWorkload(Communicator &comm, const WorkloadSpec &spec,
                            const FaultSchedule &storm,
                            const ReplayOptions &options);

/** Latency/availability aggregate over one stream (or the fleet). */
struct SloStats
{
    std::string name;
    int ops = 0;
    int completed = 0;
    int failed = 0;
    /** Nearest-rank percentiles over completed ops' latencies,
     *  microseconds (0 when nothing completed). */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double meanUs = 0.0;
    /** Fraction of ops completed within sloMultiplier x the op's
     *  fault-free latency (failed ops count as misses). */
    double availability = 0.0;
    /** Completed per-rank payload bytes over the fleet makespan. */
    double goodputGBps = 0.0;
    /** Recovery counters summed over the ops. */
    int retries = 0;
    int backoffs = 0;
    int replans = 0;
    int fallbacks = 0;
    int rollbacks = 0;
    double backoffUs = 0.0;
    int faultsSeen = 0;
};

/** The measured-availability report of one replay. */
struct SloReport
{
    std::string workload;
    double sloMultiplier = 0.0;
    bool selfHealing = true;
    std::vector<SloStats> streams;
    SloStats fleet;
    double makespanUs = 0.0;
    int faultsFired = 0;
    int quarantineChanges = 0;
    int replanCompiles = 0;
    int quarantinedLinks = 0;

    /** Byte-stable formatted JSON / CSV ("%.3f" times). */
    std::string toJson() const;
    std::string toCsv() const;
    /** FNV-1a over toJson()'s bytes. */
    std::uint64_t fingerprint() const;
};

/**
 * Builds the SLO report for @p result. @p baseline is the fault-free
 * replay of the same spec (availability thresholds come from its
 * per-op latencies); pass null to fall back to availability =
 * completion fraction.
 */
SloReport buildSloReport(const WorkloadSpec &spec,
                         const ReplayResult &result,
                         const ReplayResult *baseline,
                         const ReplayOptions &options);

/**
 * Registers algorithm windows, fallbacks, and replanners on @p comm
 * for every collective @p spec uses: allreduce rings (LL below 256
 * KiB, Simple above) with a ring-reformation replanner, allgather
 * rings likewise, alltoall two-step (multi-node) or naive with the
 * naive scheme as fallback. @throws mscclang::Error on a collective
 * the library has no plan for.
 */
void registerWorkloadPlans(Communicator &comm, const WorkloadSpec &spec);

} // namespace mscclang

#endif // MSCCLANG_WORKLOAD_REPLAY_H_
