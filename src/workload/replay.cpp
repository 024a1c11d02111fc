#include "workload/replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/plan_cache.h"
#include "sim/event_queue.h"
#include "sim/flow_network.h"

namespace mscclang {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
fnvMix(std::uint64_t &hash, const std::string &text)
{
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= kFnvPrime;
    }
}

/** Nearest-rank percentile of an ascending latency list. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

/** Per-op bookkeeping of the multiplexer. */
struct OpState
{
    const WorkloadOp *spec = nullptr;
    int stream = 0;
    /** Unresolved predecessors (implicit + explicit, deduplicated). */
    int blockers = 0;
    /** Global op ids unlocked when this op resolves. */
    std::vector<int> dependents;
    bool dispatched = false;
    bool resolved = false;
    /** The plan the current attempt runs (the choice's own program,
     *  unaffected by a retune hook that re-registers windows). */
    IrProgram plan;
    PlanSource source = PlanSource::Window;
    int attempts = 0;
    /** network.faultsFired() at dispatch: the base of this op's
     *  per-run-timeline fault window (satellite: overlapping ops
     *  both observe a shared fault; nothing is globally consumed). */
    int firedBase = 0;
    DataStore::Snapshot snapshot;
    bool haveSnapshot = false;
    OpRecord record;
};

/**
 * One replay: owns the shared EventQueue + FlowNetwork, multiplexes
 * every stream onto it, and drives recovery per op. The object lives
 * for the duration of replayWorkload only.
 */
class Replayer
{
  public:
    Replayer(Communicator &comm, const WorkloadSpec &spec,
             const FaultSchedule &storm, const ReplayOptions &options)
        : comm_(comm), spec_(spec), storm_(storm), options_(options),
          topology_(comm.topology()), network_(topology_, events_)
    {
    }

    ReplayResult
    run()
    {
        spec_.validate();
        buildGraph();
        preflightPlans();

        network_.setProfile(options_.profile);
        events_.setProfile(options_.profile);
        if (!storm_.events.empty())
            network_.injectFaults(storm_);
        replanBase_ = comm_.replanCompiles();
        if (options_.selfHealing)
            lastQuarantine_ = comm_.health().quarantined();
        if (options_.dataMode)
            stores_.resize(spec_.streams.size());

        for (int id = 0; id < static_cast<int>(states_.size()); id++) {
            if (states_[id].blockers == 0)
                scheduleDispatch(id);
        }
        events_.run();

        // Anything still open after the queue drained wedged without
        // a watchdog (or waits on a wedged predecessor).
        for (int id = 0; id < static_cast<int>(states_.size()); id++) {
            OpState &st = states_[id];
            if (st.resolved)
                continue;
            st.resolved = true;
            st.record.doneUs = nowUs();
            st.record.latencyUs =
                std::max(0.0, st.record.doneUs - st.record.issueUs);
            st.record.attempts = st.attempts;
            st.record.faultsSeen =
                st.dispatched ? network_.faultsFired() - st.firedBase
                              : 0;
            st.record.failReason =
                st.dispatched ? "wedged" : "never dispatched";
        }
        executions_.clear();

        ReplayResult result;
        result.ops.reserve(states_.size());
        for (const OpState &st : states_) {
            result.makespanUs =
                std::max(result.makespanUs, st.record.doneUs);
            result.ops.push_back(st.record);
        }
        result.faultsFired = network_.faultsFired();
        result.quarantineChanges = quarantineChanges_;
        result.replanCompiles = comm_.replanCompiles() - replanBase_;
        if (options_.selfHealing)
            result.quarantined = comm_.health().quarantined();
        return result;
    }

  private:
    double
    nowUs() const
    {
        return static_cast<double>(events_.now()) / 1000.0;
    }

    void
    buildGraph()
    {
        std::vector<int> base(spec_.streams.size(), 0);
        int total = 0;
        for (size_t s = 0; s < spec_.streams.size(); s++) {
            base[s] = total;
            total += static_cast<int>(spec_.streams[s].ops.size());
        }
        states_.resize(total);
        for (size_t s = 0; s < spec_.streams.size(); s++) {
            const WorkloadStream &stream = spec_.streams[s];
            for (size_t o = 0; o < stream.ops.size(); o++) {
                int id = base[s] + static_cast<int>(o);
                OpState &st = states_[id];
                st.spec = &stream.ops[o];
                st.stream = static_cast<int>(s);
                st.record.stream = st.stream;
                st.record.op = static_cast<int>(o);
                st.record.collective = st.spec->collective;
                st.record.bytes = st.spec->bytes;
                st.record.issueUs = st.spec->issueUs;
                // Implicit in-stream predecessor plus explicit deps,
                // deduplicated so a redundant self-stream dep does
                // not double-count a blocker.
                std::set<int> blockers;
                if (o > 0)
                    blockers.insert(id - 1);
                for (const OpDep &dep : st.spec->deps)
                    blockers.insert(base[dep.stream] + dep.op);
                st.blockers = static_cast<int>(blockers.size());
                for (int from : blockers)
                    states_[from].dependents.push_back(id);
            }
        }
    }

    /** Surfaces "nothing registered at all" before the sim starts
     *  (mid-replay plan misses are recorded per op, not thrown). */
    void
    preflightPlans()
    {
        std::set<std::string> checked;
        for (const WorkloadStream &stream : spec_.streams) {
            for (const WorkloadOp &op : stream.ops) {
                if (checked.insert(op.collective).second)
                    comm_.selectPlan(op.collective, op.bytes);
            }
        }
    }

    void
    scheduleDispatch(int id)
    {
        TimeNs when =
            std::max(events_.now(), usToNs(states_[id].spec->issueUs));
        events_.schedule(when, [this, id] { dispatch(id); });
    }

    void
    adoptPlan(OpState &st, PlanChoice choice)
    {
        st.plan = std::move(choice.program);
        st.source = choice.source;
    }

    void
    dispatch(int id)
    {
        OpState &st = states_[id];
        st.dispatched = true;
        st.record.startUs = nowUs();
        st.firedBase = network_.faultsFired();
        if (options_.selfHealing)
            comm_.health().beginRun();
        PlanChoice choice;
        try {
            choice =
                comm_.selectPlan(st.spec->collective, st.spec->bytes);
        } catch (const Error &error) {
            fail(id, std::string("no plan: ") + error.what());
            return;
        }
        adoptPlan(st, std::move(choice));
        beginAttempt(id);
    }

    void
    beginAttempt(int id)
    {
        OpState &st = states_[id];
        st.attempts = saturatingIncrement(st.attempts);

        DataStore *data = nullptr;
        if (options_.dataMode) {
            DataStore &store = stores_[st.stream];
            try {
                store.configure(st.plan, st.spec->bytes);
            } catch (const Error &error) {
                fail(id, std::string("store: ") + error.what());
                return;
            }
            if (st.attempts == 1)
                fillInput(store, id);
            if (!st.haveSnapshot && st.plan.mutatesInput()) {
                st.snapshot = store.snapshot();
                st.haveSnapshot = true;
            }
            data = &store;
        }

        ExecOptions exec;
        exec.dataMode = options_.dataMode;
        exec.bytesPerRank = st.spec->bytes;
        exec.maxTilesPerChunk = options_.maxTilesPerChunk;
        exec.launchOverheadUs = topology_.params().kernelLaunchUs;
        exec.watchdogTimeoutUs = options_.watchdogTimeoutUs;
        exec.watchdogNoProgressUs = options_.watchdogNoProgressUs;
        exec.faults = nullptr; // the storm is armed on the shared fabric
        exec.profile = options_.profile;

        // Executions stay alive until the fabric drains: an aborted
        // kernel's frozen flows still hold callbacks into it.
        executions_.push_back(std::make_unique<IrExecution>(
            topology_, st.plan, events_, network_, exec, data));
        executions_.back()->start([this, id](const ExecStats &stats) {
            onAttemptDone(id, stats);
        });
    }

    /** Feeds the monitor every storm event that fired since the last
     *  feed — exactly once, in global firing order, no matter how
     *  many ops observed it. */
    void
    feedHealth()
    {
        const std::vector<int> &fired = network_.firedFaults();
        for (std::size_t k = healthFed_; k < fired.size(); k++) {
            int index = fired[k];
            if (index >= 0 &&
                index < static_cast<int>(storm_.events.size())) {
                comm_.health().noteFault(storm_.events[index]);
            }
        }
        healthFed_ = fired.size();
    }

    void
    trackQuarantine()
    {
        std::vector<Link> current = comm_.health().quarantined();
        if (current != lastQuarantine_) {
            quarantineChanges_++;
            lastQuarantine_ = std::move(current);
        }
    }

    void
    onAttemptDone(int id, const ExecStats &stats)
    {
        OpState &st = states_[id];
        if (options_.selfHealing) {
            feedHealth();
            if (stats.aborted)
                comm_.health().noteBlocked(stats.blockedLinks);
            else
                comm_.health().noteSuccess(programLinks(st.plan));
        }

        if (!stats.aborted) {
            st.record.algorithm = st.plan.name;
            if (st.source == PlanSource::Fallback)
                st.record.algorithm += " (fallback)";
            else if (st.source == PlanSource::Replan)
                st.record.algorithm += " (replan)";
            st.record.replanned = st.source == PlanSource::Replan;
            st.record.fellBack = st.source == PlanSource::Fallback;
            st.record.completed = true;
            resolve(id);
            if (options_.selfHealing)
                trackQuarantine();
            return;
        }

        if (st.attempts >= std::max(1, options_.maxAttempts)) {
            // The distinct spelling Communicator::run uses for the
            // same terminal condition, so availability reports can
            // tell budget exhaustion from "no recovery route".
            fail(id,
                 "retry budget exhausted: " + stats.abortReason);
            if (options_.selfHealing)
                trackQuarantine();
            return;
        }

        if (options_.dataMode && st.haveSnapshot) {
            stores_[st.stream].restore(st.snapshot);
            st.record.rolledBack = true;
        }

        if (!options_.selfHealing) {
            // Control arm: no monitor, no replanning — the same plan
            // retries after a fixed escalating backoff.
            double backoff = options_.blindBackoffUs * st.attempts;
            st.record.backoffs++;
            st.record.backoffUs =
                saturatingAddUs(st.record.backoffUs, backoff);
            events_.scheduleAfter(usToNs(backoff),
                                  [this, id] { beginAttempt(id); });
            return;
        }

        RecoveryDecision decision =
            comm_.decideRecovery(st.spec->collective, st.spec->bytes);
        switch (decision.action) {
          case RecoveryAction::Backoff:
            st.record.backoffs++;
            st.record.backoffUs = saturatingAddUs(st.record.backoffUs,
                                                  decision.backoffUs);
            events_.scheduleAfter(usToNs(decision.backoffUs),
                                  [this, id] { beginAttempt(id); });
            break;
          case RecoveryAction::Switch:
            adoptPlan(st, std::move(decision.plan));
            beginAttempt(id);
            break;
          case RecoveryAction::GiveUp:
            fail(id,
                 "no recovery plan or fallback: " + stats.abortReason);
            break;
        }
        trackQuarantine();
    }

    void
    fail(int id, std::string reason)
    {
        OpState &st = states_[id];
        st.record.failReason = std::move(reason);
        if (st.record.algorithm.empty())
            st.record.algorithm = st.plan.name;
        resolve(id);
    }

    void
    resolve(int id)
    {
        OpState &st = states_[id];
        st.resolved = true;
        st.record.doneUs = nowUs();
        st.record.latencyUs =
            std::max(0.0, st.record.doneUs - st.record.issueUs);
        st.record.attempts = st.attempts;
        st.record.faultsSeen = network_.faultsFired() - st.firedBase;
        // A failed predecessor releases its dependents at failure
        // time: downstream traffic keeps flowing (and keeps being
        // measured) instead of deadlocking the replay.
        for (int next : st.dependents) {
            if (--states_[next].blockers == 0)
                scheduleDispatch(next);
        }
    }

    void
    fillInput(DataStore &store, int id)
    {
        Rng fill(options_.dataFillSeed +
                 0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(id) + 1));
        for (int rank = 0; rank < store.numRanks(); rank++) {
            for (float &value : store.input(rank))
                value = fill.nextSignedFloat();
        }
    }

    Communicator &comm_;
    const WorkloadSpec &spec_;
    const FaultSchedule &storm_;
    const ReplayOptions &options_;
    const Topology &topology_;
    EventQueue events_;
    FlowNetwork network_;
    std::vector<OpState> states_;
    std::vector<std::unique_ptr<IrExecution>> executions_;
    std::vector<DataStore> stores_;
    std::size_t healthFed_ = 0;
    std::vector<Link> lastQuarantine_;
    int quarantineChanges_ = 0;
    int replanBase_ = 0;
};

} // namespace

std::uint64_t
ReplayResult::fingerprint() const
{
    // Canonical per-op lines rather than raw double bits: the same
    // "%.3f" quantization the JSON reports use, so the fingerprint
    // and the emitted report agree on what counts as identical.
    // wireBytes is deliberately absent — it is a float sum whose
    // accumulation order is an implementation detail.
    std::uint64_t hash = kFnvOffset;
    for (const OpRecord &op : ops) {
        fnvMix(hash,
               strprintf("%d|%d|%s|%llu|%.3f|%.3f|%.3f|%.3f|%d|%s|%d|"
                         "%d|%d|%.3f|%d|%d|%d|%s\n",
                         op.stream, op.op, op.collective.c_str(),
                         static_cast<unsigned long long>(op.bytes),
                         op.issueUs, op.startUs, op.doneUs,
                         op.latencyUs, op.completed ? 1 : 0,
                         op.algorithm.c_str(), op.attempts,
                         op.faultsSeen, op.backoffs, op.backoffUs,
                         op.replanned ? 1 : 0, op.fellBack ? 1 : 0,
                         op.rolledBack ? 1 : 0,
                         op.failReason.c_str()));
    }
    std::string quarantine;
    for (const Link &link : quarantined) {
        if (!quarantine.empty())
            quarantine += ",";
        quarantine += linkName(link);
    }
    fnvMix(hash, strprintf("fleet|%.3f|%d|%d|%d|%s\n", makespanUs,
                           faultsFired, quarantineChanges,
                           replanCompiles, quarantine.c_str()));
    return hash;
}

namespace {

SloStats
aggregate(const std::string &name, const std::vector<int> &ids,
          const ReplayResult &result, const ReplayResult *baseline,
          const ReplayOptions &options)
{
    SloStats stats;
    stats.name = name;
    std::vector<double> latencies;
    double total_latency = 0.0;
    double completed_bytes = 0.0;
    int available = 0;
    for (int id : ids) {
        const OpRecord &op = result.ops[id];
        stats.ops++;
        stats.retries += std::max(0, op.attempts - 1);
        stats.backoffs += op.backoffs;
        stats.backoffUs =
            saturatingAddUs(stats.backoffUs, op.backoffUs);
        stats.replans += op.replanned ? 1 : 0;
        stats.fallbacks += op.fellBack ? 1 : 0;
        stats.rollbacks += op.rolledBack ? 1 : 0;
        stats.faultsSeen += op.faultsSeen;
        if (!op.completed) {
            stats.failed++;
            continue;
        }
        stats.completed++;
        latencies.push_back(op.latencyUs);
        total_latency += op.latencyUs;
        completed_bytes += static_cast<double>(op.bytes);
        bool ok = true;
        if (baseline != nullptr) {
            const OpRecord &base = baseline->ops[id];
            if (base.completed && base.latencyUs > 0.0) {
                ok = op.latencyUs <=
                     options.sloMultiplier * base.latencyUs;
            }
        }
        if (ok)
            available++;
    }
    std::sort(latencies.begin(), latencies.end());
    stats.p50Us = percentile(latencies, 0.50);
    stats.p99Us = percentile(latencies, 0.99);
    stats.p999Us = percentile(latencies, 0.999);
    stats.meanUs = latencies.empty()
                       ? 0.0
                       : total_latency /
                             static_cast<double>(latencies.size());
    stats.availability =
        stats.ops == 0 ? 0.0
                       : static_cast<double>(available) /
                             static_cast<double>(stats.ops);
    if (result.makespanUs > 0.0) {
        // 1 GB/s == 1000 bytes per microsecond.
        stats.goodputGBps =
            completed_bytes / (1000.0 * result.makespanUs);
    }
    return stats;
}

std::string
statsJson(const SloStats &stats, const char *indent)
{
    return strprintf(
        "%s{\"name\": %s, \"ops\": %d, \"completed\": %d, "
        "\"failed\": %d, \"p50_us\": %.3f, \"p99_us\": %.3f, "
        "\"p999_us\": %.3f, \"mean_us\": %.3f, "
        "\"availability\": %.4f, \"goodput_gbps\": %.3f, "
        "\"retries\": %d, \"backoffs\": %d, \"replans\": %d, "
        "\"fallbacks\": %d, \"rollbacks\": %d, \"backoff_us\": %.3f, "
        "\"faults_seen\": %d}",
        indent, jsonQuote(stats.name).c_str(), stats.ops, stats.completed,
        stats.failed, stats.p50Us, stats.p99Us, stats.p999Us,
        stats.meanUs, stats.availability, stats.goodputGBps,
        stats.retries, stats.backoffs, stats.replans, stats.fallbacks,
        stats.rollbacks, stats.backoffUs, stats.faultsSeen);
}

/**
 * One CSV field as RFC 4180 writes it: quoted, with inner quotes
 * doubled, when it holds a comma, a quote or a line break; as is
 * otherwise.
 */
std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\r\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (char c : text)
        out += c == '"' ? std::string("\"\"") : std::string(1, c);
    return out + "\"";
}

std::string
statsCsv(const std::string &workload, bool healing,
         const SloStats &stats)
{
    return strprintf(
        "%s,%s,%s,%d,%d,%d,%.3f,%.3f,%.3f,%.3f,%.4f,%.3f,%d,%d,%d,%d,"
        "%d,%.3f,%d\n",
        csvField(workload).c_str(), csvField(stats.name).c_str(),
        healing ? "on" : "off",
        stats.ops, stats.completed, stats.failed, stats.p50Us,
        stats.p99Us, stats.p999Us, stats.meanUs, stats.availability,
        stats.goodputGBps, stats.retries, stats.backoffs,
        stats.replans, stats.fallbacks, stats.rollbacks,
        stats.backoffUs, stats.faultsSeen);
}

} // namespace

std::string
SloReport::toJson() const
{
    std::string out = strprintf(
        "{\n  \"workload\": %s,\n  \"self_healing\": %s,\n"
        "  \"slo_multiplier\": %.3f,\n  \"makespan_us\": %.3f,\n"
        "  \"faults_fired\": %d,\n  \"quarantine_changes\": %d,\n"
        "  \"replan_compiles\": %d,\n  \"quarantined_links\": %d,\n",
        jsonQuote(workload).c_str(), selfHealing ? "true" : "false",
        sloMultiplier, makespanUs, faultsFired, quarantineChanges,
        replanCompiles, quarantinedLinks);
    out += "  \"fleet\":\n" + statsJson(fleet, "    ") + ",\n";
    out += "  \"streams\": [";
    for (size_t i = 0; i < streams.size(); i++) {
        out += i == 0 ? "\n" : ",\n";
        out += statsJson(streams[i], "    ");
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
SloReport::toCsv() const
{
    std::string out =
        "workload,stream,healing,ops,completed,failed,p50_us,p99_us,"
        "p999_us,mean_us,availability,goodput_gbps,retries,backoffs,"
        "replans,fallbacks,rollbacks,backoff_us,faults_seen\n";
    out += statsCsv(workload, selfHealing, fleet);
    for (const SloStats &stream : streams)
        out += statsCsv(workload, selfHealing, stream);
    return out;
}

std::uint64_t
SloReport::fingerprint() const
{
    std::uint64_t hash = kFnvOffset;
    fnvMix(hash, toJson());
    return hash;
}

SloReport
buildSloReport(const WorkloadSpec &spec, const ReplayResult &result,
               const ReplayResult *baseline,
               const ReplayOptions &options)
{
    if (baseline != nullptr &&
        baseline->ops.size() != result.ops.size()) {
        throw Error("buildSloReport: baseline replay ran a different "
                    "trace");
    }
    SloReport report;
    report.workload = spec.name;
    report.sloMultiplier = options.sloMultiplier;
    report.selfHealing = options.selfHealing;
    report.makespanUs = result.makespanUs;
    report.faultsFired = result.faultsFired;
    report.quarantineChanges = result.quarantineChanges;
    report.replanCompiles = result.replanCompiles;
    report.quarantinedLinks =
        static_cast<int>(result.quarantined.size());

    std::vector<int> all;
    all.reserve(result.ops.size());
    int next = 0;
    for (size_t s = 0; s < spec.streams.size(); s++) {
        std::vector<int> ids;
        ids.reserve(spec.streams[s].ops.size());
        for (size_t o = 0; o < spec.streams[s].ops.size(); o++) {
            ids.push_back(next);
            all.push_back(next);
            next++;
        }
        report.streams.push_back(aggregate(spec.streams[s].name, ids,
                                           result, baseline, options));
    }
    report.fleet =
        aggregate("fleet", all, result, baseline, options);
    return report;
}

void
registerWorkloadPlans(Communicator &comm, const WorkloadSpec &spec)
{
    const Topology &topology = comm.topology();
    int ranks = topology.numRanks();
    constexpr std::uint64_t kMaxBytes =
        std::numeric_limits<std::uint64_t>::max();
    constexpr std::uint64_t kLlCutover = 256 * 1024;

    std::set<std::string> collectives;
    for (const WorkloadStream &stream : spec.streams) {
        for (const WorkloadOp &op : stream.ops)
            collectives.insert(op.collective);
    }

    for (const std::string &collective : collectives) {
        if (collective == "allreduce") {
            AlgoConfig ll;
            ll.protocol = Protocol::LL;
            ll.instances = 2;
            AlgoConfig simple;
            simple.protocol = Protocol::Simple;
            simple.instances = 2;
            comm.registerAlgorithm(
                compileProgramCached(*makeRingAllReduce(ranks, 1, ll))
                    .ir,
                0, kLlCutover);
            comm.registerAlgorithm(
                compileProgramCached(
                    *makeRingAllReduce(ranks, 2, simple))
                    .ir,
                kLlCutover + 1, kMaxBytes);
            AlgoConfig fallback;
            fallback.protocol = Protocol::Simple;
            comm.registerFallback(
                "allreduce", [ranks, fallback](std::uint64_t) {
                    return compileProgramCached(
                               *makeRingAllReduce(ranks, 1, fallback))
                        .ir;
                });
            comm.registerReplanner(
                "allreduce",
                [fallback](const Topology &degraded, std::uint64_t)
                    -> std::unique_ptr<Program> {
                    std::vector<Rank> order = findRingOrder(degraded);
                    if (order.empty())
                        return nullptr;
                    return makeRingAllReduceOver(order, 1, fallback);
                });
        } else if (collective == "allgather") {
            AlgoConfig simple;
            simple.protocol = Protocol::Simple;
            simple.instances = 2;
            comm.registerAlgorithm(
                compileProgramCached(
                    *makeRingAllGather(ranks, 2, simple))
                    .ir,
                0, kMaxBytes);
            AlgoConfig fallback;
            fallback.protocol = Protocol::Simple;
            comm.registerFallback(
                "allgather", [ranks, fallback](std::uint64_t) {
                    return compileProgramCached(
                               *makeRingAllGather(ranks, 1, fallback))
                        .ir;
                });
            comm.registerReplanner(
                "allgather",
                [fallback](const Topology &degraded, std::uint64_t)
                    -> std::unique_ptr<Program> {
                    std::vector<Rank> order = findRingOrder(degraded);
                    if (order.empty())
                        return nullptr;
                    return makeRingAllGatherOver(order, 1, fallback);
                });
        } else if (collective == "alltoall") {
            AlgoConfig config;
            IrProgram main =
                topology.numNodes() > 1
                    ? compileProgramCached(
                          *makeTwoStepAllToAll(topology.numNodes(),
                                               topology.gpusPerNode(),
                                               config))
                          .ir
                    : compileProgramCached(
                          *makeNaiveAllToAll(ranks, config))
                          .ir;
            comm.registerAlgorithm(std::move(main), 0, kMaxBytes);
            comm.registerFallback(
                "alltoall", [ranks, config](std::uint64_t) {
                    return compileProgramCached(
                               *makeNaiveAllToAll(ranks, config))
                        .ir;
                });
            // No alltoall replanner: every rank pair communicates, so
            // no route-around exists — recovery rides backoff retries
            // and the fallback.
        } else {
            throw Error("registerWorkloadPlans: no plan library for "
                        "collective '" + collective + "'");
        }
    }
}

ReplayResult
replayWorkload(Communicator &comm, const WorkloadSpec &spec,
               const FaultSchedule &storm, const ReplayOptions &options)
{
    return Replayer(comm, spec, storm, options).run();
}

} // namespace mscclang
