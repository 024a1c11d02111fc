#include "runtime/communicator.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/plan_cache.h"

namespace mscclang {

double
saturatingAddUs(double a, double b)
{
    if (std::isnan(a))
        a = 0.0;
    if (std::isnan(b))
        b = 0.0;
    double sum = std::max(0.0, a) + std::max(0.0, b);
    return std::min(sum, kMaxAccountedUs);
}

int
saturatingIncrement(int count)
{
    return count < INT_MAX ? count + 1 : INT_MAX;
}

const char *
planSourceName(PlanSource source)
{
    switch (source) {
      case PlanSource::Window:
        return "window";
      case PlanSource::Replan:
        return "replan";
      case PlanSource::Fallback:
        return "fallback";
    }
    return "?";
}

namespace {

/** Both inputs sorted; true if they share a link. */
bool
linksIntersect(const std::vector<Link> &a, const std::vector<Link> &b)
{
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        if (*ia == *ib)
            return true;
        if (*ia < *ib)
            ++ia;
        else
            ++ib;
    }
    return false;
}

/** "3->4,3->5", the canonical cache-key spelling of a link set. */
std::string
linkSetName(const std::vector<Link> &links)
{
    std::string out;
    for (const Link &link : links) {
        if (!out.empty())
            out += ",";
        out += linkName(link);
    }
    return out;
}

/**
 * Timestamp order (stable). Fired-fault consumption walks the armed
 * schedule by index, so sorting once up front makes overlapping
 * same-link events (a Degrade window containing a LinkDown) consume
 * in deterministic firing order across retries regardless of how the
 * user ordered the schedule.
 */
void
sortByTimestamp(FaultSchedule &schedule)
{
    std::stable_sort(schedule.events.begin(), schedule.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.atUs < b.atUs;
                     });
}

/** Drops the events @p fired_indices (into @p schedule) names. */
void
consumeFired(FaultSchedule &schedule,
             const std::vector<int> &fired_indices)
{
    std::vector<bool> fired(schedule.events.size(), false);
    for (int index : fired_indices) {
        if (index >= 0 && index < static_cast<int>(fired.size()))
            fired[index] = true;
    }
    std::vector<FaultEvent> remaining;
    for (size_t i = 0; i < schedule.events.size(); i++) {
        if (!fired[i])
            remaining.push_back(schedule.events[i]);
    }
    schedule.events = std::move(remaining);
}

} // namespace

void
Communicator::registerAlgorithm(IrProgram ir, std::uint64_t min_bytes,
                                std::uint64_t max_bytes)
{
    if (ir.numRanks != topology_.numRanks()) {
        throw RuntimeError(strprintf(
            "registerAlgorithm: program has %d ranks, machine has %d",
            ir.numRanks, topology_.numRanks()));
    }
    if (min_bytes > max_bytes)
        throw RuntimeError("registerAlgorithm: empty size window");
    std::vector<Link> links = programLinks(ir);
    algorithms_.push_back(Registered{ std::move(ir), min_bytes,
                                      max_bytes, std::move(links) });
}

void
Communicator::clearAlgorithms(const std::string &collective)
{
    algorithms_.erase(
        std::remove_if(algorithms_.begin(), algorithms_.end(),
                       [&](const Registered &entry) {
                           return entry.ir.collective == collective;
                       }),
        algorithms_.end());
}

void
Communicator::registerFallback(
    const std::string &collective,
    std::function<IrProgram(std::uint64_t)> factory)
{
    fallbacks_[collective] = std::move(factory);
}

void
Communicator::registerReplanner(
    const std::string &collective,
    std::function<std::unique_ptr<Program>(const Topology &,
                                           std::uint64_t)>
        factory)
{
    replanners_[collective] = std::move(factory);
}

const Communicator::Registered *
Communicator::selectWindow(const std::string &collective,
                           std::uint64_t bytes) const
{
    // Both window bounds are inclusive (bytes == maxBytes matches).
    // Overlaps resolve to the largest minBytes; ties to the latest
    // registration — hence ">=" while scanning in registration order.
    // Windows crossing a quarantined link are out of service.
    const std::vector<Link> quarantine = health_.quarantined();
    const Registered *best = nullptr;
    for (const Registered &entry : algorithms_) {
        if (entry.ir.collective != collective ||
            bytes < entry.minBytes || bytes > entry.maxBytes) {
            continue;
        }
        if (!quarantine.empty() &&
            linksIntersect(entry.links, quarantine)) {
            continue;
        }
        if (best == nullptr || entry.minBytes >= best->minBytes)
            best = &entry;
    }
    return best;
}

std::optional<IrProgram>
Communicator::replanProgram(const std::string &collective,
                            const std::vector<Link> &quarantine,
                            std::uint64_t bytes)
{
    if (quarantine.empty())
        return std::nullopt;
    auto replanner = replanners_.find(collective);
    if (replanner == replanners_.end())
        return std::nullopt;
    std::string memo_key = collective + "|" + linkSetName(quarantine);
    auto memo = replanMemo_.find(memo_key);
    if (memo != replanMemo_.end())
        return replanIr_.at(memo->second);

    Topology degraded = topology_.degraded(quarantine);
    std::unique_ptr<Program> plan;
    try {
        plan = replanner->second(degraded, bytes);
    } catch (const Error &) {
        return std::nullopt;
    }
    if (plan == nullptr)
        return std::nullopt;

    // The repair plan goes through the full pipeline: fusion, thread
    // block scheduling, and the verifier's postcondition + deadlock
    // checks against the degraded machine. A plan that does not
    // verify is no plan at all. Plans are content-addressed: a
    // different dead-link set that degrades to the same traced
    // program reuses the already-verified IR, and the process-wide
    // PlanCache (plus its optional disk spill) answers repeats
    // across communicators; it takes the content key as computed
    // here rather than fingerprinting the degraded routes again.
    CompileOptions copts;
    copts.verify = true;
    copts.topology = &degraded;
    std::uint64_t content_key = planCacheKey(*plan, copts);
    auto known = replanIr_.find(content_key);
    if (known != replanIr_.end()) {
        replanMemo_.emplace(memo_key, content_key);
        return known->second;
    }
    IrProgram ir;
    try {
        ir = PlanCache::global().compile(*plan, copts, content_key).ir;
    } catch (const Error &) {
        return std::nullopt;
    }
    replanCompiles_++;
    replanIr_.emplace(content_key, ir);
    replanMemo_.emplace(memo_key, content_key);
    return ir;
}

void
Communicator::syncQuarantine()
{
    std::vector<Link> now = health_.quarantined();
    if (now == lastQuarantine_)
        return;
    lastQuarantine_ = std::move(now);
    if (retuneHook_)
        retuneHook_(lastQuarantine_);
}

PlanChoice
Communicator::selectPlan(const std::string &collective,
                         std::uint64_t bytes)
{
    // A registered window avoiding the quarantine, then the replan
    // cache (links already out of service), then the fallback.
    PlanChoice choice;
    const Registered *picked = selectWindow(collective, bytes);
    if (picked != nullptr) {
        choice.program = picked->ir;
        choice.source = PlanSource::Window;
        return choice;
    }
    if (std::optional<IrProgram> replan =
            replanProgram(collective, health_.quarantined(), bytes)) {
        choice.program = std::move(*replan);
        choice.source = PlanSource::Replan;
        return choice;
    }
    auto fallback = fallbacks_.find(collective);
    if (fallback == fallbacks_.end()) {
        throw RuntimeError("no algorithm or fallback registered "
                           "for '" + collective + "' at " +
                           formatBytes(bytes));
    }
    choice.program = fallback->second(bytes);
    choice.source = PlanSource::Fallback;
    return choice;
}

RecoveryDecision
Communicator::decideRecovery(const std::string &collective,
                             std::uint64_t bytes)
{
    RecoveryDecision decision;

    // Conclusive evidence (the quarantine grew) abandons the current
    // plan: first a registered window that avoids the quarantined
    // links (possibly freshly re-tuned by the hook), then a verified
    // recompile on the degraded topology, then the blind fallback.
    // Transient evidence (stall/degrade below the threshold) retries
    // the same plan after a bounded deterministic backoff until the
    // budget is spent.
    bool quarantine_changed = health_.quarantined() != lastQuarantine_;
    if (quarantine_changed) {
        syncQuarantine(); // fires the retune hook
        const Registered *rewin = selectWindow(collective, bytes);
        if (rewin != nullptr) {
            decision.action = RecoveryAction::Switch;
            decision.plan.program = rewin->ir;
            decision.plan.source = PlanSource::Window;
            return decision;
        }
        if (std::optional<IrProgram> replan =
                replanProgram(collective, lastQuarantine_, bytes)) {
            decision.action = RecoveryAction::Switch;
            decision.plan.program = std::move(*replan);
            decision.plan.source = PlanSource::Replan;
            return decision;
        }
    } else if (!health_.transientBudgetSpent()) {
        decision.action = RecoveryAction::Backoff;
        decision.backoffUs = health_.nextBackoffUs();
        return decision;
    }
    auto fallback = fallbacks_.find(collective);
    if (fallback == fallbacks_.end()) {
        decision.action = RecoveryAction::GiveUp;
        return decision;
    }
    decision.action = RecoveryAction::Switch;
    decision.plan.program = fallback->second(bytes);
    decision.plan.source = PlanSource::Fallback;
    return decision;
}

RunResult
Communicator::run(const std::string &collective,
                  const RunOptions &options)
{
    health_.beginRun();

    PlanChoice choice = selectPlan(collective, options.bytes);

    // Attempt loop. Fault events are transient: the working copy of
    // the schedule drops events an aborted attempt already fired, so
    // the retry replays only the remaining script — deterministic,
    // and a mid-kernel link-down does not re-kill the recovery plan.
    FaultSchedule working = topology_.faultSchedule();
    sortByTimestamp(working);

    // Progress-aware recovery: only a program that mutates its input
    // needs the snapshot/rollback machinery. Copy-only collectives
    // (allgather, broadcast, alltoall) leave their inputs intact, so
    // an aborted attempt is repaired by simply running again.
    DataStore::Snapshot snapshot;
    bool have_snapshot = false;
    bool rolled_back = false;

    int attempts = 0;
    int faults_total = 0;
    double total_time = 0.0;
    double backoff_total = 0.0;
    int max_attempts = std::max(1, options.maxAttempts);
    for (;;) {
        if (options.dataMode && !have_snapshot &&
            choice.program.mutatesInput()) {
            snapshot = store_.snapshot();
            have_snapshot = true;
        }
        attempts = saturatingIncrement(attempts);
        RunResult result =
            runAttempt(choice.program, options, &working);
        faults_total += result.stats.faultsSeen;
        total_time = saturatingAddUs(total_time, result.timeUs);

        // Feed the monitor before consuming anything: the fired
        // indices refer to the armed (working) schedule.
        for (int index : result.stats.firedFaults) {
            if (index >= 0 &&
                index < static_cast<int>(working.events.size())) {
                health_.noteFault(working.events[index]);
            }
        }

        if (!result.stats.aborted) {
            health_.noteSuccess(programLinks(choice.program));
            result.attempts = attempts;
            result.faultsSeen = faults_total;
            result.degraded = attempts > 1;
            result.recoveredViaReplan =
                choice.source == PlanSource::Replan;
            result.backoffUs = backoff_total;
            result.totalTimeUs =
                saturatingAddUs(total_time, backoff_total);
            result.rolledBack = rolled_back;
            if (choice.source == PlanSource::Fallback)
                result.algorithm += " (fallback)";
            else if (choice.source == PlanSource::Replan)
                result.algorithm += " (replan)";
            syncQuarantine();
            result.quarantinedLinks = lastQuarantine_;
            return result;
        }

        // Abort: attribute the blocked thread blocks to their links.
        health_.noteBlocked(result.stats.blockedLinks);
        if (attempts >= max_attempts) {
            // The distinct budget-exhausted spelling keeps "ran out
            // of attempts" tellable apart from "no recovery route"
            // in logs and workload availability reports.
            throw RuntimeError(strprintf(
                "retry budget exhausted: run '%s' at %s aborted "
                "after %d attempt(s) (%d fault(s) seen): %s",
                collective.c_str(),
                formatBytes(options.bytes).c_str(), attempts,
                faults_total, result.stats.abortReason.c_str()));
        }
        consumeFired(working, result.stats.firedFaults);
        if (options.dataMode && have_snapshot) {
            store_.restore(snapshot);
            rolled_back = true;
        }

        RecoveryDecision decision =
            decideRecovery(collective, options.bytes);
        switch (decision.action) {
          case RecoveryAction::Backoff:
            backoff_total =
                saturatingAddUs(backoff_total, decision.backoffUs);
            continue;
          case RecoveryAction::Switch:
            choice = std::move(decision.plan);
            continue;
          case RecoveryAction::GiveUp:
            throw RuntimeError(strprintf(
                "run '%s' at %s aborted and no recovery plan or "
                "fallback is registered: %s", collective.c_str(),
                formatBytes(options.bytes).c_str(),
                result.stats.abortReason.c_str()));
        }
    }
}

RunResult
Communicator::runProgram(const IrProgram &ir, const RunOptions &options)
{
    return runAttempt(ir, options, nullptr);
}

RunResult
Communicator::runAttempt(const IrProgram &ir, const RunOptions &options,
                         const FaultSchedule *faults)
{
    ExecOptions exec;
    exec.dataMode = options.dataMode;
    exec.bytesPerRank = options.bytes;
    exec.maxTilesPerChunk = options.maxTilesPerChunk;
    exec.launchOverheadUs = topology_.params().kernelLaunchUs;
    exec.watchdogTimeoutUs = options.watchdogTimeoutUs;
    exec.watchdogNoProgressUs = options.watchdogNoProgressUs;
    exec.faults = faults;
    exec.profile = options.profile;
    if (options.dataMode)
        store_.configure(ir, options.bytes);
    ExecStats stats = runIr(topology_, ir, exec,
                            options.dataMode ? &store_ : nullptr);
    RunResult result;
    result.stats = std::move(stats);
    result.timeUs = result.stats.durationUs();
    result.algorithm = ir.name;
    result.faultsSeen = result.stats.faultsSeen;
    return result;
}

RunResult
Communicator::runComposed(const std::vector<const IrProgram *> &irs,
                          const RunOptions &options)
{
    if (irs.empty())
        throw RuntimeError("runComposed: empty program list");

    // One fault timeline spans the whole composition: timestamps are
    // relative to the composition's start, each kernel sees the
    // schedule rebased by the time already elapsed, and fired events
    // are consumed so they do not re-fire in later kernels.
    FaultSchedule working = topology_.faultSchedule();
    sortByTimestamp(working);
    double elapsed_us = 0.0;

    RunResult total;
    for (const IrProgram *ir : irs) {
        FaultSchedule local;
        local.events.reserve(working.events.size());
        for (const FaultEvent &event : working.events) {
            FaultEvent rebased = event;
            rebased.atUs = std::max(0.0, event.atUs - elapsed_us);
            local.events.push_back(rebased);
        }
        RunResult step = runAttempt(*ir, options, &local);
        total.timeUs = saturatingAddUs(total.timeUs, step.timeUs);
        total.totalTimeUs =
            saturatingAddUs(total.totalTimeUs, step.timeUs);
        total.stats.messages += step.stats.messages;
        total.stats.wireBytes += step.stats.wireBytes;
        total.stats.faultsSeen += step.stats.faultsSeen;
        total.faultsSeen += step.stats.faultsSeen;
        if (!total.algorithm.empty())
            total.algorithm += "+";
        total.algorithm += ir->name;
        // `local` preserves `working`'s order 1:1, so the fired
        // indices consume directly.
        consumeFired(working, step.stats.firedFaults);
        elapsed_us += step.timeUs;
        if (step.stats.aborted) {
            // The chain stops at the failing kernel; the caller gets
            // its report and the partial aggregate.
            total.stats.aborted = true;
            total.stats.abortReason = step.stats.abortReason;
            total.stats.blockedLinks = step.stats.blockedLinks;
            break;
        }
    }
    return total;
}

} // namespace mscclang
