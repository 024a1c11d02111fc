/**
 * @file
 * End-to-end benchmark of the MSCCLang pipeline (see README.md in this
 * directory). One process runs one workload for a fixed wall-clock
 * budget through the library's public API:
 *
 *   compile-big   cold compiles of four large programs, then the same
 *                 set served from a primed PlanCache;
 *   sim-sweep     four precompiled 64-rank plans run on a seeded
 *                 64 KiB - 64 MiB size ladder, closed loop;
 *   fleet-replay  a seeded 2056-op inference traffic mix replayed open
 *                 loop over a 16-rank, two-node machine under a
 *                 node-boundary link-flap storm, with self-healing on.
 *
 * Every run sets up in rounds spread over its first passes (setup_s is
 * the median set-up), runs timed passes until the budget is spent
 * (pass_s and plan_hit_ms sum the fastest time of each part of a
 * pass), then checks its outputs. Wall times are reported in
 * reference-host time: scaled by the fastest times of fixed,
 * library-independent kernels in the same run (HostReference in
 * harness.h), which cancels much of the co-tenant drift.
 * With --trace 1 every other pass is traced: spans and counters are
 * recorded here, around calls into each module's public functions,
 * and the untraced passes give the tracing overhead.
 *
 * Usage: perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1> [--spans <path>]
 *
 * Prints a human-readable report and, as its last line, one JSON
 * object holding every metric with its unit and sample count. Exits 1
 * when any output check failed, 2 on bad arguments or an unoptimised
 * build.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/chunk_dag.h"
#include "compiler/compiler.h"
#include "compiler/plan_cache.h"
#include "compiler/verifier.h"
#include "harness.h"
#include "topology/topology.h"
#include "workload/replay.h"

using namespace mscclang;
using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr std::size_t kSetUpRounds = 8;
constexpr double kSetUpRoundS = 0.25;
/** Plan-cache hits of a few ms are timed as the fastest of this many. */
constexpr int kHitRepeats = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/**
 * Wall times of one pass, one entry per part, in the units of the
 * metrics they feed. A part is work every pass repeats identically:
 * one program, one plan's ladder, the replay.
 */
struct PassTimes
{
    std::vector<double> partS;
    std::vector<double> hitMs;
};

/** One simulated collective execution, for the simulated metrics. */
struct Execution
{
    std::string collective;
    std::uint64_t bytes = 0;
    int ranks = 0;
    /** Execution time (start to completion), simulated us. */
    double execUs = 0.0;
    /** Latency from when the op was due, simulated us. */
    double latencyUs = 0.0;
    bool completed = true;
};

/**
 * A workload: set-up (timed, repeated), timed passes, and the
 * once-per-run checks. Passes receive a disabled tracer when untraced.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setUp(Tracer &tracer) = 0;
    virtual PassTimes pass(Tracer &tracer, Ledger &ledger) = 0;
    virtual void check(Tracer &tracer, Ledger &ledger) = 0;
    /** The simulated executions the collective-time metrics cover. */
    virtual std::vector<Execution> executions() const = 0;
    /** Workload-specific metrics (fleet availability, ...). */
    virtual void report(std::map<std::string, Metric> &) const {}
};

std::string
sizeLabel(std::uint64_t bytes)
{
    return std::to_string(bytes / 1024) + "KiB";
}

/**
 * The traced compile profile of one program: compileProgram's phases
 * called one by one, a whole compileProgram beside them (so a phase
 * added to or removed from compileProgram shows as a gap), the cache key
 * derivation, the race check that `verify` does not yet run, and the
 * IR emission. Runs only under an enabled tracer.
 */
void
diagnoseCompile(Tracer &tracer, Ledger &ledger, const Program &program,
                const CompileOptions &options)
{
    if (!tracer.enabled())
        return;
    tracer.add("collectives.trace.ops",
               static_cast<double>(program.ops().size()));
    tracer.span("compiler.plan_cache.fingerprint_ms",
                [&] { return fingerprintProgram(program); });
    tracer.span("compiler.plan_cache.key_ms",
                [&] { return planCacheKey(program, options); });

    // The phase sum includes freeing the intermediate graphs, as the
    // compileProgram span does.
    auto t0 = Clock::now();
    {
        tracer.span("compiler.chunk_dag.ms", [&] {
            ChunkDag dag(program);
            tracer.add("compiler.chunk_dag.critical_path",
                       dag.criticalPathLength());
        });
        InstrGraph graph = tracer.span(
            "compiler.lower.ms", [&] { return lowerProgram(program); });
        tracer.add("compiler.lower.instrs", graph.numLive());
        if (options.fuse) {
            FusionStats fusion = tracer.span(
                "compiler.fuse.ms", [&] { return fuseInstructions(graph); });
            tracer.add("compiler.fuse.rcs", fusion.rcs);
            tracer.add("compiler.fuse.rrcs", fusion.rrcs);
            tracer.add("compiler.fuse.rrs", fusion.rrs);
        }
        tracer.add("compiler.fuse.instrs", graph.numLive());
        ScheduleOptions sched;
        sched.maxThreadBlocks = options.maxThreadBlocks;
        sched.topology = options.topology;
        IrProgram ir = tracer.span("compiler.schedule.ms", [&] {
            return scheduleProgram(program, graph, sched);
        });
        tracer.add("compiler.schedule.thread_blocks", ir.maxThreadBlocks());
        tracer.add("compiler.schedule.channels", ir.numChannels());
        if (options.verify) {
            VerifyOptions verify;
            verify.slots = options.verifySlots;
            tracer.span("compiler.verifier.ir_ms", [&] {
                verifyIr(ir, program.collective(), verify);
            });
        }
    }
    tracer.add("compiler.phases_sum.ms", msSince(t0));

    Compiled compiled = tracer.span("compiler.compile.ms", [&] {
        return compileProgram(program, options);
    });
    std::string race;
    tracer.span("compiler.verifier.race_ms", [&] {
        try {
            verifyRaceFree(compiled.ir);
        } catch (const Error &e) {
            race = e.what();
        }
    });
    ledger.check(race.empty(), program.options().name + ": " + race);
    std::string xml =
        tracer.span("ir.emit.ms", [&] { return compiled.ir.toXml(); });
    tracer.add("ir.emit.bytes", static_cast<double>(xml.size()));
    tracer.add("ir.instructions", compiled.ir.totalInstructions());
}

/** Runs @p fn, turning a library exception into a failed operation. */
template <typename Fn>
bool
guarded(Ledger &ledger, const std::string &what, Fn &&fn)
{
    try {
        fn();
        return true;
    } catch (const std::exception &e) {
        ledger.check(false, what + ": " + e.what());
        return false;
    }
}

// ---------------------------------------------------------------------
// compile-big

struct BigProgram
{
    std::string name;
    std::string machine;
    std::function<std::unique_ptr<Program>()> make;
    /** A small-rank member of the same family, checked in data mode. */
    std::string smallMachine;
    std::function<std::unique_ptr<Program>()> makeSmall;
};

class CompileBig : public Workload
{
  public:
    explicit CompileBig(std::uint64_t seed) : seed_(seed)
    {
        AlgoConfig simple;
        AlgoConfig two;
        two.instances = 2;
        programs_ = {
            { "ring_allreduce_256", "generic:32:8",
              [=] { return makeRingAllReduce(256, 1, simple); },
              "generic:1:8",
              [=] { return makeRingAllReduce(8, 1, simple); } },
            { "hierarchical_allreduce_64x8", "generic:64:8",
              [=] { return makeHierarchicalAllReduce(64, 8, 1, simple); },
              "generic:2:4",
              [=] { return makeHierarchicalAllReduce(2, 4, 1, simple); } },
            { "ring_allgather_256_ch2_r2", "generic:32:8",
              [=] { return makeRingAllGather(256, 2, two); },
              "generic:1:8",
              [=] { return makeRingAllGather(8, 2, two); } },
            { "twostep_alltoall_16x8", "generic:16:8",
              [=] { return makeTwoStepAllToAll(16, 8, simple); },
              "generic:2:4",
              [=] { return makeTwoStepAllToAll(2, 4, simple); } },
        };
    }

    void
    setUp(Tracer &) override
    {
        topologies_.clear();
        for (const BigProgram &p : programs_)
            topologies_.emplace(p.machine, parseTopology(p.machine));
    }

    PassTimes
    pass(Tracer &tracer, Ledger &ledger) override
    {
        PassTimes times;
        PlanCache cache(16);
        std::vector<std::unique_ptr<Program>> traced(programs_.size());
        std::vector<Compiled> cold(programs_.size());

        for (std::size_t i = 0; i < programs_.size(); i++) {
            auto t0 = Clock::now();
            guarded(ledger, programs_[i].name, [&] {
                traced[i] = tracer.span("collectives.trace.ms",
                                        programs_[i].make);
                cold[i] = tracer.span("compiler.plan_cache.miss_ms", [&] {
                    return cache.compile(*traced[i], options_);
                });
            });
            times.partS.push_back(msSince(t0) / 1000.0);
        }

        std::vector<Compiled> warm(programs_.size());
        for (std::size_t i = 0; i < programs_.size(); i++) {
            if (!traced[i])
                continue;
            auto t1 = Clock::now();
            warm[i] = tracer.span("compiler.plan_cache.hit_ms", [&] {
                return cache.compile(*traced[i], options_);
            });
            times.hitMs.push_back(msSince(t1));
        }
        tracer.add("compiler.plan_cache.hits",
                   static_cast<double>(cache.hits()));
        tracer.add("compiler.plan_cache.misses",
                   static_cast<double>(cache.misses()));
        ledger.check(cache.hits() == programs_.size() &&
                         cache.misses() == programs_.size(),
                     "compile-big: primed cache did not serve every "
                     "program");

        // Outside the timed regions: every plan is byte-identical to
        // the first pass's and to its own cache hit.
        for (std::size_t i = 0; i < programs_.size(); i++) {
            if (!traced[i])
                continue;
            const std::string &name = programs_[i].name;
            ledger.check(warm[i].ir == cold[i].ir,
                         name + ": cache hit differs from the miss");
            std::string xml = cold[i].ir.toXml();
            if (xmlHash_.size() < programs_.size())
                xmlHash_.push_back(fnv1a(xml));
            else
                checkPlanBytes(ledger, name, xmlHash_[i], xml);
            diagnoseCompile(tracer, ledger, *traced[i], options_);
        }
        plans_ = std::move(cold);
        return times;
    }

    void
    check(Tracer &tracer, Ledger &ledger) override
    {
        std::vector<std::uint64_t> probe_sizes = probeSizes();
        for (std::size_t i = 0; i < programs_.size(); i++) {
            const BigProgram &p = programs_[i];
            const IrProgram &ir = plans_[i].ir;
            if (ir.numRanks == 0)
                continue;
            std::string race;
            try {
                verifyRaceFree(ir);
            } catch (const Error &e) {
                race = e.what();
            }
            ledger.check(race.empty(), p.name + ": " + race);

            // Schedule quality of the compiled plan: one small and one
            // large collective in timing mode.
            Communicator comm(topologies_.at(p.machine));
            for (std::uint64_t bytes : probe_sizes) {
                SimProfile profile;
                RunOptions run;
                run.bytes = bytes;
                run.profile = tracer.enabled() ? &profile : nullptr;
                guarded(ledger, p.name, [&] {
                    RunResult r = tracer.span("runtime.run.ms", [&] {
                        return comm.runProgram(ir, run);
                    });
                    tracer.addProfile(profile);
                    tracer.add("runtime.messages",
                               static_cast<double>(r.stats.messages));
                    tracer.add("runtime.wire_bytes", r.stats.wireBytes);
                    bool ok = ledger.check(!r.stats.aborted,
                                           p.name + " " +
                                               sizeLabel(bytes) +
                                               ": aborted");
                    execs_.push_back({ ir.collective, bytes, ir.numRanks,
                                       r.timeUs, r.timeUs, ok });
                });
            }

            // The small-rank member of the family moves real data.
            guarded(ledger, p.name + " (small)", [&] {
                std::unique_ptr<Program> small = p.makeSmall();
                Compiled c = compileProgram(*small, options_);
                Topology topo = parseTopology(p.smallMachine);
                DataRun run = runDataMode(topo, c.ir, 64 * 1024, seed_);
                checkDataRun(ledger, p.name + " (small)",
                             small->collective(),
                             small->options().reduceOp, run);
            });
        }
    }

    std::vector<Execution>
    executions() const override
    {
        return execs_;
    }

  private:
    /** One seeded size per band, drawn narrowly so every seed probes
     *  nearly the same point: [224, 256) KiB and [16, 18) MiB. */
    std::vector<std::uint64_t>
    probeSizes() const
    {
        Rng rng(seed_ ^ 0x9b0be5ULL);
        std::uint64_t small =
            (224 * 1024 + rng.nextBelow(32 * 1024)) / 4096 * 4096;
        std::uint64_t large =
            ((16ULL << 20) + rng.nextBelow(2ULL << 20)) / 4096 * 4096;
        return { small, large };
    }

    std::uint64_t seed_;
    CompileOptions options_; // verify on
    std::vector<BigProgram> programs_;
    std::map<std::string, Topology> topologies_;
    std::vector<std::uint64_t> xmlHash_;
    std::vector<Compiled> plans_;
    std::vector<Execution> execs_;
};

// ---------------------------------------------------------------------
// sim-sweep

class SimSweep : public Workload
{
  public:
    explicit SimSweep(std::uint64_t seed)
        : seed_(seed), ladder_(sweepLadder(seed)),
          topology_(parseTopology("ndv4:8"))
    {
        AlgoConfig ring;
        ring.instances = 8;
        ring.protocol = Protocol::LL128;
        AlgoConfig simple;
        AlgoConfig two;
        two.instances = 2;
        makers_ = {
            [=] { return makeRingAllReduce(64, 4, ring); },
            [=] { return makeHierarchicalAllReduce(8, 8, 8, simple); },
            [=] { return makeTwoStepAllToAll(8, 8, simple); },
            [=] { return makeRingAllGather(64, 2, two); },
        };
    }

    void
    setUp(Tracer &) override
    {
        cache_ = std::make_unique<PlanCache>(16);
        programs_.clear();
        plans_.clear();
        topology_ = parseTopology("ndv4:8");
        for (const auto &make : makers_) {
            programs_.push_back(make());
            plans_.push_back(cache_->compile(*programs_.back()).ir);
        }
    }

    PassTimes
    pass(Tracer &tracer, Ledger &ledger) override
    {
        PassTimes times;
        Communicator comm(topology_);
        std::vector<Execution> execs;
        std::vector<std::pair<std::int64_t, std::uint64_t>> record;
        SimProfile profile;
        for (const IrProgram &ir : plans_) {
            auto t0 = Clock::now();
            for (std::uint64_t bytes : ladder_) {
                RunOptions run;
                run.bytes = bytes;
                run.profile = tracer.enabled() ? &profile : nullptr;
                RunResult r = tracer.span("runtime.run.ms", [&] {
                    return comm.runProgram(ir, run);
                });
                ledger.check(!r.stats.aborted,
                             ir.name + " " + sizeLabel(bytes) +
                                 ": aborted");
                tracer.add("runtime.messages",
                           static_cast<double>(r.stats.messages));
                tracer.add("runtime.wire_bytes", r.stats.wireBytes);
                execs.push_back({ ir.collective, bytes, ir.numRanks,
                                  r.timeUs, r.timeUs, !r.stats.aborted });
                record.emplace_back(r.stats.endNs - r.stats.startNs,
                                    r.stats.messages);
            }
            times.partS.push_back(msSince(t0) / 1000.0);
        }
        tracer.addProfile(profile);

        std::size_t hits = cache_->hits();
        std::size_t misses = cache_->misses();
        for (const auto &program : programs_) {
            times.hitMs.push_back(fastestOf(kHitRepeats, [&] {
                tracer.span("compiler.plan_cache.hit_ms",
                            [&] { return cache_->compile(*program); });
            }));
        }
        tracer.add("compiler.plan_cache.hits",
                   static_cast<double>(cache_->hits() - hits));
        tracer.add("compiler.plan_cache.misses",
                   static_cast<double>(cache_->misses() - misses));

        // Simulated time is deterministic: every pass must reproduce
        // the first one's end times and message counts.
        if (record_.empty()) {
            record_ = record;
            execs_ = execs;
        } else {
            ledger.check(record == record_,
                         "sim-sweep: endNs/messages differ from the "
                         "first pass");
        }
        return times;
    }

    void
    check(Tracer &tracer, Ledger &ledger) override
    {
        CompileOptions options;
        for (std::size_t i = 0; i < programs_.size(); i++) {
            const Program &program = *programs_[i];
            if (tracer.enabled())
                tracer.span("collectives.trace.ms", makers_[i]);
            // Output buffers stay at 512 KiB per rank: an allgather's
            // output is 64x its input.
            auto bytes = static_cast<std::uint64_t>(
                512 * 1024 / std::max(1.0, plans_[i].outputScale));
            guarded(ledger, program.options().name, [&] {
                diagnoseCompile(tracer, ledger, program, options);
                DataRun run = runDataMode(topology_, plans_[i], bytes, seed_);
                checkDataRun(ledger, plans_[i].name,
                             program.collective(),
                             program.options().reduceOp, run);
            });
        }
    }

    std::vector<Execution>
    executions() const override
    {
        return execs_;
    }

  private:
    std::uint64_t seed_;
    std::vector<std::uint64_t> ladder_;
    Topology topology_;
    std::vector<std::function<std::unique_ptr<Program>()>> makers_;
    std::unique_ptr<PlanCache> cache_;
    std::vector<std::unique_ptr<Program>> programs_;
    std::vector<IrProgram> plans_;
    std::vector<std::pair<std::int64_t, std::uint64_t>> record_;
    std::vector<Execution> execs_;
};

// ---------------------------------------------------------------------
// fleet-replay

class FleetReplay : public Workload
{
  public:
    explicit FleetReplay(std::uint64_t seed)
        : seed_(seed), topology_(parseTopology(kMachine))
    {
        options_.selfHealing = true;
        // Ops of 16 MiB stay busy for longer than the default 250 us
        // without finishing an instruction; a 1 ms no-progress window
        // keeps the watchdog to real stalls.
        options_.watchdogNoProgressUs = 1000.0;
        options_.maxAttempts = 8;
    }

    void
    setUp(Tracer &tracer) override
    {
        // Every set-up starts from an empty process-wide plan cache,
        // so registration compiles cold each time.
        PlanCache::global().clear();
        topology_ = parseTopology(kMachine);
        spec_ = fleetSpec(seed_);
        storm_ = buildStorm();
        Communicator comm(topology_, health());
        tracer.span("workload.register_plans.ms",
                    [&] { registerWorkloadPlans(comm, spec_); });
        baseline_ = tracer.span("workload.baseline_replay.ms", [&] {
            return replayWorkload(comm, spec_, FaultSchedule{}, options_);
        });
    }

    PassTimes
    pass(Tracer &tracer, Ledger &ledger) override
    {
        PassTimes times;
        std::vector<std::unique_ptr<Communicator>> comms;
        for (int i = 0; i < kHitRepeats; i++)
            comms.push_back(
                std::make_unique<Communicator>(topology_, health()));
        std::size_t next = 0;
        times.hitMs.push_back(fastestOf(kHitRepeats, [&] {
            registerWorkloadPlans(*comms[next++], spec_);
        }));
        Communicator &comm = *comms.back();

        SimProfile profile;
        ReplayOptions options = options_;
        options.profile = tracer.enabled() ? &profile : nullptr;
        auto t1 = Clock::now();
        ReplayResult result = tracer.span("workload.replay.ms", [&] {
            return replayWorkload(comm, spec_, storm_, options);
        });
        times.partS.push_back(msSince(t1) / 1000.0);
        SloReport slo = tracer.span("workload.slo.ms", [&] {
            return buildSloReport(spec_, result, &baseline_, options_);
        });
        tracer.addProfile(profile);

        int attempts = 0;
        int completed = 0;
        double lag = 0.0;
        for (const OpRecord &op : result.ops) {
            ledger.check(op.completed,
                         "fleet op " + std::to_string(op.stream) + "." +
                             std::to_string(op.op) + " failed: " +
                             op.failReason);
            attempts += op.attempts;
            completed += op.completed ? 1 : 0;
            lag += op.startUs - op.issueUs;
        }
        tracer.add("workload.replan_compiles", result.replanCompiles);
        tracer.add("workload.quarantine_changes", result.quarantineChanges);
        tracer.add("workload.faults_fired", result.faultsFired);
        tracer.add("workload.retries", slo.fleet.retries);
        tracer.add("workload.backoffs", slo.fleet.backoffs);
        tracer.add("workload.fallbacks", slo.fleet.fallbacks);
        tracer.add("workload.completed_per_attempt",
                   attempts ? static_cast<double>(completed) / attempts
                            : 0.0);
        tracer.add("workload.dispatch_lag_us",
                   result.ops.empty() ? 0.0 : lag / result.ops.size());

        // The replay is deterministic: every pass reproduces the
        // first one's op records and fleet counters.
        if (fingerprint_ == 0) {
            fingerprint_ = result.fingerprint();
            result_ = result;
            slo_ = slo;
        } else {
            ledger.check(result.fingerprint() == fingerprint_,
                         "fleet-replay: replay fingerprint differs from "
                         "the first pass");
        }
        return times;
    }

    void
    check(Tracer &tracer, Ledger &ledger) override
    {
        // The repair plan the storm forces once the flapping NIC is
        // quarantined: a ring re-formed around it, compiled against
        // the degraded machine the way the communicator's replanner
        // does, then checked in data mode on that machine.
        std::vector<Link> dead;
        for (ResourceId id : flappingNic()) {
            for (const Link &link : topology_.linksUsingResource(id))
                dead.push_back(link);
        }
        Topology degraded = topology_.degraded(dead);
        AlgoConfig simple;
        guarded(ledger, "fleet replan", [&] {
            std::unique_ptr<Program> plan =
                tracer.span("collectives.trace.ms", [&] {
                    return makeRingAllReduceOver(findRingOrder(degraded),
                                                 1, simple);
                });
            CompileOptions options;
            options.topology = &degraded;
            diagnoseCompile(tracer, ledger, *plan, options);
            PlanCache cache(4);
            Compiled compiled = cache.compile(*plan, options);
            tracer.span("compiler.plan_cache.hit_ms",
                        [&] { return cache.compile(*plan, options); });
            tracer.add("compiler.plan_cache.hits",
                       static_cast<double>(cache.hits()));
            tracer.add("compiler.plan_cache.misses",
                       static_cast<double>(cache.misses()));
            DataRun run = tracer.span("runtime.run.ms", [&] {
                return runDataMode(degraded, compiled.ir, 256 * 1024,
                                   seed_);
            });
            tracer.add("runtime.messages",
                       static_cast<double>(run.result.stats.messages));
            tracer.add("runtime.wire_bytes", run.result.stats.wireBytes);
            checkDataRun(ledger, "fleet replan", plan->collective(),
                         plan->options().reduceOp, run);
        });
    }

    /** Collective times come from the fault-free baseline replay: the
     *  fleet's contention without the storm, whose cost shows in
     *  availability and goodput instead. */
    std::vector<Execution>
    executions() const override
    {
        std::vector<Execution> execs;
        for (const OpRecord &op : baseline_.ops) {
            execs.push_back({ op.collective, op.bytes,
                              topology_.numRanks(),
                              op.doneUs - op.startUs, op.latencyUs,
                              op.completed });
        }
        return execs;
    }

    void
    report(std::map<std::string, Metric> &metrics) const override
    {
        std::size_t ops = result_.ops.size();
        metrics["availability"] = { slo_.fleet.availability, "frac", ops };
        metrics["goodput_gbps"] = { slo_.fleet.goodputGBps, "GB/s", ops };
        metrics["op_p50_us"] = { slo_.fleet.p50Us, "us", ops };
        metrics["op_p99_us"] = { slo_.fleet.p99Us, "us", ops };
    }

  private:
    HealthOptions
    health() const
    {
        HealthOptions h;
        h.seed = seed_;
        return h;
    }

    /** The send side of node 0's boundary NIC: the hop the
     *  rank-order ring crosses. */
    std::vector<ResourceId>
    flappingNic() const
    {
        return resourcesMatching(topology_, "ib-send[0.7]");
    }

    /** Twenty 2.5 ms outages of the boundary NIC, one every 15 ms. */
    FaultSchedule
    buildStorm() const
    {
        return makeLinkFlapStorm(flappingNic(), 20, 15000.0, 2500.0,
                                 2000.0);
    }

    static constexpr const char *kMachine = "generic:2:8";

    std::uint64_t seed_;
    Topology topology_;
    ReplayOptions options_;
    WorkloadSpec spec_;
    FaultSchedule storm_;
    ReplayResult baseline_;
    std::uint64_t fingerprint_ = 0;
    ReplayResult result_;
    SloReport slo_;
};

// ---------------------------------------------------------------------
// Main loop

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "compile-big")
        return std::make_unique<CompileBig>(seed);
    if (name == "sim-sweep")
        return std::make_unique<SimSweep>(seed);
    if (name == "fleet-replay")
        return std::make_unique<FleetReplay>(seed);
    return nullptr;
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** The simulated metrics over a workload's collective executions. */
void
simulatedMetrics(const std::vector<Execution> &execs,
                 std::map<std::string, Metric> &metrics)
{
    std::vector<double> small, busbw, latency;
    double bytes = 0.0;
    double us = 0.0;
    int completed = 0;
    for (const Execution &e : execs) {
        if (!e.completed)
            continue;
        completed++;
        latency.push_back(e.latencyUs);
        bytes += static_cast<double>(e.bytes);
        us += e.execUs;
        if (e.bytes <= kSmallMaxBytes)
            small.push_back(e.execUs);
        if (e.bytes >= kLargeMinBytes)
            busbw.push_back(busBwGBps(e.collective, e.bytes, e.ranks,
                                      e.execUs));
    }
    metrics["coll_small_us"] = { geomean(small), "us", small.size() };
    metrics["busbw_gbps"] = { geomean(busbw), "GB/s", busbw.size() };
    // Workloads with their own fleet-level figures keep them.
    metrics.try_emplace("op_p50_us", Metric{ percentile(latency, 50), "us",
                                             latency.size() });
    metrics.try_emplace("op_p99_us", Metric{ percentile(latency, 99), "us",
                                             latency.size() });
    metrics.try_emplace(
        "availability",
        Metric{ execs.empty() ? 0.0
                              : static_cast<double>(completed) / execs.size(),
                "frac", execs.size() });
    metrics.try_emplace("goodput_gbps",
                        Metric{ us > 0 ? bytes / (us * 1e3) : 0.0, "GB/s",
                                latency.size() });
}

std::string
unitOf(const std::string &name)
{
    auto ends = [&](const char *suffix) {
        std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends(".ms") || ends("_ms"))
        return "ms";
    if (ends("_us"))
        return "us";
    if (ends("bytes"))
        return "bytes";
    if (ends("_per_attempt"))
        return "frac";
    return "count";
}

void
writeSpans(const std::string &path, const Tracer &tracer)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "[\n");
    const std::vector<Span> &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"start_ms\": %.6f, \"end_ms\": %.6f}%s\n",
                     i, s.name.c_str(), s.parent, s.startMs, s.endMs,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--spans")
            args.spansPath = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::fprintf(stderr, "perfbench: refusing to report numbers from an "
                         "unoptimised build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <compile-big|sim-sweep|"
                     "fleet-replay> --seed <n> --seconds <s> --trace <0|1>"
                     " [--spans <path>]\n");
        return 2;
    }
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, args.seed);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    unsigned host_cpus = std::thread::hardware_concurrency();
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "build_type=%s host_cpus=%u\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, host_cpus);

    Tracer tracer(args.trace);
    Tracer off(false);
    Ledger ledger;
    HostReference host;

    // Set-up runs in rounds, one before every other pass for the first
    // kSetUpRounds rounds, so its samples span the run as the passes
    // do and a slow spell of the shared host moves their median less.
    // A round sets up at least once and until kSetUpRoundS is spent;
    // set-up time does not count toward the pass budget. setup_s is
    // the median over every set-up.
    std::vector<double> setup_s;
    auto set_up_round = [&] {
        double round_s = 0.0;
        while (ledger.failed == 0 && round_s < kSetUpRoundS) {
            auto t0 = Clock::now();
            guarded(ledger, "set-up", [&] { workload->setUp(tracer); });
            setup_s.push_back(msSince(t0) / 1000.0);
            round_s += setup_s.back();
            std::printf("# set-up %zu: setup_s=%.6f\n", setup_s.size() - 1,
                        setup_s.back());
            tracer.commit();
        }
    };

    // Timed passes, each after one run of the reference kernels. A
    // traced run alternates untraced and traced passes; the untraced
    // ones give the end-to-end numbers, so the difference between the
    // two is the tracing overhead. Every pass repeats identical parts,
    // and co-tenant load on a shared host only ever slows a part, so
    // each part's fastest time is the steadiest estimate of its cost.
    std::size_t min_passes = args.trace ? 4 : 3;
    std::size_t passes = 0;
    std::size_t traced_passes = 0;
    std::vector<double> part_s, hit_ms, traced_part_s, traced_hit_ms;
    host.measureMs();
    auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    for (std::size_t i = 0; ledger.failed == 0 &&
                            (i < min_passes || Clock::now() < deadline);
         i++) {
        if (i % 2 == 0 && i / 2 < kSetUpRounds) {
            auto t0 = Clock::now();
            set_up_round();
            deadline += Clock::now() - t0;
            if (ledger.failed != 0)
                break;
        }
        bool traced = args.trace && i % 2 == 1;
        host.measureMs();
        PassTimes t;
        guarded(ledger, "pass", [&] {
            t = workload->pass(traced ? tracer : off, ledger);
        });
        std::printf("# pass %zu%s: pass_s=%.6f plan_hit_ms=%.6f "
                    "host_ref_ms=%.3f\n",
                    i, traced ? " (traced)" : "", sum(t.partS),
                    sum(t.hitMs), host.lastMs());
        keepFastest(traced ? traced_part_s : part_s, t.partS);
        keepFastest(traced ? traced_hit_ms : hit_ms, t.hitMs);
        (traced ? traced_passes : passes)++;
        if (traced)
            tracer.commit();
    }
    host.measureMs();
    guarded(ledger, "check", [&] { workload->check(tracer, ledger); });
    tracer.commit();

    // Wall-clock metrics are in reference-host time (see
    // HostReference); the wall.* metrics are the same figures as
    // measured on this host.
    double scale = host.scale();
    std::map<std::string, Metric> metrics;
    metrics["setup_s"] = { median(setup_s) * scale, "s", setup_s.size() };
    metrics["peak_rss_mb"] = { peakRssMb(), "MB", 1 };
    metrics["pass_s"] = { sum(part_s) * scale, "s", passes };
    metrics["plan_hit_ms"] = { sum(hit_ms) * scale, "ms", passes };
    metrics["wall.setup_s"] = { median(setup_s), "s", setup_s.size() };
    metrics["wall.pass_s"] = { sum(part_s), "s", passes };
    metrics["wall.plan_hit_ms"] = { sum(hit_ms), "ms", passes };
    metrics["bench.host_ref_ms"] = { host.fastestMs(), "ms",
                                     host.samples() };
    workload->report(metrics);
    simulatedMetrics(workload->executions(), metrics);
    if (args.trace) {
        double traced = sum(traced_part_s) * scale;
        double plain = sum(part_s) * scale;
        metrics["bench.traced_pass_s"] = { traced, "s", traced_passes };
        metrics["bench.traced_plan_hit_ms"] = { sum(traced_hit_ms) * scale,
                                                "ms", traced_passes };
        metrics["bench.trace_overhead_pct"] = {
            plain > 0 ? (traced - plain) / plain * 100.0 : 0.0, "%",
            traced_passes };
        for (const auto &[name, values] : tracer.samples()) {
            metrics[name] = { median(values), unitOf(name),
                              values.size() };
        }
        // Workload-layer counters read zero where no fleet runs.
        for (const char *name :
             { "workload.replan_compiles", "workload.quarantine_changes",
               "workload.faults_fired", "workload.retries",
               "workload.backoffs", "workload.fallbacks" }) {
            metrics.try_emplace(name, Metric{ 0.0, "count", 0 });
        }
        metrics.try_emplace("workload.completed_per_attempt",
                            Metric{ metrics["availability"].value, "frac",
                                    metrics["availability"].samples });
    }

    std::printf("%-40s %16s %-6s %s\n", "metric", "value", "unit",
                "samples");
    for (const auto &[name, m] : metrics) {
        std::printf("%-40s %16.6f %-6s %zu\n", name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
    std::printf("# attempted=%ld failed=%ld failed_frac=%.6f\n",
                ledger.attempted, ledger.failed,
                ledger.attempted
                    ? static_cast<double>(ledger.failed) / ledger.attempted
                    : 0.0);
    for (const std::string &why : ledger.reasons)
        std::printf("# FAILED: %s\n", why.c_str());
    if (!args.spansPath.empty() && args.trace)
        writeSpans(args.spansPath, tracer);

    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"seed\": %llu, \"host_cpus\": %u, \"build_type\": \"%s\", "
                "\"metrics\": {",
                ledger.failed == 0 ? "true" : "false", ledger.attempted,
                ledger.failed, static_cast<unsigned long long>(args.seed),
                host_cpus, PERFBENCH_BUILD_TYPE);
    bool first = true;
    for (const auto &[name, m] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"samples\": %zu}",
                    first ? "" : ", ", name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
        first = false;
    }
    std::printf("}}\n");
    return ledger.failed == 0 ? 0 : 1;
}
