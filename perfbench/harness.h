/**
 * @file
 * Building blocks of the end-to-end benchmark that carry no workload
 * logic: order statistics, the span/counter tracer, the seeded input
 * generators, and output checks. Kept in a header so the benchmark's
 * self-test exercises exactly the code the benchmark runs.
 */

#ifndef MSCCLANG_PERFBENCH_HARNESS_H_
#define MSCCLANG_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dsl/collective.h"
#include "runtime/communicator.h"
#include "runtime/reference.h"
#include "sim/profile.h"
#include "workload/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------------
// Order statistics

/** Median (mean of the two middle values for even counts); 0 when
 *  empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** Nearest-rank percentile, @p q in (0, 100]; 0 when empty. */
inline double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

/** Geometric mean of positive values; 0 when empty. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logs = 0.0;
    for (double v : values)
        logs += std::log(v);
    return std::exp(logs / static_cast<double>(values.size()));
}

/**
 * Element-wise minimum: @p fastest[i] becomes the smaller of itself and
 * @p values[i]; @p fastest grows to fit, taking the new values.
 */
inline void
keepFastest(std::vector<double> &fastest, const std::vector<double> &values)
{
    for (std::size_t i = 0; i < values.size(); i++) {
        if (i < fastest.size())
            fastest[i] = std::min(fastest[i], values[i]);
        else
            fastest.push_back(values[i]);
    }
}

/** The fastest wall ms of @p repeats calls of @p fn: one call of a
 *  millisecond operation is mostly host noise. */
template <typename Fn>
double
fastestOf(int repeats, Fn &&fn)
{
    double best = 0.0;
    for (int i = 0; i < repeats; i++) {
        auto t0 = Clock::now();
        fn();
        double ms = msSince(t0);
        best = i == 0 ? ms : std::min(best, ms);
    }
    return best;
}

inline double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

/** FNV-1a over a byte string: the identity of an emitted plan. */
inline std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ---------------------------------------------------------------------
// Host-speed reference

/**
 * A random cyclic permutation of 0..n-1 (Sattolo's algorithm): following
 * i -> p[i] from any start visits every index before it returns.
 */
inline std::vector<std::uint32_t>
singleCycle(std::uint32_t n, std::uint64_t seed)
{
    std::vector<std::uint32_t> p(n);
    for (std::uint32_t i = 0; i < n; i++)
        p[i] = i;
    mscclang::Rng rng(seed);
    for (std::uint32_t i = n - 1; i > 0; i--)
        std::swap(p[i], p[rng.nextBelow(i)]);
    return p;
}

/**
 * Two fixed kernels that do not touch the library: a dependent
 * multiply-xorshift chain (bound by the core's arithmetic latency) and
 * a dependent walk over a 64 MiB single-cycle permutation (every step a
 * load that misses the caches, as in the compiler's and simulator's
 * pointer-heavy graphs). Co-tenants of a shared host slow them as they
 * slow the library, for tens of seconds at a time. The reference time
 * is the sum of each kernel's fastest time; scaling wall times by
 * kNominalMs / fastestMs() reports them in reference-host time and
 * cancels much of that drift, while a change to the library moves them
 * one for one.
 */
class HostReference
{
  public:
    /** About the reference time on a quiet host of the kind the bounds
     *  were set on: 4 vCPUs of a shared Xeon host with a 105 MiB
     *  last-level cache. */
    static constexpr double kNominalMs = 70.0;

    explicit HostReference(std::uint32_t entries = 16u << 20,
                           int walk_steps = 250000,
                           int chain_steps = 15000000)
        : next_(singleCycle(entries, 0x4e0571ULL)), walkSteps_(walk_steps),
          chainSteps_(chain_steps)
    {
    }

    /** Runs both kernels once; returns and records their wall ms. */
    double
    measureMs()
    {
        auto t0 = Clock::now();
        std::uint64_t x = chain_;
        for (int i = 0; i < chainSteps_; i++) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            x ^= x >> 17;
        }
        chain_ = x;
        chainMs_.push_back(msSince(t0));

        auto t1 = Clock::now();
        std::uint32_t at = at_;
        for (int i = 0; i < walkSteps_; i++)
            at = next_[at];
        // Each kernel's end state seeds its next run, so neither can
        // be elided.
        at_ = at;
        walkMs_.push_back(msSince(t1));
        return lastMs();
    }

    /** The fastest chain plus the fastest walk; 0 before any run. */
    double
    fastestMs() const
    {
        if (walkMs_.empty())
            return 0.0;
        return *std::min_element(chainMs_.begin(), chainMs_.end()) +
               *std::min_element(walkMs_.begin(), walkMs_.end());
    }

    /** Factor from wall time on this host to reference-host time. */
    double
    scale() const
    {
        double fastest = fastestMs();
        return fastest > 0.0 ? kNominalMs / fastest : 1.0;
    }

    double
    lastMs() const
    {
        return walkMs_.empty() ? 0.0 : chainMs_.back() + walkMs_.back();
    }

    std::size_t samples() const { return walkMs_.size(); }

  private:
    std::vector<std::uint32_t> next_;
    int walkSteps_;
    int chainSteps_;
    std::uint32_t at_ = 0;
    std::uint64_t chain_ = 1;
    std::vector<double> chainMs_;
    std::vector<double> walkMs_;
};

// ---------------------------------------------------------------------
// Tracing

/** One recorded span; @c parent indexes the enclosing span or is -1. */
struct Span
{
    std::string name;
    int parent = -1;
    double startMs = 0.0;
    double endMs = 0.0;
};

/**
 * Spans and counters recorded by the benchmark around calls into the
 * library. Values accumulate into the current repetition (one set-up,
 * one pass, one check); commit() closes it, and a layer's reported
 * value is the median over the repetitions it occurred in. Disabled
 * tracers run the wrapped calls and record nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Runs @p fn inside a span named @p name, adding its wall ms to
     *  the metric of the same name. */
    template <typename Fn>
    auto
    span(const std::string &name, Fn &&fn) -> decltype(fn())
    {
        if (!enabled_)
            return fn();
        Open open(*this, name);
        return fn();
    }

    /** Adds @p value to metric @p name in the current repetition. */
    void
    add(const std::string &name, double value)
    {
        if (enabled_)
            current_[name] += value;
    }

    /** Folds a simulator phase profile into the current repetition. */
    void
    addProfile(const mscclang::SimProfile &p)
    {
        add("sim.event_queue.ms", p.eventQueueNs / 1e6);
        add("sim.flow_network.ms", p.flowNetworkNs / 1e6);
        add("sim.flow_callbacks.ms", p.flowCallbacksNs / 1e6);
        add("runtime.interp_parallel.ms", p.interpParallelNs / 1e6);
        add("runtime.interp_merge.ms", p.interpMergeNs / 1e6);
        add("sim.serial_events", static_cast<double>(p.serialEvents));
        add("sim.flow_batches", static_cast<double>(p.flowBatches));
        add("runtime.interp_batches",
            static_cast<double>(p.interpBatches));
    }

    /** Closes the current repetition. */
    void
    commit()
    {
        for (const auto &[name, value] : current_)
            samples_[name].push_back(value);
        current_.clear();
    }

    const std::map<std::string, std::vector<double>> &
    samples() const
    {
        return samples_;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    struct Open
    {
        Open(Tracer &t, const std::string &name) : tracer(t)
        {
            index = static_cast<int>(tracer.spans_.size());
            Span s;
            s.name = name;
            s.parent = tracer.stack_.empty() ? -1 : tracer.stack_.back();
            s.startMs = tracer.nowMs();
            tracer.spans_.push_back(std::move(s));
            tracer.stack_.push_back(index);
        }
        ~Open()
        {
            Span &s = tracer.spans_[index];
            s.endMs = tracer.nowMs();
            tracer.stack_.pop_back();
            tracer.current_[s.name] += s.endMs - s.startMs;
        }
        Open(const Open &) = delete;
        Open &operator=(const Open &) = delete;

        Tracer &tracer;
        int index = -1;
    };

    double nowMs() const { return msSince(origin_); }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> current_;
    std::map<std::string, std::vector<double>> samples_;
};

// ---------------------------------------------------------------------
// Seeded inputs. The library only ever sees what these return.

/**
 * The sim-sweep size ladder: one size per octave from 64 KiB up to
 * 64 MiB (exclusive), each drawn uniformly inside the lowest eighth of
 * its octave and rounded down to 4 KiB. The narrow draw keeps the
 * simulated work, and so the host time of a pass, nearly equal across
 * seeds.
 */
inline std::vector<std::uint64_t>
sweepLadder(std::uint64_t seed)
{
    mscclang::Rng rng(seed ^ 0x5eed1addeULL);
    std::vector<std::uint64_t> sizes;
    for (int k = 16; k < 26; k++) {
        std::uint64_t lo = std::uint64_t{ 1 } << k;
        std::uint64_t size = lo + rng.nextBelow(lo / 8);
        sizes.push_back(size / 4096 * 4096);
    }
    return sizes;
}

/** Simulated-size bands of the collective-time metrics. */
constexpr std::uint64_t kSmallMaxBytes = 256 * 1024;
constexpr std::uint64_t kLargeMinBytes = 16ULL << 20;

/**
 * The fleet-replay traffic: decode allreduces, a two-stage pipeline of
 * 16 MiB activation allgathers, MoE alltoalls and bursty allreduces,
 * merged into one spec of 2056 ops spanning about 380 ms of simulated
 * time. Only the generators' own seeded draws (decode jitter, MoE
 * sizes, burst jitter) vary with @p seed.
 */
inline mscclang::WorkloadSpec
fleetSpec(std::uint64_t seed)
{
    return mscclang::mergeSpecs(
        "fleet",
        { mscclang::makeDecodeWorkload(960, 256 * 1024, 400.0, seed),
          mscclang::makePipelineWorkload(2, 20, 16ULL << 20, 150.0),
          mscclang::makeMoeWorkload(480, 1 << 20, 600.0, seed + 1),
          mscclang::makeBurstyWorkload(72, 8, 128 * 1024, 5000.0,
                                       seed + 2) });
}

/**
 * Bus bandwidth in GB/s of one collective moving @p bytes per rank
 * over @p ranks in @p us, with the nccl-tests correction factors
 * (allgather @p bytes is the per-rank input; its output is ranks x).
 */
inline double
busBwGBps(const std::string &collective, std::uint64_t bytes, int ranks,
          double us)
{
    double n = ranks;
    double b = static_cast<double>(bytes);
    double moved = b * (n - 1.0) / n; // alltoall
    if (collective == "allreduce")
        moved = b * 2.0 * (n - 1.0) / n;
    else if (collective == "allgather")
        moved = b * (n - 1.0);
    return moved / (us * 1e-6) / 1e9;
}

// ---------------------------------------------------------------------
// Output checks

/** Attempted and failed operations, with the first few reasons. */
struct Ledger
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> reasons;

    /** Counts one operation; @p why is the failure when @p pass is
     *  false. Returns @p pass. */
    bool
    check(bool pass, const std::string &why)
    {
        attempted++;
        if (!pass) {
            failed++;
            if (reasons.size() < 16)
                reasons.push_back(why);
        }
        return pass;
    }
};

/** An emitted plan must be byte-identical to the first one emitted
 *  for the same request. */
inline bool
checkPlanBytes(Ledger &ledger, const std::string &what,
               std::uint64_t expected, const std::string &xml)
{
    return ledger.check(fnv1a(xml) == expected,
                        what + ": emitted IR differs from the first "
                               "compile");
}

/** Inputs and outputs of one data-mode run. */
struct DataRun
{
    std::vector<std::vector<float>> inputs;
    std::vector<std::vector<float>> outputs;
    mscclang::RunResult result;
};

/** Runs @p ir once in data mode on seeded inputs. */
inline DataRun
runDataMode(const mscclang::Topology &topology,
            const mscclang::IrProgram &ir, std::uint64_t bytes,
            std::uint64_t fill_seed)
{
    mscclang::Communicator comm(topology);
    comm.store().configure(ir, bytes);
    mscclang::Rng rng(fill_seed);
    DataRun run;
    for (int r = 0; r < ir.numRanks; r++) {
        std::vector<float> &buf = comm.store().input(r);
        for (float &v : buf)
            v = rng.nextSignedFloat();
        run.inputs.push_back(buf);
    }
    mscclang::RunOptions options;
    options.bytes = bytes;
    options.dataMode = true;
    run.result = comm.runProgram(ir, options);
    for (int r = 0; r < ir.numRanks; r++) {
        run.outputs.push_back(comm.store().buffer(
            r, mscclang::BufferKind::Output, ir.inPlace));
    }
    return run;
}

/** A data-mode run must complete and match the postcondition oracle. */
inline bool
checkDataRun(Ledger &ledger, const std::string &what,
             const mscclang::Collective &collective,
             mscclang::ReduceOp op, const DataRun &run)
{
    if (!ledger.check(!run.result.stats.aborted,
                      what + ": data-mode run aborted"))
        return false;
    std::string diff = mscclang::compareToReference(
        collective, run.inputs, run.outputs, op);
    return ledger.check(diff.empty(), what + ": " + diff);
}

} // namespace perfbench

#endif // MSCCLANG_PERFBENCH_HARNESS_H_
