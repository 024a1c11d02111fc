#include "runtime/tuner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/strings.h"
#include "runtime/health.h"
#include "runtime/interpreter.h"

namespace mscclang {

namespace {

/** True if @p ir communicates over any of @p quarantine (sorted). */
bool
linksCross(const IrProgram &ir, const std::vector<Link> &quarantine)
{
    std::vector<Link> links = programLinks(ir); // sorted
    auto il = links.begin();
    auto iq = quarantine.begin();
    while (il != links.end() && iq != quarantine.end()) {
        if (*il == *iq)
            return true;
        if (*il < *iq)
            ++il;
        else
            ++iq;
    }
    return false;
}

/** True when two programs are indistinguishable to the simulator
 *  (identical up to their display names). Copies of one plan share
 *  one body, and their gpus compare equal without a walk. */
bool
sameProgram(const IrProgram &a, const IrProgram &b)
{
    return a.numRanks == b.numRanks && a.inPlace == b.inPlace &&
        a.protocol == b.protocol && a.reduceOp == b.reduceOp &&
        a.outputScale == b.outputScale && a.gpus == b.gpus;
}

} // namespace

std::vector<std::uint64_t>
tuneSweepSizes(std::uint64_t from_bytes, std::uint64_t to_bytes)
{
    if (from_bytes == 0 || from_bytes > to_bytes)
        throw RuntimeError("tuneSweepSizes: bad size range");
    // Sweep points: powers-of-two multiples of from_bytes, clamped so
    // to_bytes itself is always the last point. This keeps the window
    // arithmetic exact at the edges the doubling loop used to
    // mishandle: from_bytes == to_bytes yields the single point,
    // non-power-of-two endpoints are measured rather than skipped,
    // and endpoints in the top bit range of std::uint64_t clamp
    // instead of wrapping the shift to zero.
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t s = from_bytes;;) {
        sizes.push_back(s);
        if (s >= to_bytes)
            break;
        if (s > to_bytes / 2) {
            sizes.push_back(to_bytes); // clamp the overshoot
            break;
        }
        s <<= 1;
    }
    return sizes;
}

std::vector<std::vector<double>>
sweepCandidateTimesUs(const Topology &topology,
                      const std::vector<const IrProgram *> &candidates,
                      const std::vector<std::uint64_t> &sizes,
                      const TuneOptions &options)
{
    if (candidates.empty() || sizes.empty())
        throw RuntimeError("sweepCandidateTimesUs: empty sweep");

    // The sweep points are independent simulations on an immutable
    // topology: fan them out over a worker pool. Workers claim
    // points off a shared counter and each writes only its own
    // matrix cell, so the filled matrix — and every window derived
    // from it — is the same for any thread count.
    std::vector<double> time_us(candidates.size() * sizes.size(), 0.0);
    size_t points = time_us.size();

    // Each simulation runs on one thread, so more workers than
    // hardware threads would only oversubscribe the machine.
    size_t hw = std::max(1u, std::thread::hardware_concurrency());
    size_t workers = std::min(
        { options.threads > 0 ? static_cast<size_t>(options.threads)
                              : hw,
          points, hw });

    auto simulate = [&](size_t point) {
        size_t u = point / sizes.size();
        size_t i = point % sizes.size();
        ExecOptions exec;
        exec.bytesPerRank = sizes[i];
        exec.maxTilesPerChunk = options.maxTilesPerChunk;
        exec.launchOverheadUs = topology.params().kernelLaunchUs;
        ExecStats stats = runIr(topology, *candidates[u], exec);
        time_us[point] = stats.durationUs();
    };

    if (workers <= 1) {
        for (size_t p = 0; p < points; p++)
            simulate(p);
    } else {
        std::atomic<size_t> next{ 0 };
        std::exception_ptr error;
        std::mutex error_mutex;
        auto drain = [&] {
            for (;;) {
                size_t p =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (p >= points)
                    return;
                try {
                    simulate(p);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    if (!error)
                        error = std::current_exception();
                    return;
                }
            }
        };
        // The caller is one of the workers: only workers-1 threads
        // are spawned.
        std::vector<std::thread> pool;
        pool.reserve(workers - 1);
        for (size_t w = 1; w < workers; w++)
            pool.emplace_back(drain);
        drain();
        for (std::thread &worker : pool)
            worker.join();
        if (error)
            std::rethrow_exception(error);
    }

    std::vector<std::vector<double>> matrix(candidates.size());
    for (size_t c = 0; c < candidates.size(); c++) {
        matrix[c].assign(time_us.begin() + c * sizes.size(),
                         time_us.begin() + (c + 1) * sizes.size());
    }
    return matrix;
}

std::vector<TunedWindow>
mergeTunedWindows(const std::vector<std::uint64_t> &sizes,
                  const std::vector<std::vector<double>> &times_us)
{
    // Degenerate sweeps reach this merge through the schedule search
    // (single sweep point, empty pareto frontier): reject the shapes
    // no window table can be built from, instead of reading past the
    // end of an empty vector.
    if (sizes.empty())
        throw RuntimeError("mergeTunedWindows: no sweep points");
    if (times_us.empty())
        throw RuntimeError("mergeTunedWindows: no candidates");
    for (const std::vector<double> &row : times_us) {
        if (row.size() != sizes.size()) {
            throw RuntimeError(
                "mergeTunedWindows: candidate row does not match the "
                "sweep");
        }
    }

    std::vector<TunedWindow> windows;
    for (size_t i = 0; i < sizes.size(); i++) {
        double best = std::numeric_limits<double>::infinity();
        int winner = -1;
        for (size_t c = 0; c < times_us.size(); c++) {
            // Strict < keeps ties on the lowest candidate index, so
            // duplicate candidates (or equal-cost variants) can never
            // make the winner depend on enumeration order.
            if (times_us[c][i] < best) {
                best = times_us[c][i];
                winner = static_cast<int>(c);
            }
        }
        std::uint64_t hi = i + 1 < sizes.size()
            ? sizes[i + 1] - 1
            : std::numeric_limits<std::uint64_t>::max();
        if (!windows.empty() && windows.back().candidate == winner) {
            windows.back().maxBytes = hi; // extend the current window
        } else {
            windows.push_back(
                TunedWindow{ sizes[i], hi, winner, best });
        }
    }
    // The first window also covers everything below the sweep start.
    windows.front().minBytes = 0;
    return windows;
}

std::vector<TunedWindow>
tuneWindows(const Topology &topology,
            const std::vector<IrProgram> &candidates,
            const TuneOptions &options)
{
    if (candidates.empty())
        throw RuntimeError("tuneWindows: no candidates");
    if (options.fromBytes == 0 || options.fromBytes > options.toBytes)
        throw RuntimeError("tuneWindows: bad size range");

    std::vector<std::uint64_t> sizes =
        tuneSweepSizes(options.fromBytes, options.toBytes);

    // Memoize structurally identical candidates: variants often
    // differ only in name (or the same program is offered twice,
    // once per registration path), and every (program, size) point
    // costs a full simulation.
    std::vector<int> unique_of(candidates.size());
    std::vector<const IrProgram *> unique;
    for (size_t c = 0; c < candidates.size(); c++) {
        int found = -1;
        for (size_t u = 0; u < unique.size(); u++) {
            if (sameProgram(*unique[u], candidates[c])) {
                found = static_cast<int>(u);
                break;
            }
        }
        if (found < 0) {
            found = static_cast<int>(unique.size());
            unique.push_back(&candidates[c]);
        }
        unique_of[c] = found;
    }

    std::vector<std::vector<double>> unique_times =
        sweepCandidateTimesUs(topology, unique, sizes, options);
    std::vector<std::vector<double>> times(candidates.size());
    for (size_t c = 0; c < candidates.size(); c++)
        times[c] = unique_times[static_cast<size_t>(unique_of[c])];
    return mergeTunedWindows(sizes, times);
}

void
registerTuned(Communicator &comm,
              const std::vector<IrProgram> &candidates,
              const std::vector<TunedWindow> &windows)
{
    for (const TunedWindow &window : windows) {
        if (window.candidate < 0 ||
            window.candidate >= static_cast<int>(candidates.size())) {
            throw RuntimeError("registerTuned: bad candidate index");
        }
        comm.registerAlgorithm(candidates[window.candidate],
                               window.minBytes, window.maxBytes);
    }
}

void
registerTuned(Communicator &comm,
              const std::vector<IrProgram> &candidates,
              const std::vector<TunedWindow> &windows,
              const TuneOptions &options)
{
    registerTuned(comm, candidates, windows);
    // Quarantine-aware re-tuning: when the health monitor changes
    // the quarantined-link set, the tuned windows were measured on a
    // machine that no longer exists. Drop them and re-tune the
    // surviving candidates against the degraded topology. The hook
    // captures the candidates by value so it outlives the caller's
    // vectors; the communicator reference must outlive the hook,
    // which it does by construction (the hook lives inside it).
    comm.setRetuneHook([&comm, candidates,
                        options](const std::vector<Link> &quarantine) {
        std::vector<std::string> collectives;
        std::vector<IrProgram> usable;
        for (const IrProgram &candidate : candidates) {
            collectives.push_back(candidate.collective);
            if (!linksCross(candidate, quarantine))
                usable.push_back(candidate);
        }
        std::sort(collectives.begin(), collectives.end());
        collectives.erase(
            std::unique(collectives.begin(), collectives.end()),
            collectives.end());
        for (const std::string &collective : collectives)
            comm.clearAlgorithms(collective);
        if (usable.empty())
            return; // every candidate is dead: replan/fallback only
        Topology degraded = comm.topology().degraded(quarantine);
        registerTuned(comm, usable,
                      tuneWindows(degraded, usable, options));
    });
}

} // namespace mscclang
