/**
 * @file
 * Simulator hot-path throughput benchmark — the perf-trajectory
 * anchor for the discrete-event substrate itself (not a paper
 * figure). Two workloads:
 *
 *  1. a 16-rank (2-node NDv4) timing-mode Ring AllReduce run
 *     repeatedly across three buffer sizes, reporting wall-clock per
 *     run and simulator events/second, where an event is one
 *     EventQueue dispatch (EventQueue::executed): a serial callback
 *     or one producer run — a flow-network run over every shard due
 *     at an instant, or one interpreter batch;
 *  2. a tuner sweep (four AllReduce candidates x a 1KB..16MB
 *     geometric size ladder), reporting wall-clock.
 *
 * Both workloads report the fastest of several identical batches.
 * Shared-host CPU steal inflates individual wall-clock samples by up
 * to 2x here; the minimum over batches is the standard estimator for
 * one-sided interference noise, and the seed baselines below were
 * measured with the same min-of-batches method.
 *
 * Both workloads also print a simulated-time fingerprint (endNs,
 * messages, wireBytes). The fingerprint must be invariant under any
 * simulator optimization — simulated timings are part of the repo's
 * determinism contract (see EXPERIMENTS.md) — while the wall-clock
 * numbers are what the optimizations move.
 *
 * With --json PATH the same numbers are written as BENCH_sim.json,
 * including speedup factors versus the frozen pre-overhaul baseline
 * (kSeedBaseline*, measured at the seed simulator on the reference
 * container); tools/run_benches.sh invokes it that way.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/flags.h"
#include "common/strings.h"
#include "compiler/compiler.h"
#include "runtime/interpreter.h"
#include "runtime/tuner.h"
#include "sim/event_queue.h"
#include "sim/flow_network.h"
#include "sim/profile.h"
#include "topology/topology.h"

using namespace mscclang;

namespace {

/**
 * Pre-overhaul reference numbers (seed commit simulator, Release,
 * reference container). Frozen so every future BENCH_sim.json
 * reports its speedup against the same anchor.
 */
constexpr double kSeedBaselineAllreduceMs = 5.58; // ms per run
constexpr double kSeedBaselineTunerMs = 223.0;    // ms per sweep

/**
 * Global-recompute flow-network reference numbers, frozen: the
 * pre-sharding engine re-ran max-min filling over every active flow
 * on each update. Measured at one thread on the scaling cells below
 * (1 MB Ring AllReduce and the flow-churn microbench; Release build,
 * fastest of two runs on a shared 4-vCPU x86-64 host) before that
 * engine was deleted, so scaling rows keep reporting the sharding
 * speedup against the same anchor.
 */
struct GlobalRecomputeBaseline
{
    int ranks;
    double allreduceMs; // ms per run
    double churnMs;     // ms per churn cell
};
constexpr GlobalRecomputeBaseline kGlobalRecomputeBaselines[] = {
    { 16, 2.408, 10.246 },
    { 64, 39.196, 123.564 },
    { 128, 226.968, 607.364 },
};

/** The frozen baseline for @p ranks, or null when none was recorded. */
const GlobalRecomputeBaseline *
globalRecomputeBaseline(int ranks)
{
    for (const GlobalRecomputeBaseline &base : kGlobalRecomputeBaselines) {
        if (base.ranks == ranks)
            return &base;
    }
    return nullptr;
}

struct Fingerprint
{
    TimeNs endNs = 0;
    std::uint64_t messages = 0;
    double wireBytes = 0.0;

    void
    add(const ExecStats &stats)
    {
        endNs += stats.endNs;
        messages += stats.messages;
        wireBytes += stats.wireBytes;
    }

    bool operator==(const Fingerprint &) const = default;
};

double
wallMs(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
}

/**
 * Flow-network churn cell: the subsystem microbench that isolates the
 * sharded flow network. Every ring pair
 * keeps @p lanes flows in flight; each completion immediately starts
 * the next, with pair- and wave-staggered sizes so completions land
 * on *distinct* timestamps — the irregular-traffic regime where a
 * global engine would recompute every flow in the machine per update
 * while the sharded one touches one component. (Symmetric collectives
 * coalesce same-instant completions into one update, which is why the
 * full-stack cells show a smaller gap.)
 */
double
runChurnCell(const Topology &topo, int ranks, int waves, int lanes,
             TimeNs *end_ns, double *delivered)
{
    EventQueue events;
    FlowNetwork net(topo, events);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<int> left(ranks, waves);
    std::function<void(int, int)> launch = [&](int pair, int wave) {
        if (left[pair] == 0)
            return;
        left[pair]--;
        double bytes = 1.0e5 + (pair * 7919 % 1000) * 37.0 +
            (wave % 13) * 911.0;
        const Route &route = topo.route(pair, (pair + 1) % ranks);
        int next_wave = waves - left[pair];
        net.startFlow(route.resources, 25.0, bytes,
                      [&, pair, next_wave] { launch(pair, next_wave); });
    };
    for (int p = 0; p < ranks; p++)
        for (int l = 0; l < lanes; l++)
            launch(p, l);
    events.run();
    *end_ns = events.now();
    *delivered = net.deliveredBytes();
    return wallMs(t0);
}

/**
 * One scaling cell: repeated 1 MB timing-mode Ring AllReduce runs.
 * Returns the fastest pass wall-clock and stores the first pass's
 * simulated fingerprint in @p fp; sets @p mismatch when any later
 * pass ends in a different simulated state.
 */
double
runScalingCell(const Topology &topo, const IrProgram &ir, int passes,
               Fingerprint *fp, bool *mismatch,
               SimProfile *profile = nullptr)
{
    double best_ms = std::numeric_limits<double>::infinity();
    for (int p = 0; p < passes; p++) {
        auto t0 = std::chrono::steady_clock::now();
        EventQueue events;
        FlowNetwork network(topo, events);
        // The profiled pass is separate from the timed passes
        // (callers pass passes=1 with a profile): the timer
        // bookkeeping itself would perturb the ms/run numbers.
        events.setProfile(profile);
        network.setProfile(profile);
        ExecOptions exec;
        exec.dataMode = false;
        exec.bytesPerRank = 1ull << 20;
        exec.maxTilesPerChunk = 16;
        exec.launchOverheadUs = topo.params().kernelLaunchUs;
        exec.profile = profile;
        IrExecution run(topo, ir, events, network, exec, nullptr);
        ExecStats stats;
        run.start([&](const ExecStats &s) { stats = s; });
        events.run();
        best_ms = std::min(best_ms, wallMs(t0));
        Fingerprint got;
        got.add(stats);
        if (p == 0)
            *fp = got;
        else if (got != *fp)
            *mismatch = true;
    }
    return best_ms;
}

/**
 * --fingerprint: runs a battery of (topology, program, size, mode)
 * configurations and prints their exact simulated results — integer
 * end times, message counts, full-precision wire bytes, and a hash
 * of the trace-file content. Any change in this output means the
 * simulation model changed (the determinism contract in
 * EXPERIMENTS.md); simulator *performance* work must leave it
 * byte-for-byte identical.
 */
int
fingerprintBattery()
{
    struct Config
    {
        const char *name;
        Topology topo;
        IrProgram ir;
        std::uint64_t bytes;
        bool dataMode;
    };

    AlgoConfig simple8;
    simple8.instances = 8;
    simple8.protocol = Protocol::LL128;
    AlgoConfig ll4;
    ll4.instances = 4;
    ll4.protocol = Protocol::LL;
    AlgoConfig plain;

    // Per-process name: concurrent batteries must not share the file.
    const std::string trace_path =
        (std::filesystem::temp_directory_path() /
         ("mscclang_fingerprint_trace_" + std::to_string(::getpid()) +
          ".json"))
            .string();

    std::vector<Config> configs;
    configs.push_back({ "ring8.ndv4.64K",
                        makeNdv4(1),
                        compileProgram(*makeRingAllReduce(8, 4, simple8)).ir,
                        64ull << 10, false });
    configs.push_back({ "ring16.ndv4x2.1M",
                        makeNdv4(2),
                        compileProgram(*makeRingAllReduce(16, 4, simple8)).ir,
                        1ull << 20, false });
    configs.push_back({ "hier.ndv4x2.4M",
                        makeNdv4(2),
                        compileProgram(
                            *makeHierarchicalAllReduce(2, 8, 8, plain)).ir,
                        4ull << 20, false });
    configs.push_back({ "allpairs16.dgx2.64K",
                        makeDgx2(1),
                        compileProgram(*makeAllPairsAllReduce(16, ll4)).ir,
                        64ull << 10, false });
    configs.push_back({ "tree16.ndv4x2.256K",
                        makeNdv4(2),
                        compileProgram(
                            *makeDoubleBinaryTreeAllReduce(16, ll4)).ir,
                        256ull << 10, false });
    configs.push_back({ "rab16.ndv4x2.1M",
                        makeNdv4(2),
                        compileProgram(
                            *makeRabenseifnerAllReduce(16, ll4)).ir,
                        1ull << 20, false });
    configs.push_back({ "twostep.ndv4x2.1M",
                        makeNdv4(2),
                        compileProgram(*makeTwoStepAllToAll(2, 8, plain)).ir,
                        1ull << 20, false });
    configs.push_back({ "alltonext.ndv4x2.512K",
                        makeNdv4(2),
                        compileProgram(*makeAllToNext(2, 8, plain)).ir,
                        512ull << 10, false });
    configs.push_back({ "sccl122.dgx1.1M",
                        makeDgx1(),
                        compileProgram(
                            *makeSccl122AllGather(makeDgx1(), plain)).ir,
                        1ull << 20, false });
    configs.push_back({ "ring8.data.256K",
                        makeGeneric(1, 8),
                        compileProgram(*makeRingAllReduce(8, 2, plain)).ir,
                        256ull << 10, true });

    for (Config &config : configs) {
        ExecOptions exec;
        exec.dataMode = config.dataMode;
        exec.bytesPerRank = config.bytes;
        exec.maxTilesPerChunk = 16;
        exec.launchOverheadUs = config.topo.params().kernelLaunchUs;
        exec.traceFile = trace_path;
        DataStore store;
        if (config.dataMode) {
            store.configure(config.ir, config.bytes);
            for (int r = 0; r < config.ir.numRanks; r++) {
                std::vector<float> &in = store.input(r);
                for (size_t i = 0; i < in.size(); i++)
                    in[i] = static_cast<float>((r * 131 + i) % 97);
            }
        }
        EventQueue events;
        FlowNetwork network(config.topo, events);
        IrExecution run(config.topo, config.ir, events, network, exec,
                        config.dataMode ? &store : nullptr);
        ExecStats stats;
        run.start([&](const ExecStats &s) { stats = s; });
        events.run();

        // FNV-1a over the trace file (timestamps are exact ns), plus
        // an order-insensitive variant (xor of per-row hashes, the
        // row's trailing comma stripped) that is invariant under row
        // reordering.
        std::uint64_t hash = 1469598103934665603ull;
        std::uint64_t set_hash = 0;
        std::FILE *f = std::fopen(exec.traceFile.c_str(), "rb");
        if (f != nullptr) {
            char line[512];
            while (std::fgets(line, sizeof line, f) != nullptr) {
                std::size_t len = std::strlen(line);
                for (std::size_t i = 0; i < len; i++) {
                    hash ^= static_cast<unsigned char>(line[i]);
                    hash *= 1099511628211ull;
                }
                while (len > 0 && (line[len - 1] == '\n' ||
                                   line[len - 1] == ','))
                    len--;
                std::uint64_t row = 1469598103934665603ull;
                for (std::size_t i = 0; i < len; i++) {
                    row ^= static_cast<unsigned char>(line[i]);
                    row *= 1099511628211ull;
                }
                set_hash ^= row;
            }
            std::fclose(f);
        }
        std::printf("%-22s endNs=%-10lld messages=%-7llu "
                    "wireBytes=%.17g trace=%016llx traceSet=%016llx\n",
                    config.name,
                    static_cast<long long>(stats.endNs),
                    static_cast<unsigned long long>(stats.messages),
                    stats.wireBytes,
                    static_cast<unsigned long long>(hash),
                    static_cast<unsigned long long>(set_hash));
    }
    std::remove(trace_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    int iters = 20;
    bool profile_on = false;
    // The scaling axis: a bad --ranks is an error, never a fall back
    // to this default that BENCH_sim.json would then misreport.
    std::vector<int> scale_ranks = { 16, 64 };
    bool fingerprint = false;
    Flags flags;
    flags.text("--json <path>", "write the numbers as BENCH_sim.json",
               &json_path)
        .count("--iters <n>", "timed runs per size (default 20)", &iters, 1)
        .on("--fingerprint",
            "print the simulated-time fingerprint battery and exit",
            &fingerprint)
        .counts("--ranks <a,b,...>",
                "rank counts of the scaling axis, multiples of 8\n"
                "(default 16,64)",
                &scale_ranks, 8, 512)
        .on("--profile", "add the wall-clock phase breakdown", &profile_on);
    flags.parse(argc, argv);
    for (int r : scale_ranks) {
        if (r % 8 != 0)
            flags.fail(strprintf("--ranks: %d is not a multiple of 8", r));
    }
    if (fingerprint)
        return fingerprintBattery();

    Topology topo = makeNdv4(2); // 16 ranks
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 8;
    IrProgram ring =
        compileProgram(*makeRingAllReduce(16, 4, cfg)).ir;

    // ---------------------------------------------------------------
    // Workload 1: repeated timing-mode AllReduce runs.
    const std::vector<std::uint64_t> sizes = { 64ull << 10, 1ull << 20,
                                               16ull << 20 };
    const int passes_per_batch = 4;
    int batches =
        std::max(1, (iters + passes_per_batch - 1) / passes_per_batch);
    int runs_per_batch =
        passes_per_batch * static_cast<int>(sizes.size());
    Fingerprint fp;
    double best_batch_ms = std::numeric_limits<double>::infinity();
    std::uint64_t best_batch_events = 0;
    for (int b = 0; b < batches; b++) {
        std::uint64_t batch_events = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (int it = 0; it < passes_per_batch; it++) {
            for (std::uint64_t bytes : sizes) {
                EventQueue events;
                FlowNetwork network(topo, events);
                ExecOptions exec;
                exec.dataMode = false;
                exec.bytesPerRank = bytes;
                exec.maxTilesPerChunk = 16;
                exec.launchOverheadUs = topo.params().kernelLaunchUs;
                IrExecution run(topo, ring, events, network, exec,
                                nullptr);
                ExecStats stats;
                run.start([&](const ExecStats &s) { stats = s; });
                events.run();
                if (b == 0 && it == 0)
                    fp.add(stats); // fingerprint one size pass
                batch_events += events.executed();
            }
        }
        double ms = wallMs(t0);
        if (ms < best_batch_ms) {
            best_batch_ms = ms;
            best_batch_events = batch_events;
        }
    }
    double events_per_sec = static_cast<double>(best_batch_events) /
        (best_batch_ms / 1000.0);
    double ms_per_run = best_batch_ms / runs_per_batch;

    std::printf("# sim_throughput — 16-rank NDv4 Ring AllReduce "
                "(ch=4 r=8 LL128), timing mode\n");
    std::printf("allreduce16: %d batches x %d runs, fastest batch "
                "%.1f ms, %.3f ms/run, %.0f events/sec\n",
                batches, runs_per_batch, best_batch_ms, ms_per_run,
                events_per_sec);
    std::printf("allreduce16 fingerprint: endNs=%lld messages=%llu "
                "wireBytes=%.17g\n",
                static_cast<long long>(fp.endNs),
                static_cast<unsigned long long>(fp.messages),
                fp.wireBytes);

    // ---------------------------------------------------------------
    // Workload 2: tuner sweep over four candidates.
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    ll.instances = 4;
    std::vector<IrProgram> candidates;
    candidates.push_back(ring);
    candidates.push_back(
        compileProgram(*makeAllPairsAllReduce(16, ll)).ir);
    candidates.push_back(
        compileProgram(*makeDoubleBinaryTreeAllReduce(16, ll)).ir);
    candidates.push_back(
        compileProgram(*makeRabenseifnerAllReduce(16, ll)).ir);

    TuneOptions tune;
    tune.fromBytes = 1 << 10;
    tune.toBytes = 16 << 20;
    tune.maxTilesPerChunk = 16;
    std::vector<TunedWindow> windows;
    double tuner_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; rep++) {
        auto t1 = std::chrono::steady_clock::now();
        windows = tuneWindows(topo, candidates, tune);
        tuner_ms = std::min(tuner_ms, wallMs(t1));
    }

    std::printf("tuner sweep: %zu candidates x [1KB,16MB], "
                "fastest of 3 sweeps %.1f ms, %zu windows\n",
                candidates.size(), tuner_ms, windows.size());
    std::printf("tuner fingerprint:");
    for (const TunedWindow &w : windows)
        std::printf(" (%d,%.17g)", w.candidate, w.timeUs);
    std::printf("\n");

    // ---------------------------------------------------------------
    // Workload 3: rank scaling. Each rank count runs the 1 MB
    // allreduce and the flow-churn microbench; the frozen
    // global-recompute numbers anchor the sharding speedup. Every
    // timed and profiled pass of a cell must end in the identical
    // simulated state — the bench enforces it.
    struct ScalingCell
    {
        int ranks;
        double ms;
        Fingerprint fp;
        double vsGlobal; // speedup vs the frozen global-recompute run
        double churnMs;  // flow-network churn microbench
        TimeNs churnEndNs;
        double churnVsGlobal;
        SimProfile prof; // --profile pass (zeros otherwise)
    };
    std::vector<ScalingCell> cells;
    const int scale_passes = 3;
    const int churn_waves = 200, churn_lanes = 4;
    bool fp_mismatch = false;
    std::printf("# scaling: Ring AllReduce 1MB (ch=4 r=8 LL128) + "
                "flow-churn microbench, per rank count\n");
    for (int ranks : scale_ranks) {
        Topology stopo = makeNdv4(ranks / 8);
        IrProgram sring =
            compileProgram(*makeRingAllReduce(ranks, 4, cfg)).ir;
        const GlobalRecomputeBaseline *global =
            globalRecomputeBaseline(ranks);
        ScalingCell cell;
        cell.ranks = ranks;
        cell.ms = runScalingCell(stopo, sring, scale_passes, &cell.fp,
                                 &fp_mismatch);
        double churn_delivered = 0.0;
        cell.churnMs = runChurnCell(stopo, ranks, churn_waves,
                                    churn_lanes, &cell.churnEndNs,
                                    &churn_delivered);
        if (profile_on) {
            // The profiled pass is separate from the timed passes:
            // the timer bookkeeping itself would perturb ms/run.
            Fingerprint profiled;
            runScalingCell(stopo, sring, 1, &profiled, &fp_mismatch,
                           &cell.prof);
            if (profiled != cell.fp)
                fp_mismatch = true;
        }
        cell.vsGlobal = global != nullptr && cell.ms > 0.0
            ? global->allreduceMs / cell.ms
            : 0.0;
        cell.churnVsGlobal = global != nullptr && cell.churnMs > 0.0
            ? global->churnMs / cell.churnMs
            : 0.0;
        std::printf("ranks=%-3d %.3f ms/run (vs-global %.2fx)  churn "
                    "%.3f ms (vs-global %.2fx)  endNs=%lld\n",
                    cell.ranks, cell.ms, cell.vsGlobal, cell.churnMs,
                    cell.churnVsGlobal,
                    static_cast<long long>(cell.fp.endNs));
        cells.push_back(cell);
    }
    if (fp_mismatch) {
        std::fprintf(stderr,
                     "sim_throughput: FINGERPRINT MISMATCH across "
                     "repeated passes — determinism contract broken\n");
        return 1;
    }

    if (profile_on) {
        std::printf("# profile: wall-clock phase breakdown per cell "
                    "(one profiled pass, us)\n");
        for (const ScalingCell &c : cells) {
            std::printf(
                "ranks=%-3d eventq %.1f flownet %.1f flowcb %.1f "
                "interp-rank %.1f interp-merge %.1f "
                "(batches: flow %llu, interp %llu)\n",
                c.ranks,
                static_cast<double>(c.prof.eventQueueNs) / 1000.0,
                static_cast<double>(c.prof.flowNetworkNs) / 1000.0,
                static_cast<double>(c.prof.flowCallbacksNs) / 1000.0,
                static_cast<double>(c.prof.interpParallelNs) / 1000.0,
                static_cast<double>(c.prof.interpMergeNs) / 1000.0,
                static_cast<unsigned long long>(c.prof.flowBatches),
                static_cast<unsigned long long>(c.prof.interpBatches));
        }
    }

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        double ar_speedup = kSeedBaselineAllreduceMs > 0.0
            ? kSeedBaselineAllreduceMs / ms_per_run
            : 0.0;
        double tn_speedup = kSeedBaselineTunerMs > 0.0
            ? kSeedBaselineTunerMs / tuner_ms
            : 0.0;
        std::fprintf(f,
            "{\n"
            "  \"bench\": \"sim_throughput\",\n"
            "  \"allreduce16\": {\n"
            "    \"runs_per_batch\": %d,\n"
            "    \"ms_per_run\": %.4f,\n"
            "    \"events_per_sec\": %.0f,\n"
            "    \"fingerprint\": {\"end_ns\": %lld, "
            "\"messages\": %llu, \"wire_bytes\": %.17g}\n"
            "  },\n"
            "  \"tuner_sweep\": {\"wall_ms\": %.2f, "
            "\"windows\": %zu},\n"
            "  \"seed_baseline\": {\"allreduce16_ms_per_run\": %.4f, "
            "\"tuner_sweep_ms\": %.2f},\n"
            "  \"speedup_vs_seed\": {\"allreduce16\": %.2f, "
            "\"tuner_sweep\": %.2f},\n",
            runs_per_batch, ms_per_run, events_per_sec,
            static_cast<long long>(fp.endNs),
            static_cast<unsigned long long>(fp.messages),
            fp.wireBytes, tuner_ms, windows.size(),
            kSeedBaselineAllreduceMs, kSeedBaselineTunerMs,
            ar_speedup, tn_speedup);
        unsigned hw = std::thread::hardware_concurrency();
        std::fprintf(f, "  \"host_cpus\": %u,\n", hw > 0 ? hw : 1);
        std::fprintf(f, "  \"global_recompute_baseline_ms\": {");
        for (size_t i = 0; i < std::size(kGlobalRecomputeBaselines);
             i++) {
            const GlobalRecomputeBaseline &base =
                kGlobalRecomputeBaselines[i];
            std::fprintf(f,
                         "%s\"%d\": {\"allreduce\": %.4f, "
                         "\"churn\": %.4f}",
                         i > 0 ? ", " : "", base.ranks,
                         base.allreduceMs, base.churnMs);
        }
        std::fprintf(f, "},\n  \"scaling\": [\n");
        for (size_t i = 0; i < cells.size(); i++) {
            const ScalingCell &c = cells[i];
            std::fprintf(f,
                         "    {\"ranks\": %d, "
                         "\"ms_per_run\": %.4f, \"end_ns\": %lld, "
                         "\"speedup_vs_global_recompute\": %.2f, "
                         "\"churn_ms\": %.4f, "
                         "\"churn_end_ns\": %lld, "
                         "\"churn_speedup_vs_global_recompute\": %.2f",
                         c.ranks, c.ms,
                         static_cast<long long>(c.fp.endNs),
                         c.vsGlobal, c.churnMs,
                         static_cast<long long>(c.churnEndNs),
                         c.churnVsGlobal);
            if (profile_on) {
                std::fprintf(
                    f,
                    ", \"profile\": {\"event_queue_us\": %.1f, "
                    "\"flow_network_us\": %.1f, "
                    "\"flow_callbacks_us\": %.1f, "
                    "\"interp_parallel_us\": %.1f, "
                    "\"interp_merge_us\": %.1f, "
                    "\"flow_batches\": %llu, "
                    "\"interp_batches\": %llu}",
                    static_cast<double>(c.prof.eventQueueNs) / 1000.0,
                    static_cast<double>(c.prof.flowNetworkNs) / 1000.0,
                    static_cast<double>(c.prof.flowCallbacksNs) /
                        1000.0,
                    static_cast<double>(c.prof.interpParallelNs) /
                        1000.0,
                    static_cast<double>(c.prof.interpMergeNs) / 1000.0,
                    static_cast<unsigned long long>(
                        c.prof.flowBatches),
                    static_cast<unsigned long long>(
                        c.prof.interpBatches));
            }
            std::fprintf(f, "}%s\n",
                         i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
