/**
 * @file
 * Compiler scaling benchmark — the perf-trajectory anchor for the
 * compiler itself (trace → lower → fuse → schedule → verify). Three
 * collectives are compiled cold at 4/8/16/32 ranks with the verifier
 * on and off, then again warm through a PlanCache primed with the
 * same request; every cell reports wall-clock milliseconds and the
 * speedup against the frozen pre-overhaul seed numbers.
 *
 * Every cell is the fastest of several identical batches: shared-host
 * CPU steal inflates individual samples one-sidedly, and the seed
 * baselines below were measured with the same min-of-batches method.
 *
 * A replan proxy times the exact compile the Communicator's
 * replanProgram() pays after a link failure (verify on, the plan
 * cache in front) cold, warm, and warm for a freshly traced plan —
 * the before/after-caching replan-recovery compile latency reported
 * in EXPERIMENTS.md.
 *
 * With --json PATH the numbers are written as BENCH_compile.json;
 * tools/run_benches.sh invokes it that way.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collectives/collectives.h"
#include "common/flags.h"
#include "compiler/plan_cache.h"

using namespace mscclang;

namespace {

/**
 * Pre-overhaul reference numbers (seed commit compiler, Release,
 * reference container; min of 3 batches x 3 compiles). Frozen so
 * every future BENCH_compile.json reports its speedup against the
 * same anchor. Indexed [collective][rank step][verify ? 0 : 1] with
 * rank steps 4/8/16/32.
 */
constexpr double kSeedColdMs[3][4][2] = {
    // ring allreduce, 4 channels, 4 instances
    { { 0.4933, 0.3840 },
      { 1.9909, 1.6786 },
      { 7.6760, 6.5164 },
      { 34.5311, 30.0220 } },
    // ring allgather, 2 channels, 2 instances
    { { 0.1153, 0.0706 },
      { 0.4576, 0.3809 },
      { 1.6073, 1.4031 },
      { 6.1425, 5.3382 } },
    // naive alltoall
    { { 0.0465, 0.0351 },
      { 0.2975, 0.2240 },
      { 1.2581, 0.9936 },
      { 4.7654, 3.8087 } },
};

constexpr int kRankSteps[4] = { 4, 8, 16, 32 };

double
wallMs(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
}

std::unique_ptr<Program>
makeBenchProgram(int collective, int ranks)
{
    switch (collective) {
      case 0: {
        AlgoConfig config;
        config.instances = 4;
        return makeRingAllReduce(ranks, 4, config);
      }
      case 1: {
        AlgoConfig config;
        config.instances = 2;
        return makeRingAllGather(ranks, 2, config);
      }
      default:
        return makeNaiveAllToAll(ranks, AlgoConfig{});
    }
}

/** Fastest batch of @p reps timed calls to @p body, in ms per call. */
template <typename Fn>
double
minBatchMs(int batches, int reps, Fn &&body)
{
    double best = std::numeric_limits<double>::infinity();
    for (int b = 0; b < batches; b++) {
        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; r++)
            body();
        best = std::min(best, wallMs(t0));
    }
    return best / reps;
}

struct Cell
{
    const char *collective;
    int ranks;
    bool verify;
    double coldMs;
    double warmMs;
    double seedColdMs;
    /** Per-phase times of the cold compile (big cells only). */
    CompileStats coldStats = {};
    /** Tracing time of the cold compile (big cells only). */
    double traceMs = 0.0;
};

/**
 * Multi-node scaling cells (--big-ranks): verify-on cold and warm
 * compiles at 64..1024 ranks for the flat ring and the hierarchical
 * allreduce (8-GPU nodes). No frozen seed here — the seed compiler
 * rejected these sizes outright — so the cells carry raw latencies,
 * plus the trace/lower/fuse/schedule/verify/race-check split of the
 * cold compile.
 */
constexpr int kBigRankSteps[5] = { 64, 128, 256, 512, 1024 };

std::unique_ptr<Program>
makeBigProgram(int collective, int ranks)
{
    AlgoConfig config;
    if (collective == 0)
        return makeRingAllReduce(ranks, 1, config);
    return makeHierarchicalAllReduce(ranks / 8, 8, 1, config);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    int reps = 3;
    bool big_ranks = false;
    Flags flags;
    flags
        .text("--json <path>", "write the numbers as BENCH_compile.json",
              &json_path)
        .count("--reps <n>", "timed compiles per batch (default 3)", &reps,
               1)
        .on("--big-ranks",
            "add verify-on cells at 64..1024 ranks (slow)", &big_ranks);
    flags.parse(argc, argv);

    const char *names[3] = { "ring_allreduce", "ring_allgather",
                             "naive_alltoall" };
    std::vector<Cell> cells;
    for (int c = 0; c < 3; c++) {
        for (int s = 0; s < 4; s++) {
            int ranks = kRankSteps[s];
            for (int v = 0; v < 2; v++) {
                CompileOptions copts;
                copts.verify = v == 0;

                // Cold: the full pipeline, no cache in the path.
                // Tracing is included — a user (or the replanner)
                // always pays it together with the compile.
                double cold = minBatchMs(3, reps, [&] {
                    auto prog = makeBenchProgram(c, ranks);
                    Compiled out = compileProgram(*prog, copts);
                    if (out.ir.numRanks != ranks)
                        std::abort();
                });

                // Warm: a primed cache answers the same request —
                // key + lookup + a Compiled copy that shares the
                // cached IR body. The program is traced
                // once outside the loop, so every timed hit re-keys
                // the same Program object and reads its memoized
                // fingerprint; a newly traced program would also
                // pay one fingerprint pass.
                PlanCache cache(16);
                auto warm_prog = makeBenchProgram(c, ranks);
                cache.compile(*warm_prog, copts);
                double warm = minBatchMs(3, 10 * reps, [&] {
                    Compiled out = cache.compile(*warm_prog, copts);
                    if (out.ir.numRanks != ranks)
                        std::abort();
                });
                if (cache.hits() == 0)
                    std::abort(); // warm path must actually hit

                cells.push_back(Cell{ names[c], ranks, copts.verify,
                                      cold, warm,
                                      kSeedColdMs[c][s][v] });
            }
        }
    }

    std::printf("# compiler_scaling — cold vs warm compile, "
                "min of 3 batches x %d\n", reps);
    std::printf("%-16s %5s %-7s %10s %10s %10s %8s %9s\n",
                "collective", "ranks", "verify", "cold_ms", "warm_ms",
                "seed_ms", "cold_x", "warm_x");
    for (const Cell &cell : cells) {
        std::printf("%-16s %5d %-7s %10.4f %10.4f %10.4f %8.2f %9.1f\n",
                    cell.collective, cell.ranks,
                    cell.verify ? "on" : "off", cell.coldMs,
                    cell.warmMs, cell.seedColdMs,
                    cell.seedColdMs / cell.coldMs,
                    cell.seedColdMs / cell.warmMs);
    }

    std::vector<Cell> big_cells;
    if (big_ranks) {
        const char *big_names[2] = { "ring_allreduce",
                                     "hierarchical_allreduce" };
        std::printf("# --big-ranks — verify-on compiles at scale "
                    "(single samples)\n");
        std::printf("%-22s %5s %10s %10s %9s %9s %9s %9s %9s %9s "
                    "%9s %9s %9s %9s %9s\n",
                    "collective", "ranks", "cold_ms", "warm_ms",
                    "trace_ms", "lower_ms", "fuse_ms", "sched_ms",
                    "verify_ms", "race_ms", "lower_mf", "fuse_mf",
                    "sched_mf", "verify_mf", "race_mf");
        for (int c = 0; c < 2; c++) {
            for (int ranks : kBigRankSteps) {
                CompileOptions copts; // verify defaults on
                CompileStats phases;
                double trace_ms = 0.0;
                double cold = minBatchMs(1, 1, [&] {
                    auto t0 = std::chrono::steady_clock::now();
                    auto prog = makeBigProgram(c, ranks);
                    trace_ms = wallMs(t0);
                    Compiled out = compileProgram(*prog, copts);
                    if (out.ir.numRanks != ranks)
                        std::abort();
                    phases = out.stats;
                });
                PlanCache cache(4);
                auto warm_prog = makeBigProgram(c, ranks);
                cache.compile(*warm_prog, copts);
                double warm = minBatchMs(1, 3, [&] {
                    Compiled out = cache.compile(*warm_prog, copts);
                    if (out.ir.numRanks != ranks)
                        std::abort();
                });
                if (cache.hits() == 0)
                    std::abort();
                big_cells.push_back(Cell{ big_names[c], ranks, true,
                                          cold, warm, 0.0, phases,
                                          trace_ms });
                std::printf("%-22s %5d %10.1f %10.4f %9.1f %9.1f %9.1f "
                            "%9.1f %9.1f %9.1f %9lld %9lld %9lld %9lld "
                            "%9lld\n",
                            big_names[c], ranks, cold, warm, trace_ms,
                            phases.lowerNs / 1e6, phases.fuseNs / 1e6,
                            phases.scheduleNs / 1e6,
                            phases.verifyNs / 1e6, phases.raceNs / 1e6,
                            static_cast<long long>(phases.lowerMinorFaults),
                            static_cast<long long>(phases.fuseMinorFaults),
                            static_cast<long long>(
                                phases.scheduleMinorFaults),
                            static_cast<long long>(
                                phases.verifyMinorFaults),
                            static_cast<long long>(
                                phases.raceMinorFaults));
            }
        }
    }

    // Replan proxy: the compile replanProgram() runs after a link
    // fault (verify on), first ever (cold: cache miss + compile)
    // then for a repeat fault (warm: cache hit).
    CompileOptions replan_opts; // verify defaults on
    double replan_cold = minBatchMs(3, reps, [&] {
        auto prog = makeBenchProgram(0, 16);
        Compiled out = compileProgram(*prog, replan_opts);
        if (out.ir.numRanks != 16)
            std::abort();
    });
    PlanCache replan_cache(4);
    auto replan_prog = makeBenchProgram(0, 16);
    replan_cache.compile(*replan_prog, replan_opts);
    double replan_warm = minBatchMs(3, 10 * reps, [&] {
        Compiled out = replan_cache.compile(*replan_prog, replan_opts);
        if (out.ir.numRanks != 16)
            std::abort();
    });
    // A repeat fault seen by a new Communicator traces a new program,
    // so its hit also pays one fingerprint pass. Tracing stays outside
    // the clock: every timed call keys a program not keyed before.
    std::vector<std::unique_ptr<Program>> fresh(3 * 10 * reps);
    for (auto &prog : fresh)
        prog = makeBenchProgram(0, 16);
    std::size_t next_fresh = 0;
    double replan_fresh = minBatchMs(3, 10 * reps, [&] {
        Compiled out =
            replan_cache.compile(*fresh[next_fresh++], replan_opts);
        if (out.ir.numRanks != 16)
            std::abort();
    });
    std::printf("replan proxy (16-rank allreduce, verify on): "
                "cold %.4f ms, warm %.4f ms, warm fresh trace %.4f ms\n",
                replan_cold, replan_warm, replan_fresh);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        unsigned hw = std::thread::hardware_concurrency();
        std::fprintf(f, "{\n  \"bench\": \"compiler_scaling\",\n"
                        "  \"host_cpus\": %u,\n"
                        "  \"cells\": [\n", hw > 0 ? hw : 1);
        for (size_t i = 0; i < cells.size(); i++) {
            const Cell &cell = cells[i];
            std::fprintf(f,
                "    {\"collective\": \"%s\", \"ranks\": %d, "
                "\"verify\": %s, \"cold_ms\": %.4f, "
                "\"warm_ms\": %.4f, \"seed_cold_ms\": %.4f, "
                "\"speedup_vs_seed\": %.2f, "
                "\"warm_speedup_vs_seed\": %.1f}%s\n",
                cell.collective, cell.ranks,
                cell.verify ? "true" : "false", cell.coldMs,
                cell.warmMs, cell.seedColdMs,
                cell.seedColdMs / cell.coldMs,
                cell.seedColdMs / cell.warmMs,
                i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"big_cells\": [\n");
        for (size_t i = 0; i < big_cells.size(); i++) {
            const Cell &cell = big_cells[i];
            const CompileStats &phases = cell.coldStats;
            std::fprintf(f,
                "    {\"collective\": \"%s\", \"ranks\": %d, "
                "\"verify\": true, \"cold_ms\": %.4f, "
                "\"warm_ms\": %.4f, \"trace_ms\": %.2f, "
                "\"lower_ms\": %.2f, "
                "\"fuse_ms\": %.2f, \"schedule_ms\": %.2f, "
                "\"verify_ms\": %.2f, \"race_ms\": %.2f, "
                "\"lower_minor_faults\": %lld, "
                "\"fuse_minor_faults\": %lld, "
                "\"schedule_minor_faults\": %lld, "
                "\"verify_minor_faults\": %lld, "
                "\"race_minor_faults\": %lld}%s\n",
                cell.collective, cell.ranks, cell.coldMs, cell.warmMs,
                cell.traceMs, phases.lowerNs / 1e6, phases.fuseNs / 1e6,
                phases.scheduleNs / 1e6, phases.verifyNs / 1e6,
                phases.raceNs / 1e6,
                static_cast<long long>(phases.lowerMinorFaults),
                static_cast<long long>(phases.fuseMinorFaults),
                static_cast<long long>(phases.scheduleMinorFaults),
                static_cast<long long>(phases.verifyMinorFaults),
                static_cast<long long>(phases.raceMinorFaults),
                i + 1 < big_cells.size() ? "," : "");
        }
        std::fprintf(f,
            "  ],\n"
            "  \"replan_proxy\": {\"collective\": \"ring_allreduce\", "
            "\"ranks\": 16, \"verify\": true, "
            "\"cold_ms\": %.4f, \"warm_ms\": %.4f, "
            "\"warm_fresh_trace_ms\": %.4f}\n"
            "}\n",
            replan_cold, replan_warm, replan_fresh);
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
