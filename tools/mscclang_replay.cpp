/**
 * @file
 * Trace-driven workload replay CLI (DESIGN.md §14): drives a
 * multi-stream workload over one shared simulated fabric with a fault
 * storm firing mid-traffic, and reports per-stream and fleet-wide
 * latency percentiles, goodput, recovery counts, and availability —
 * the fraction of ops completing within --slo times their fault-free
 * latency (measured by a storm-free baseline replay of the same
 * trace). By default both arms run: self-healing engaged and
 * disabled, so the report quantifies what the healing runtime buys.
 *
 * Deterministic: the same flags (seed included) produce byte-identical
 * JSON/CSV on every run — the property --smoke asserts.
 *
 * Examples:
 *   mscclang_replay
 *   mscclang_replay --machine generic:2:8 --workload mixed --storm flap
 *   mscclang_replay --workload decode --storm nic --json -
 *   mscclang_replay --workload trace.json --healing on --csv -
 *   mscclang_replay --smoke
 */

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "common/strings.h"
#include "machine_flag.h"
#include "runtime/communicator.h"
#include "workload/replay.h"
#include "workload/workload.h"

using namespace mscclang;

namespace {

WorkloadSpec
buildWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "mixed")
        return makeMixedInferenceWorkload(seed);
    if (name == "decode")
        return makeDecodeWorkload(24, 256 * 1024, 400.0, seed);
    if (name == "pipeline")
        return makePipelineWorkload(3, 8, 512 * 1024, 150.0);
    if (name == "moe")
        return makeMoeWorkload(16, 1 << 20, 600.0, seed);
    if (name == "bursty")
        return makeBurstyWorkload(4, 6, 256 * 1024, 2000.0, seed);
    return WorkloadSpec::fromJsonFile(name);
}

FaultSchedule
buildStorm(const std::string &kind, const Topology &topology)
{
    if (kind == "none")
        return FaultSchedule{};
    // The default victim is the IB NIC of node 0's last GPU — the
    // node-boundary hop the default rank-order ring crosses, so the
    // storm lands on live ring traffic. Single-node machines fall
    // back to a GPU's NVLink egress.
    std::string victim =
        strprintf("ib-send[0.%d]", topology.gpusPerNode() - 1);
    std::vector<ResourceId> targets =
        resourcesMatching(topology, victim);
    if (targets.empty())
        targets = resourcesMatching(topology, "nvlink-out[1]");
    if (targets.empty())
        throw Error("no storm target resource on " + topology.name());
    if (kind == "flap")
        return makeLinkFlapStorm(targets, 6, 900.0, 700.0, 200.0);
    if (kind == "wave")
        return makeDegradeWave(targets, 200.0, 4000.0, 0.1);
    if (kind == "nic") {
        return makeNicFailure(
            topology,
            topology.rankOf(0, topology.gpusPerNode() - 1), 300.0);
    }
    throw Error("unknown storm '" + kind + "'");
}

struct ArmOutput
{
    SloReport report;
    ReplayResult result;
};

/** Runs one replay arm on a fresh communicator. */
ArmOutput
runArm(const Topology &topology, const WorkloadSpec &spec,
       const FaultSchedule &storm, const ReplayOptions &options,
       const ReplayResult *baseline, std::uint64_t seed)
{
    HealthOptions health;
    health.seed = seed;
    Communicator comm(topology, health);
    registerWorkloadPlans(comm, spec);
    ArmOutput arm;
    arm.result = replayWorkload(comm, spec, storm, options);
    arm.report = buildSloReport(spec, arm.result, baseline, options);
    return arm;
}

void
printSummary(const SloReport &report)
{
    std::printf("%s healing=%s: makespan %.1fus, faults %d, "
                "quarantine changes %d, replans %d\n",
                report.workload.c_str(),
                report.selfHealing ? "on" : "off", report.makespanUs,
                report.faultsFired, report.quarantineChanges,
                report.replanCompiles);
    std::printf("  %-10s %5s %5s %10s %10s %10s %6s %6s %6s\n",
                "stream", "ops", "fail", "p50_us", "p99_us",
                "p999_us", "avail", "retry", "fb");
    auto row = [](const SloStats &stats) {
        std::printf("  %-10s %5d %5d %10.1f %10.1f %10.1f %6.3f "
                    "%6d %6d\n",
                    stats.name.c_str(), stats.ops, stats.failed,
                    stats.p50Us, stats.p99Us, stats.p999Us,
                    stats.availability, stats.retries,
                    stats.fallbacks);
    };
    for (const SloStats &stream : report.streams)
        row(stream);
    row(report.fleet);
}

/**
 * One full comparison: baseline replay (no storm), then the storm
 * with healing on and/or off. Returns the combined byte-stable JSON.
 */
std::string
runComparison(const std::string &machine, const Topology &topology,
              const WorkloadSpec &spec,
              const FaultSchedule &storm, ReplayOptions options,
              const std::string &healing, std::uint64_t seed,
              bool quiet, std::string *csv_out,
              double *availability_on, double *availability_off)
{
    // The fault-free baseline anchors every op's SLO threshold; its
    // own latencies are healing-independent (nothing aborts).
    ReplayOptions base_options = options;
    base_options.selfHealing = true;
    ArmOutput baseline = runArm(topology, spec, FaultSchedule{},
                                base_options, nullptr, seed);

    std::string json = strprintf(
        "{\n\"machine\": \"%s\",\n\"workload\": \"%s\",\n"
        "\"seed\": %llu,\n\"slo_multiplier\": %.3f,\n"
        "\"storm_events\": %d,\n\"baseline_makespan_us\": %.3f",
        machine.c_str(), spec.name.c_str(),
        static_cast<unsigned long long>(seed), options.sloMultiplier,
        static_cast<int>(storm.events.size()),
        baseline.result.makespanUs);
    std::string csv;

    auto appendArm = [&](const char *key, const SloReport &report) {
        std::string body = report.toJson();
        while (!body.empty() && body.back() == '\n')
            body.pop_back();
        json += strprintf(",\n\"%s\":\n", key) + body;
        // The CSV header repeats between arms; keep only the first.
        std::string rows = report.toCsv();
        csv += csv.empty() ? rows : rows.substr(rows.find('\n') + 1);
    };

    if (healing == "on" || healing == "both") {
        options.selfHealing = true;
        ArmOutput arm = runArm(topology, spec, storm, options,
                               &baseline.result, seed);
        if (!quiet)
            printSummary(arm.report);
        appendArm("healing_on", arm.report);
        if (availability_on != nullptr)
            *availability_on = arm.report.fleet.availability;
    }
    if (healing == "off" || healing == "both") {
        options.selfHealing = false;
        ArmOutput arm = runArm(topology, spec, storm, options,
                               &baseline.result, seed);
        if (!quiet)
            printSummary(arm.report);
        appendArm("healing_off", arm.report);
        if (availability_off != nullptr)
            *availability_off = arm.report.fleet.availability;
    }
    json += "\n}\n";
    if (csv_out != nullptr)
        *csv_out = csv;
    return json;
}

/**
 * The acceptance gate: seeded 3-stream mixed workload on a 16-rank
 * machine under a link-flap storm must (a) report strictly higher
 * availability with healing on than off, (b) report a p99 for every
 * stream, and (c) emit byte-identical JSON when the same seeded arms
 * run twice.
 */
int
runSmoke(std::uint64_t seed)
{
    const std::string machine = "generic:2:8";
    WorkloadSpec spec = makeMixedInferenceWorkload(seed);
    Topology topology = parseTopology(machine);
    FaultSchedule storm = buildStorm("flap", topology);

    ReplayOptions options;
    options.maxAttempts = 4;
    options.watchdogNoProgressUs = 250.0;

    double avail_on = 0.0;
    double avail_off = 0.0;
    std::string reference;
    int failures = 0;

    for (int run = 1; run <= 2; run++) {
        double on = 0.0;
        double off = 0.0;
        std::string json = runComparison(machine, topology, spec, storm,
                                         options, "both", seed,
                                         /*quiet=*/true, nullptr, &on,
                                         &off);
        if (run == 1) {
            reference = json;
            avail_on = on;
            avail_off = off;
        } else if (json != reference) {
            std::printf("FAIL: run %d report differs from run 1\n",
                        run);
            failures++;
        }
    }

    std::printf("smoke: availability healing-on %.4f, healing-off "
                "%.4f\n", avail_on, avail_off);
    if (!(avail_on > avail_off)) {
        std::printf("FAIL: healing-on availability must strictly "
                    "exceed healing-off\n");
        failures++;
    }
    // Every stream must carry a measured p99 (ops completed).
    // Re-derive from the reference arm rather than re-running.
    ArmOutput check =
        runArm(topology, spec, storm, options, nullptr, seed);
    for (const SloStats &stream : check.report.streams) {
        if (stream.completed == 0 || stream.p99Us <= 0.0) {
            std::printf("FAIL: stream '%s' has no p99 (completed "
                        "%d)\n", stream.name.c_str(),
                        stream.completed);
            failures++;
        }
    }
    std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string machine = "generic:2:8";
    Topology topology = parseTopology(machine);
    std::string workload = "mixed";
    std::string storm_kind = "flap";
    std::string healing = "both";
    std::string json_path;
    std::string csv_path;
    std::string spec_path;
    std::uint64_t seed = 1;
    bool smoke = false;
    ReplayOptions options;

    Flags flags;
    flags
        .custom("--machine <spec>",
                "ndv4:<n> | dgx2:<n> | dgx1 | generic:<n>:<g> "
                "(default generic:2:8)",
                machineFlag(&topology, &machine))
        .text("--workload <w>",
              "mixed | decode | pipeline | moe | bursty | <trace.json>\n"
              "(default mixed)",
              &workload)
        .choice("--storm <kind>", "flap | wave | nic | none (default flap)",
                &storm_kind, { "flap", "wave", "nic", "none" })
        .count("--seed <n>", "workload + health jitter seed (default 1)",
               &seed)
        .real("--slo <mult>", "SLO over the fault-free latency (default 3.0)",
              &options.sloMultiplier, std::numeric_limits<double>::min())
        .count("--max-attempts <n>", "kernel attempts per op (default 4)",
               &options.maxAttempts, 1)
        .real("--watchdog-us <us>", "no-progress watchdog (default 250)",
              &options.watchdogNoProgressUs, 0.0)
        .choice("--healing <arm>", "on | off | both (default both)",
                &healing, { "on", "off", "both" })
        .on("--data", "move real floats (slow; validates)", &options.dataMode)
        .text("--json <path>", "write the report JSON ('-' = stdout)",
              &json_path)
        .text("--csv <path>", "write the report CSV ('-' = stdout)",
              &csv_path)
        .text("--emit-spec <path>", "write the workload trace JSON",
              &spec_path)
        .on("--smoke", "determinism + availability acceptance gate", &smoke);
    return flags.run(argc, argv, [&] {
        if (smoke)
            return runSmoke(seed);

        WorkloadSpec spec = buildWorkload(workload, seed);
        spec.validate();
        if (!spec_path.empty())
            writeOutput(spec_path, spec.toJson());

        FaultSchedule storm = buildStorm(storm_kind, topology);

        std::string csv;
        std::string json = runComparison(
            machine, topology, spec, storm, options, healing, seed,
            /*quiet=*/false, &csv, nullptr, nullptr);
        if (!json_path.empty())
            writeOutput(json_path, json);
        if (!csv_path.empty())
            writeOutput(csv_path, csv);
        return 0;
    });
}
