/**
 * @file
 * CLI front end for the compiler — the msccl-tools analogue: pick an
 * algorithm from the catalogue (collectives/catalog.h), set the
 * scheduling knobs, and emit MSCCL-IR as XML (plus optional
 * human-readable and Graphviz dumps).
 *
 * Examples:
 *   mscclang_compile --algo ring_allreduce --machine ndv4:1 \
 *       --channels 4 --instances 8 --proto LL128 -o ring.xml
 *   mscclang_compile --algo twostep_alltoall --machine ndv4:4 --dump
 *   mscclang_compile --list
 *
 * Usage errors exit 2 (common/flags.h): besides malformed flags, an
 * unknown --algo or --machine spec, a --channels, --instances or
 * --chunks below 1, a --root outside the machine's ranks, --channels
 * on an algorithm that takes none, and a machine the algorithm's shape
 * check turns away.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "collectives/catalog.h"
#include "common/error.h"
#include "common/flags.h"
#include "compiler/chunk_dag.h"
#include "compiler/compiler.h"
#include "machine_flag.h"

using namespace mscclang;

namespace {

struct Args
{
    const AlgoEntry *algo = nullptr;
    std::string machine = "ndv4:1";
    Topology topo = parseTopology(machine);
    std::string output;
    Protocol proto = Protocol::Simple;
    int channels = 1;
    int instances = 1;
    int root = 0;
    int chunks = 4;
    bool dump = false;
    bool dot = false;
    bool stats = false;
    bool noFuse = false;
    bool list = false;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Flags flags("--algo <name> [options]");
    flags
        .custom("--algo <name>", "catalogued algorithm (see --list)",
                [&](const std::string &name) {
                    try {
                        args.algo = &algoEntry(name);
                    } catch (const Error &error) {
                        throw BadValue(std::string("--algo: ") +
                                       error.what());
                    }
                })
        .custom("--machine <spec>",
                "ndv4:<n> | dgx2:<n> | dgx1 | generic:<n>:<g> "
                "(default ndv4:1)",
                machineFlag(&args.topo, &args.machine))
        .custom("--proto <p>", "Simple | LL | LL128 | Direct",
                [&](const std::string &name) {
                    std::optional<Protocol> proto = protocolFromName(name);
                    if (!proto)
                        throw BadValue("--proto: unknown '" + name + "'");
                    args.proto = *proto;
                })
        .count("--channels <c>", "ring channel distribution",
               &args.channels, 1)
        .count("--instances <r>", "program-wide parallelization",
               &args.instances, 1)
        .count("--root <r>", "broadcast root", &args.root)
        .count("--chunks <c>", "broadcast pipeline chunks", &args.chunks,
               1)
        .text("-o <file>", "write MSCCL-IR XML (default: stdout)",
              &args.output)
        .on("--dump", "print the human-readable IR", &args.dump)
        .on("--dot", "print the Chunk DAG as Graphviz", &args.dot)
        .on("--stats", "print compile statistics", &args.stats)
        .on("--no-fuse", "disable instruction fusion", &args.noFuse)
        .on("--list", "list available algorithms", &args.list);
    return flags.run(argc, argv, [&] {
        if (args.list) {
            std::vector<std::string> names;
            for (const AlgoEntry &entry : algoCatalog())
                names.push_back(entry.name);
            std::sort(names.begin(), names.end());
            for (const std::string &name : names)
                std::printf("%s\n", name.c_str());
            return 0;
        }
        if (args.algo == nullptr)
            flags.fail("--algo is required");
        if (flags.seen("--channels") && !args.algo->knobs.channels) {
            flags.fail(std::string("--channels: ") + args.algo->name +
                       " takes no channels");
        }
        const Topology &topo = args.topo;
        if (args.root >= topo.numRanks()) {
            flags.fail(strprintf("--root: %d is not a rank of machine %s "
                                 "(%d ranks)", args.root,
                                 args.machine.c_str(), topo.numRanks()));
        }
        if (!args.algo->fits(topo)) {
            flags.fail(std::string(args.algo->name) +
                       " does not fit machine " + args.machine);
        }
        AlgoConfig config{ args.instances, args.proto };
        auto trace_start = std::chrono::steady_clock::now();
        std::unique_ptr<Program> prog = args.algo->build(
            topo, config, args.channels, args.root, args.chunks);
        double trace_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - trace_start)
                              .count();
        prog->checkPostcondition();

        CompileOptions copts;
        copts.topology = &topo;
        copts.fuse = !args.noFuse;
        Compiled out = compileProgram(*prog, copts);

        if (args.stats) {
            // The chunk DAG is a diagnostic, built only on request.
            int critical_path = ChunkDag(*prog).criticalPathLength();
            std::fprintf(stderr,
                "algo=%s machine=%s ranks=%d\n"
                "trace ops          %6d\n"
                "trace ms           %6.2f\n"
                "chunk critical path%6d\n"
                "instrs pre-fusion  %6d\n"
                "instrs post-fusion %6d (rcs=%d rrcs=%d rrs=%d)\n"
                "channels           %6d\n"
                "thread blocks/gpu  %6d\n"
                "lower ms           %6.2f\n"
                "fuse ms            %6.2f\n"
                "schedule ms        %6.2f\n"
                "verify ms          %6.2f\n"
                "race check ms      %6.2f\n"
                "minor faults       %6lld lower, %lld fuse, %lld schedule, "
                "%lld verify, %lld race\n",
                args.algo->name, topo.name().c_str(),
                topo.numRanks(), out.stats.traceOps, trace_ms, critical_path,
                out.stats.instrsBeforeFusion,
                out.stats.instrsAfterFusion, out.stats.fusion.rcs,
                out.stats.fusion.rrcs, out.stats.fusion.rrs,
                out.stats.channels, out.stats.maxThreadBlocks,
                out.stats.lowerNs / 1e6, out.stats.fuseNs / 1e6,
                out.stats.scheduleNs / 1e6, out.stats.verifyNs / 1e6,
                out.stats.raceNs / 1e6,
                static_cast<long long>(out.stats.lowerMinorFaults),
                static_cast<long long>(out.stats.fuseMinorFaults),
                static_cast<long long>(out.stats.scheduleMinorFaults),
                static_cast<long long>(out.stats.verifyMinorFaults),
                static_cast<long long>(out.stats.raceMinorFaults));
        }
        if (args.dot) {
            ChunkDag dag(*prog);
            std::printf("%s", dag.toDot(*prog).c_str());
            return 0;
        }
        if (args.dump) {
            std::printf("%s", out.ir.dump().c_str());
            return 0;
        }
        if (args.output.empty()) {
            std::fflush(stdout);
            out.ir.toXml(std::cout);
            return 0;
        }
        std::ofstream file(args.output, std::ios::binary);
        if (!file)
            throw Error("cannot write " + args.output);
        out.ir.toXml(file);
        if (!file)
            throw Error("cannot write " + args.output);
        std::fprintf(stderr, "wrote %s (%lld bytes)\n",
                     args.output.c_str(),
                     static_cast<long long>(file.tellp()));
        return 0;
    });
}
