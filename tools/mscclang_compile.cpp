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
 * Numeric options must be whole non-negative integers: "3x" or "-1"
 * is a usage error (exit 2), not 3 or a wrapped value.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "collectives/catalog.h"
#include "common/error.h"
#include "common/strings.h"
#include "compiler/chunk_dag.h"
#include "compiler/compiler.h"

using namespace mscclang;

namespace {

struct Args
{
    std::string algo;
    std::string machine = "ndv4:1";
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

void
usage()
{
    std::fprintf(stderr,
        "usage: mscclang_compile --algo <name> [options]\n"
        "  --machine <spec>    ndv4:<n> | dgx2:<n> | dgx1 | "
        "generic:<n>:<g>   (default ndv4:1)\n"
        "  --proto <p>         Simple | LL | LL128 | Direct\n"
        "  --channels <c>      ring channel distribution\n"
        "  --instances <r>     program-wide parallelization\n"
        "  --root <r>          broadcast root\n"
        "  --chunks <c>        broadcast pipeline chunks\n"
        "  -o <file>           write MSCCL-IR XML (default: stdout)\n"
        "  --dump              print the human-readable IR\n"
        "  --dot               print the Chunk DAG as Graphviz\n"
        "  --stats             print compile statistics\n"
        "  --no-fuse           disable instruction fusion\n"
        "  --list              list available algorithms\n");
}

Protocol
parseProto(const std::string &name)
{
    if (name == "Simple") return Protocol::Simple;
    if (name == "LL") return Protocol::LL;
    if (name == "LL128") return Protocol::LL128;
    if (name == "Direct") return Protocol::Direct;
    throw Error("unknown protocol '" + name + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw Error("missing value for " + flag);
            return argv[++i];
        };
        auto intValue = [&] {
            return static_cast<int>(parseCount(
                flag, value(), 0, std::numeric_limits<int>::max()));
        };
        try {
            if (flag == "--algo") args.algo = value();
            else if (flag == "--machine") args.machine = value();
            else if (flag == "--proto") args.proto = parseProto(value());
            else if (flag == "--channels") args.channels = intValue();
            else if (flag == "--instances") args.instances = intValue();
            else if (flag == "--root") args.root = intValue();
            else if (flag == "--chunks") args.chunks = intValue();
            else if (flag == "-o") args.output = value();
            else if (flag == "--dump") args.dump = true;
            else if (flag == "--dot") args.dot = true;
            else if (flag == "--stats") args.stats = true;
            else if (flag == "--no-fuse") args.noFuse = true;
            else if (flag == "--list") args.list = true;
            else if (flag == "--help" || flag == "-h") {
                usage();
                return 0;
            } else {
                std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
                usage();
                return 2;
            }
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            return 2;
        }
    }

    if (args.list) {
        std::vector<std::string> names;
        for (const AlgoEntry &entry : algoCatalog())
            names.push_back(entry.name);
        std::sort(names.begin(), names.end());
        for (const std::string &name : names)
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (args.algo.empty()) {
        usage();
        return 2;
    }

    try {
        Topology topo = parseTopology(args.machine);
        AlgoConfig config{ args.instances, args.proto };
        std::unique_ptr<Program> prog = algoEntry(args.algo).build(
            topo, config, args.channels, args.root, args.chunks);
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
                "chunk critical path%6d\n"
                "instrs pre-fusion  %6d\n"
                "instrs post-fusion %6d (rcs=%d rrcs=%d rrs=%d)\n"
                "channels           %6d\n"
                "thread blocks/gpu  %6d\n"
                "lower ms           %6.2f\n"
                "fuse ms            %6.2f\n"
                "schedule ms        %6.2f\n"
                "verify ms          %6.2f\n",
                args.algo.c_str(), topo.name().c_str(),
                topo.numRanks(), out.stats.traceOps, critical_path,
                out.stats.instrsBeforeFusion,
                out.stats.instrsAfterFusion, out.stats.fusion.rcs,
                out.stats.fusion.rrcs, out.stats.fusion.rrs,
                out.stats.channels, out.stats.maxThreadBlocks,
                out.stats.lowerNs / 1e6, out.stats.fuseNs / 1e6,
                out.stats.scheduleNs / 1e6, out.stats.verifyNs / 1e6);
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
        std::string xml = out.ir.toXml();
        if (args.output.empty()) {
            std::printf("%s", xml.c_str());
        } else {
            std::ofstream file(args.output);
            if (!file)
                throw Error("cannot write " + args.output);
            file << xml;
            std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                         args.output.c_str(), xml.size());
        }
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
