/**
 * @file
 * CLI runner: load MSCCL-IR XML (as emitted by mscclang_compile or
 * hand-written), execute it on a simulated machine, and report the
 * simulated time — optionally sweeping sizes or checking the data
 * against the collective's oracle.
 *
 * Examples:
 *   mscclang_compile --algo ring_allreduce -o ring.xml
 *   mscclang_run --xml ring.xml --machine ndv4:1 --bytes 1MB
 *   mscclang_run --xml ring.xml --sweep 1KB:32MB --tiles 1
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"
#include "runtime/communicator.h"

using namespace mscclang;

namespace {

void
usage()
{
    std::fprintf(stderr,
        "usage: mscclang_run --xml <file> [options]\n"
        "  --machine <spec>   ndv4:<n> | dgx2:<n> | dgx1 | "
        "generic:<n>:<g>   (default ndv4:1)\n"
        "  --bytes <size>     input bytes per rank (default 1MB)\n"
        "  --sweep <lo:hi>    sweep sizes instead of one run\n"
        "  --tiles <n>        pipeline tile cap per chunk\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string xml_path, machine = "ndv4:1", sweep;
    std::uint64_t bytes = 1 << 20;
    int tiles = 16;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw Error("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--xml") xml_path = value();
            else if (flag == "--machine") machine = value();
            else if (flag == "--bytes") bytes = parseBytes(value());
            else if (flag == "--sweep") sweep = value();
            else if (flag == "--tiles")
                tiles = static_cast<int>(parseCount(
                    flag, value(), 1, std::numeric_limits<int>::max()));
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
    if (xml_path.empty()) {
        usage();
        return 2;
    }

    try {
        std::ifstream file(xml_path);
        if (!file)
            throw Error("cannot read " + xml_path);
        std::ostringstream text;
        text << file.rdbuf();
        IrProgram ir = IrProgram::fromXml(text.str());

        Topology topo = parseTopology(machine);
        Communicator comm(topo);

        std::printf("program '%s' (%s, %d ranks, %s): %d thread "
                    "blocks/gpu, %d channels\n", ir.name.c_str(),
                    ir.collective.c_str(), ir.numRanks,
                    protocolName(ir.protocol), ir.maxThreadBlocks(),
                    ir.numChannels());

        std::vector<std::uint64_t> sizes;
        if (sweep.empty()) {
            sizes.push_back(bytes);
        } else {
            auto parts = splitString(sweep, ':');
            if (parts.size() != 2)
                throw Error("--sweep expects <lo>:<hi>");
            sizes = sizeSweep(parseBytes(parts[0]),
                              parseBytes(parts[1]));
        }

        std::printf("%-8s %12s %10s %14s %12s\n", "size", "time(us)",
                    "msgs", "wire(bytes)", "algbw(GB/s)");
        for (std::uint64_t b : sizes) {
            RunOptions run;
            run.bytes = b;
            run.maxTilesPerChunk = tiles;
            RunResult result = comm.runProgram(ir, run);
            double algbw = static_cast<double>(b) /
                (result.timeUs * 1000.0);
            std::printf("%-8s %12.1f %10llu %14.0f %12.2f\n",
                        formatBytes(b).c_str(), result.timeUs,
                        static_cast<unsigned long long>(
                            result.stats.messages),
                        result.stats.wireBytes, algbw);
        }
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
