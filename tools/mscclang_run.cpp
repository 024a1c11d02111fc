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
#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "common/strings.h"
#include "machine_flag.h"
#include "runtime/communicator.h"

using namespace mscclang;

int
main(int argc, char **argv)
{
    std::string xml_path;
    Topology topo = parseTopology("ndv4:1");
    std::uint64_t bytes = 1 << 20;
    std::vector<std::uint64_t> sweep;
    int tiles = 16;
    Flags flags("--xml <file> [options]");
    flags.text("--xml <file>", "MSCCL-IR XML to run", &xml_path)
        .custom("--machine <spec>",
                "ndv4:<n> | dgx2:<n> | dgx1 | generic:<n>:<g> "
                "(default ndv4:1)",
                machineFlag(&topo))
        .bytes("--bytes <size>", "input bytes per rank (default 1MB)",
               &bytes)
        .custom("--sweep <lo:hi>", "sweep sizes instead of one run",
                [&](const std::string &range) {
                    auto parts = splitString(range, ':');
                    if (parts.size() != 2)
                        throw BadValue("--sweep expects <lo>:<hi>");
                    sweep = sizeSweep(parseBytes("--sweep", parts[0]),
                                      parseBytes("--sweep", parts[1]));
                })
        .count("--tiles <n>", "pipeline tile cap per chunk", &tiles, 1);
    return flags.run(argc, argv, [&] {
        if (xml_path.empty())
            flags.fail("--xml is required");
        std::vector<std::uint64_t> sizes =
            flags.seen("--sweep") ? sweep : std::vector{ bytes };

        std::ifstream file(xml_path);
        if (!file)
            throw Error("cannot read " + xml_path);
        std::ostringstream text;
        text << file.rdbuf();
        IrProgram ir = IrProgram::fromXml(text.str());

        Communicator comm(topo);

        std::printf("program '%s' (%s, %d ranks, %s): %d thread "
                    "blocks/gpu, %d channels\n", ir.name.c_str(),
                    ir.collective.c_str(), ir.numRanks,
                    protocolName(ir.protocol), ir.maxThreadBlocks(),
                    ir.numChannels());

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
    });
}
