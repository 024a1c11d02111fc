#include "bench_util.h"

#include <cstdio>

#include "common/strings.h"
#include "runtime/communicator.h"

namespace mscclang::bench {

double
timeIrUs(const Topology &topology, const IrProgram &ir,
         std::uint64_t bytes, int max_tiles)
{
    Communicator comm(topology);
    RunOptions run;
    run.bytes = bytes;
    run.dataMode = false;
    run.maxTilesPerChunk = max_tiles;
    return comm.runProgram(ir, run).timeUs;
}

double
timeComposedUs(const Topology &topology,
               const std::vector<IrProgram> &kernels,
               std::uint64_t bytes, int max_tiles)
{
    Communicator comm(topology);
    std::vector<const IrProgram *> refs;
    refs.reserve(kernels.size());
    for (const IrProgram &k : kernels)
        refs.push_back(&k);
    RunOptions run;
    run.bytes = bytes;
    run.dataMode = false;
    run.maxTilesPerChunk = max_tiles;
    return comm.runComposed(refs, run).timeUs;
}

void
printFigure(const std::string &title, const std::string &baseline_label,
            const std::vector<std::uint64_t> &sizes,
            const std::function<double(std::uint64_t)> &baseline,
            const std::vector<Series> &series)
{
    std::printf("# %s\n", title.c_str());
    std::printf("# speedup over %s (>1 means faster than baseline)\n",
                baseline_label.c_str());
    std::printf("%-8s %14s", "size",
                (baseline_label + "(us)").c_str());
    for (const Series &s : series)
        std::printf(" %22s", s.label.c_str());
    std::printf("\n");

    for (std::uint64_t bytes : sizes) {
        double base_us = baseline(bytes);
        std::printf("%-8s %14.1f", formatBytes(bytes).c_str(), base_us);
        for (const Series &s : series) {
            double us = s.timeUs(bytes);
            std::printf(" %22.2f", base_us / us);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("\n");
}

std::vector<std::uint64_t>
sweepFromArgs(int argc, char **argv, std::uint64_t from, std::uint64_t to,
              Flags flags)
{
    std::string from_help = "sweep start, bytes per rank (default " +
        formatBytes(from) + ")";
    std::string to_help = "sweep end (default " + formatBytes(to) + ")";
    flags.bytes("--from <size>", from_help.c_str(), &from)
        .bytes("--to <size>", to_help.c_str(), &to);
    flags.parse(argc, argv);
    return sizeSweep(from, to);
}

} // namespace mscclang::bench
