/**
 * @file
 * Shared harness for the figure benchmarks. Each bench binary
 * reproduces one plot of the paper's evaluation: it sweeps buffer
 * sizes, runs every series through the simulated runtime in timing
 * mode, and prints the same speedup-over-baseline table the figure
 * plots (plus the baseline's absolute time for context).
 *
 * Simulated time is deterministic, so no iteration averaging is
 * needed; the paper's 50-iteration averaging maps to a single run.
 */

#ifndef MSCCLANG_BENCH_BENCH_UTIL_H_
#define MSCCLANG_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "ir/ir.h"
#include "topology/topology.h"

namespace mscclang::bench {

/** Runs @p ir once in timing mode and returns simulated microsecs. */
double timeIrUs(const Topology &topology, const IrProgram &ir,
                std::uint64_t bytes, int max_tiles = 4);

/** Runs kernels back to back (composed baseline path). */
double timeComposedUs(const Topology &topology,
                      const std::vector<IrProgram> &kernels,
                      std::uint64_t bytes, int max_tiles = 4);

/** One line of a figure: a label and a per-size timing function. */
struct Series
{
    std::string label;
    std::function<double(std::uint64_t bytes)> timeUs;
};

/**
 * Prints the figure table: per size, the baseline's absolute time
 * and each series' speedup over it (>1 = series is faster).
 */
void printFigure(const std::string &title,
                 const std::string &baseline_label,
                 const std::vector<std::uint64_t> &sizes,
                 const std::function<double(std::uint64_t)> &baseline,
                 const std::vector<Series> &series);

/**
 * Parses a figure bench's flags and returns its size sweep: --from
 * and --to override the bounds @p from and @p to, and @p flags holds
 * the bench's own flags, if any. Exits as Flags::parse does.
 */
std::vector<std::uint64_t> sweepFromArgs(int argc, char **argv,
                                         std::uint64_t from,
                                         std::uint64_t to,
                                         Flags flags = Flags());

} // namespace mscclang::bench

#endif // MSCCLANG_BENCH_BENCH_UTIL_H_
