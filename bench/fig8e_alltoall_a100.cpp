/**
 * @file
 * Figure 8e: 256xA100 AllToAll, speedup over the hand-written CUDA
 * Two-Step implementation.
 *
 * Series: MSCCLang Two-Step with LL128 and Simple, and NCCL (the
 * naive point-to-point AllToAll) relative to the same baseline.
 *
 * Expected shape: both Two-Step implementations beat NCCL broadly;
 * MSCCLang Two-Step is up to ~1.3x over the hand-written version at
 * large sizes (single fused kernel, staging overlapped with the
 * aggregated IB exchange); beyond ~512MB the hand-written version
 * falls behind even NCCL while MSCCLang stays ahead.
 *
 * The paper runs 256 A100s (32 NDv4 nodes of 8). The default sweep
 * uses the same scale; pass --nodes to shrink for quick runs.
 */

#include <map>

#include "baselines/baselines.h"
#include "bench_util.h"
#include "collectives/collectives.h"
#include "common/strings.h"
#include "compiler/compiler.h"

using namespace mscclang;
using namespace mscclang::bench;

int
main(int argc, char **argv)
{
    int nodes = 32;
    Flags flags;
    flags.count("--nodes <n>", "NDv4 nodes of 8 A100s (default 32)",
                &nodes, 1);
    std::vector<std::uint64_t> sizes =
        sweepFromArgs(argc, argv, 256 << 10, 4ULL << 30, flags);
    Topology topo = makeNdv4(nodes);

    CompileOptions copts;
    copts.verify = false; // statically checked in the test suite
    copts.topology = &topo;
    copts.maxThreadBlocks = 108;

    auto compile_twostep = [&](Protocol proto) {
        AlgoConfig config;
        config.protocol = proto;
        auto prog = makeTwoStepAllToAll(topo.numNodes(),
                                        topo.gpusPerNode(), config);
        return compileProgram(*prog, copts).ir;
    };
    IrProgram twostep_ll128 = compile_twostep(Protocol::LL128);
    IrProgram twostep_simple = compile_twostep(Protocol::Simple);

    std::map<Protocol, std::vector<IrProgram>> nccl;
    auto nccl_time = [&](std::uint64_t bytes) {
        Protocol proto =
            ncclProtocolFor(bytes / topo.numRanks(), topo.numRanks());
        auto it = nccl.find(proto);
        if (it == nccl.end()) {
            it = nccl.emplace(proto,
                              ncclAllToAllKernels(topo, bytes, 108))
                     .first;
        }
        return timeComposedUs(topo, it->second, bytes, 1);
    };

    // The hand-written baseline also switches protocol by size.
    std::map<Protocol, std::vector<IrProgram>> cuda;
    const int kTiles = 4; // keep the 256-rank sweep tractable
    auto cuda_time = [&](std::uint64_t bytes) {
        Protocol proto =
            ncclProtocolFor(bytes / topo.numRanks(), topo.numRanks());
        auto it = cuda.find(proto);
        if (it == cuda.end())
            it = cuda.emplace(proto, cudaTwoStepAllToAll(topo, bytes))
                     .first;
        return timeComposedUs(topo, it->second, bytes, kTiles);
    };
    std::vector<Series> series = {
        { "MSCCLang Two-step LL128",
          [&](std::uint64_t b) {
              return timeIrUs(topo, twostep_ll128, b, kTiles);
          } },
        { "MSCCLang Two-step Simple",
          [&](std::uint64_t b) {
              return timeIrUs(topo, twostep_simple, b, kTiles);
          } },
        { "NCCL", nccl_time },
    };
    printFigure(strprintf("Fig 8e: %d-node %dxA100 AllToAll", nodes,
                          topo.numRanks()),
                "CUDA Two-Step", sizes, cuda_time, series);
    return 0;
}
