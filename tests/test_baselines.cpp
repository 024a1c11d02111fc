/**
 * @file
 * Functional validation of the baseline systems (§7's comparison
 * points): the NCCL model, the composed hierarchical AllReduce and
 * the hand-CUDA Two-Step AllToAll must all produce oracle-correct
 * results end to end, including across kernel boundaries.
 */

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "test_util.h"

namespace mscclang {
namespace {

using testing::runIrsAndCheck;

TEST(Baselines, NcclProtocolSwitchesBySize)
{
    EXPECT_EQ(ncclProtocolFor(1 << 10, 8), Protocol::LL);
    EXPECT_EQ(ncclProtocolFor(32 << 10, 8), Protocol::LL);
    EXPECT_EQ(ncclProtocolFor(1 << 20, 8), Protocol::Simple);
    EXPECT_EQ(ncclProtocolFor(1 << 30, 8), Protocol::Simple);
    // The LL window widens with the rank count.
    EXPECT_EQ(ncclProtocolFor(64 << 10, 16), Protocol::LL);
}

TEST(Baselines, NcclRingAllReduceSingleNode)
{
    Topology topo = makeGeneric(1, 4);
    IrProgram ir = ncclAllReduceIr(topo, 1 << 20);
    AllReduceCollective coll(4, 1);
    EXPECT_EQ(runIrsAndCheck(topo, { &ir }, coll, 16 << 10), "");
}

TEST(Baselines, NcclRingAllReduceMultiNode)
{
    Topology topo = makeGeneric(2, 4);
    IrProgram ir = ncclAllReduceIr(topo, 1 << 20);
    AllReduceCollective coll(8, 1);
    // G rotated rings x 8 ranks -> 32 chunk blocks per rank.
    EXPECT_EQ(runIrsAndCheck(topo, { &ir }, coll, 32 * 1024), "");
}

TEST(Baselines, NcclRingUsesAllNicsAcrossNodes)
{
    Topology topo = makeGeneric(2, 4);
    IrProgram ir = ncclAllReduceIr(topo, 1 << 20);
    // Every local GPU index must appear as a node-boundary sender:
    // ring g leaves node n at local GPU (g+G-1)%G, so across the G
    // rings all G NICs carry traffic.
    std::set<int> boundary_senders;
    for (const IrGpu &gpu : ir.gpus) {
        for (const IrThreadBlock &tb : ir.gpus.blocks(gpu)) {
            if (tb.sendPeer >= 0 &&
                topo.nodeOf(tb.sendPeer) != topo.nodeOf(gpu.rank)) {
                boundary_senders.insert(topo.localOf(gpu.rank));
            }
        }
    }
    EXPECT_EQ(boundary_senders.size(), 4u);
}

TEST(Baselines, NcclAllToAll)
{
    Topology topo = makeGeneric(2, 2);
    IrProgram ir = ncclAllToAllIr(topo, 1 << 20);
    AllToAllCollective coll(4, 1);
    EXPECT_EQ(runIrsAndCheck(topo, { &ir }, coll, 16 << 10), "");
}

TEST(Baselines, ComposedHierarchicalAllReduceIsCorrectEndToEnd)
{
    Topology topo = makeGeneric(2, 3);
    std::vector<IrProgram> kernels =
        composedHierarchicalAllReduce(topo, 1 << 20);
    ASSERT_EQ(kernels.size(), 4u);
    std::vector<const IrProgram *> refs;
    for (const IrProgram &k : kernels)
        refs.push_back(&k);
    AllReduceCollective coll(6, 1);
    EXPECT_EQ(runIrsAndCheck(topo, refs, coll, 6 * 4096), "");
}

TEST(Baselines, CudaTwoStepAllToAllIsCorrectEndToEnd)
{
    Topology topo = makeGeneric(3, 2);
    std::vector<IrProgram> kernels = cudaTwoStepAllToAll(topo, 1 << 20);
    ASSERT_EQ(kernels.size(), 2u);
    std::vector<const IrProgram *> refs;
    for (const IrProgram &k : kernels)
        refs.push_back(&k);
    AllToAllCollective coll(6, 1);
    EXPECT_EQ(runIrsAndCheck(topo, refs, coll, 6 * 4096), "");
}

TEST(Baselines, ComposedRunPaysPerKernelLaunch)
{
    Topology topo = makeGeneric(2, 3);
    std::vector<IrProgram> kernels =
        composedHierarchicalAllReduce(topo, 1 << 20);
    std::vector<const IrProgram *> refs;
    for (const IrProgram &k : kernels)
        refs.push_back(&k);
    Communicator comm(topo);
    RunOptions run;
    run.bytes = 6 * 4096;
    RunResult composed = comm.runComposed(refs, run);
    // Four launches: at least 4x the launch overhead is in there.
    EXPECT_GE(composed.timeUs,
              4.0 * topo.params().kernelLaunchUs);
}

TEST(Baselines, NaiveAllToNext)
{
    Topology topo = makeGeneric(2, 3);
    IrProgram ir = naiveAllToNextIr(topo, 1 << 20);
    AllToNextCollective coll(6, 3);
    EXPECT_EQ(runIrsAndCheck(topo, { &ir }, coll, 12 << 10), "");
}

} // namespace
} // namespace mscclang
