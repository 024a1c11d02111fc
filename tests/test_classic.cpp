/**
 * @file
 * Functional and property tests for the classic algorithm library
 * (trees, recursive halving/doubling, broadcasts, hierarchical
 * AllGather): every algorithm must trace, verify, and execute to
 * oracle-identical data across machine shapes and protocols.
 */

#include <gtest/gtest.h>

#include "collectives/classic.h"
#include "common/error.h"
#include "compiler/chunk_dag.h"
#include "test_util.h"

namespace mscclang {
namespace {

using testing::runAndCheck;

TEST(Classic, DoubleBinaryTreeAllReduce)
{
    for (int ranks : { 2, 3, 4, 7, 8, 12 }) {
        Topology topo = makeGeneric(1, ranks);
        auto prog = makeDoubleBinaryTreeAllReduce(ranks, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog, 2 * 512 * 4), "")
            << ranks << " ranks";
    }
    EXPECT_THROW(makeDoubleBinaryTreeAllReduce(1, {}), Error);
}

TEST(Classic, TreesBalanceInteriorWork)
{
    // In the mirrored pair, no rank is a pure serialization point:
    // the two trees' roots differ.
    auto prog = makeDoubleBinaryTreeAllReduce(8, {});
    Compiled out = compileProgram(*prog);
    EXPECT_GT(out.stats.channels, 1);
}

TEST(Classic, RecursiveHalvingReduceScatter)
{
    for (int ranks : { 2, 4, 8, 16 }) {
        Topology topo = makeGeneric(1, ranks);
        auto prog = makeRecursiveHalvingReduceScatter(ranks, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog,
                              static_cast<std::uint64_t>(ranks) * 256 *
                                  4),
                  "")
            << ranks << " ranks";
    }
    EXPECT_THROW(makeRecursiveHalvingReduceScatter(6, {}), Error);
}

TEST(Classic, RecursiveDoublingAllGather)
{
    for (int ranks : { 2, 4, 8, 16 }) {
        Topology topo = makeGeneric(1, ranks);
        auto prog = makeRecursiveDoublingAllGather(ranks, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog, 1024), "")
            << ranks << " ranks";
    }
    EXPECT_THROW(makeRecursiveDoublingAllGather(3, {}), Error);
}

TEST(Classic, RecursiveDoublingUsesLogRounds)
{
    auto prog = makeRecursiveDoublingAllGather(16, {});
    // 16 local placements + 4 rounds x 16 exchanges.
    EXPECT_EQ(prog->ops().size(), 16u + 4u * 16u);
}

TEST(Classic, RabenseifnerAllReduce)
{
    for (int ranks : { 2, 4, 8 }) {
        Topology topo = makeGeneric(1, ranks);
        auto prog = makeRabenseifnerAllReduce(ranks, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog,
                              static_cast<std::uint64_t>(ranks) * 512 *
                                  4),
                  "")
            << ranks << " ranks";
    }
}

TEST(Classic, RingBroadcast)
{
    for (Rank root : { 0, 2 }) {
        Topology topo = makeGeneric(1, 5);
        auto prog = makeRingBroadcast(5, root, 4, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog, 4 * 256 * 4), "")
            << "root " << root;
    }
}

TEST(Classic, BinomialBroadcast)
{
    for (int ranks : { 2, 5, 8, 13 }) {
        Topology topo = makeGeneric(1, ranks);
        auto prog = makeBinomialBroadcast(ranks, ranks / 2, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog, 1024), "")
            << ranks << " ranks";
    }
}

TEST(Classic, BinomialBroadcastHasLogDepth)
{
    auto prog = makeBinomialBroadcast(16, 0, {});
    // 4 rounds of doubling: critical path ~log2(16) + local place.
    EXPECT_LE(ChunkDag(*prog).criticalPathLength(), 5);
}

TEST(Classic, HierarchicalAllGather)
{
    for (auto [nodes, gpus] : { std::pair{ 2, 3 }, { 2, 4 },
                                { 3, 2 } }) {
        Topology topo = makeGeneric(nodes, gpus);
        auto prog = makeHierarchicalAllGather(nodes, gpus, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog, 1024), "")
            << nodes << "x" << gpus;
    }
}

TEST(Classic, HierarchicalAllGatherAggregatesInterNode)
{
    // Cross-node messages must carry whole node blocks (count = G).
    auto prog = makeHierarchicalAllGather(2, 4, {});
    Compiled out = compileProgram(*prog);
    Topology topo = makeGeneric(2, 4);
    bool found_aggregated = false;
    for (const IrGpu &gpu : out.ir.gpus) {
        for (const IrThreadBlock &tb : out.ir.gpus.blocks(gpu)) {
            if (tb.sendPeer < 0 ||
                topo.nodeOf(tb.sendPeer) == topo.nodeOf(gpu.rank)) {
                continue;
            }
            for (const IrInstruction &instr : out.ir.gpus.steps(tb)) {
                if (irOpSends(instr.op)) {
                    EXPECT_EQ(instr.count, 4);
                    found_aggregated = true;
                }
            }
        }
    }
    EXPECT_TRUE(found_aggregated);
}

TEST(Classic, ClassicAlgorithmsComposeWithInstancesAndProtocols)
{
    Topology topo = makeGeneric(1, 8);
    for (Protocol proto : { Protocol::LL, Protocol::Simple }) {
        AlgoConfig config;
        config.protocol = proto;
        config.instances = 2;
        EXPECT_EQ(runAndCheck(topo,
                              *makeRabenseifnerAllReduce(8, config),
                              8 * 512 * 4),
                  "");
        EXPECT_EQ(runAndCheck(topo,
                              *makeDoubleBinaryTreeAllReduce(8, config),
                              2 * 512 * 4),
                  "");
    }
}

} // namespace
} // namespace mscclang
