/**
 * @file
 * Tests for the rooted collectives (Reduce, Gather, Scatter):
 * postcondition definitions, algorithms across rank counts and
 * roots, and oracle-checked execution.
 */

#include <gtest/gtest.h>

#include "collectives/rooted.h"
#include "common/error.h"
#include "compiler/chunk_dag.h"
#include "test_util.h"

namespace mscclang {
namespace {

using testing::runAndCheck;

TEST(Rooted, ReducePostcondition)
{
    ReduceCollective coll(4, 2, 1);
    EXPECT_FALSE(coll.expectedOutput(0, 0).has_value());
    auto at_root = coll.expectedOutput(1, 1);
    ASSERT_TRUE(at_root.has_value());
    EXPECT_EQ(at_root->parts().size(), 4u);
    EXPECT_THROW(ReduceCollective(4, 1, 9), Error);
}

TEST(Rooted, GatherAndScatterPostconditions)
{
    GatherCollective gather(3, 2, 2);
    EXPECT_FALSE(gather.expectedOutput(0, 0).has_value());
    EXPECT_EQ(*gather.expectedOutput(2, 3), ChunkValue::input(1, 1));
    EXPECT_EQ(gather.outputChunkCount(0), 6);

    ScatterCollective scatter(3, 2, 0);
    EXPECT_EQ(*scatter.expectedOutput(2, 1), ChunkValue::input(0, 5));
    EXPECT_EQ(scatter.outputChunkCount(1), 2);
    EXPECT_DOUBLE_EQ(scatter.outputScale(), 1.0 / 3.0);
}

TEST(Rooted, BinomialReduceAcrossShapesAndRoots)
{
    for (int ranks : { 2, 3, 5, 8 }) {
        for (Rank root : { 0, ranks - 1 }) {
            Topology topo = makeGeneric(1, ranks);
            auto prog = makeBinomialReduce(ranks, root, {});
            prog->checkPostcondition();
            EXPECT_EQ(runAndCheck(topo, *prog, 1024), "")
                << ranks << " ranks, root " << root;
        }
    }
}

TEST(Rooted, BinomialReduceHasLogCriticalPath)
{
    auto prog = makeBinomialReduce(8, 0, {});
    // stage copy + 3 reduction rounds + final copy
    EXPECT_LE(ChunkDag(*prog).criticalPathLength(), 6);
}

TEST(Rooted, DirectGather)
{
    for (Rank root : { 0, 3 }) {
        Topology topo = makeGeneric(2, 3);
        auto prog = makeDirectGather(6, root, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog, 1024), "")
            << "root " << root;
    }
}

TEST(Rooted, DirectScatter)
{
    for (Rank root : { 0, 4 }) {
        Topology topo = makeGeneric(2, 3);
        auto prog = makeDirectScatter(6, root, {});
        prog->checkPostcondition();
        EXPECT_EQ(runAndCheck(topo, *prog, 6 * 512 * 4), "")
            << "root " << root;
    }
}

TEST(Rooted, GatherThenScatterRoundTrips)
{
    // Scatter is gather's inverse: running gather(root 0) then
    // scatter(root 0) over the gathered buffer reproduces the inputs.
    // Here we simply check both run clean on the same machine.
    Topology topo = makeGeneric(1, 4);
    EXPECT_EQ(runAndCheck(topo, *makeDirectGather(4, 0, {}), 2048),
              "");
    EXPECT_EQ(runAndCheck(topo, *makeDirectScatter(4, 0, {}),
                          4 * 512 * 4),
              "");
}

} // namespace
} // namespace mscclang
