/**
 * @file
 * Unit tests for the chunk value algebra (paper §3.1) and buffer
 * slices: multiset reduction semantics, uninitialized handling,
 * equality, and the exact-rational fraction intervals used for
 * sub-chunk dependence analysis.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/frac.h"
#include "dsl/chunk.h"

namespace mscclang {
namespace {

TEST(ChunkValue, DefaultIsUninitialized)
{
    ChunkValue value;
    EXPECT_FALSE(value.initialized());
    EXPECT_TRUE(value.parts().empty());
    EXPECT_FALSE(value.isPureInput());
}

TEST(ChunkValue, InputIsPure)
{
    ChunkValue value = ChunkValue::input(3, 7);
    EXPECT_TRUE(value.initialized());
    EXPECT_TRUE(value.isPureInput());
    ASSERT_EQ(value.parts().size(), 1u);
    EXPECT_EQ(value.parts()[0].rank, 3);
    EXPECT_EQ(value.parts()[0].index, 7);
}

TEST(ChunkValue, ReduceMergesMultisets)
{
    ChunkValue a = ChunkValue::input(0, 1);
    ChunkValue b = ChunkValue::input(1, 1);
    ChunkValue sum = ChunkValue::reduce(a, b);
    EXPECT_FALSE(sum.isPureInput());
    ASSERT_EQ(sum.parts().size(), 2u);
    // Reduction is commutative on the multiset representation.
    EXPECT_EQ(sum, ChunkValue::reduce(b, a));
}

TEST(ChunkValue, ReductionIsMultisetNotSet)
{
    // Summing the same chunk twice is a *different* value than the
    // chunk itself: duplicates matter.
    ChunkValue a = ChunkValue::input(0, 0);
    ChunkValue twice = ChunkValue::reduce(a, a);
    EXPECT_NE(twice, a);
    EXPECT_EQ(twice.parts().size(), 2u);
}

TEST(ChunkValue, ReduceAssociates)
{
    ChunkValue a = ChunkValue::input(0, 0);
    ChunkValue b = ChunkValue::input(1, 0);
    ChunkValue c = ChunkValue::input(2, 0);
    EXPECT_EQ(ChunkValue::reduce(ChunkValue::reduce(a, b), c),
              ChunkValue::reduce(a, ChunkValue::reduce(b, c)));
}

TEST(ChunkValue, ReduceUninitializedThrows)
{
    ChunkValue a = ChunkValue::input(0, 0);
    ChunkValue bottom;
    EXPECT_THROW(ChunkValue::reduce(a, bottom), Error);
    EXPECT_THROW(ChunkValue::reduce(bottom, a), Error);
}

TEST(ChunkValue, ReductionOfNormalizesOrder)
{
    ChunkValue v1 = ChunkValue::reductionOf(
        { InputChunkId{ 2, 0 }, InputChunkId{ 0, 0 } });
    ChunkValue v2 = ChunkValue::reductionOf(
        { InputChunkId{ 0, 0 }, InputChunkId{ 2, 0 } });
    EXPECT_EQ(v1, v2);
    EXPECT_THROW(ChunkValue::reductionOf({}), Error);
}

TEST(ChunkValue, ToStringFormats)
{
    EXPECT_EQ(ChunkValue::input(1, 2).toString(), "(1,2)");
    ChunkValue sum = ChunkValue::reduce(ChunkValue::input(0, 0),
                                        ChunkValue::input(1, 0));
    EXPECT_EQ(sum.toString(), "(0,0)+(1,0)");
}

TEST(ChunkValue, RunsMoveBetweenInlineAndHeapStorage)
{
    // Input chunks of ranks 0, 2, 4, ... never merge into one run, so
    // the value outgrows its inline runs and moves to the heap.
    ChunkValue small = ChunkValue::reduce(ChunkValue::input(0, 1),
                                          ChunkValue::input(2, 1));
    ASSERT_EQ(small.runs().size(), ChunkValue::kInlineRuns);
    ChunkValue big = small;
    std::vector<InputChunkId> parts = small.parts();
    for (int rank = 4; rank < 40; rank += 2) {
        big = ChunkValue::reduce(big, ChunkValue::input(rank, 1));
        parts.push_back(InputChunkId{ rank, 1 });
    }
    ASSERT_EQ(big.runs().size(), 20u);
    EXPECT_EQ(big.parts(), parts);
    EXPECT_EQ(big, ChunkValue::reductionOf(parts));
    EXPECT_NE(big, small);

    // Copies and moves in each direction keep the value.
    ChunkValue copy = big;
    EXPECT_EQ(copy, big);
    ChunkValue moved = std::move(copy);
    EXPECT_EQ(moved, big);
    EXPECT_FALSE(copy.initialized()); // NOLINT: moved-from is uninit
    copy = small;
    EXPECT_EQ(copy, small);
    copy = big;
    EXPECT_EQ(copy, big);
    copy = std::move(moved);
    EXPECT_EQ(copy, big);
    ChunkValue &self = copy;
    copy = self;
    EXPECT_EQ(copy, big);
    moved = small;
    moved = ChunkValue::input(5, 5);
    EXPECT_TRUE(moved.isPureInput());

    // The same multiset built in another order is equal, so equality
    // and fingerprints do not depend on where the runs live.
    ChunkValue reversed = ChunkValue::input(38, 1);
    for (int rank = 36; rank >= 0; rank -= 2)
        reversed = ChunkValue::reduce(ChunkValue::input(rank, 1), reversed);
    EXPECT_EQ(reversed, big);
    EXPECT_EQ(reversed.toString(), big.toString());
}

TEST(BufferSlice, OverlapRules)
{
    BufferSlice a{ 0, BufferKind::Input, 0, 4 };
    BufferSlice b{ 0, BufferKind::Input, 3, 2 };
    BufferSlice c{ 0, BufferKind::Input, 4, 2 };
    BufferSlice other_rank{ 1, BufferKind::Input, 0, 4 };
    BufferSlice other_buf{ 0, BufferKind::Scratch, 0, 4 };
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_TRUE(b.overlaps(a));
    EXPECT_FALSE(a.overlaps(c));
    EXPECT_FALSE(a.overlaps(other_rank));
    EXPECT_FALSE(a.overlaps(other_buf));
}

TEST(Frac, OrderingAndEquality)
{
    EXPECT_TRUE(Frac::of(1, 3) < Frac::of(1, 2));
    EXPECT_TRUE(Frac::of(2, 4) == Frac::of(1, 2));
    EXPECT_TRUE(Frac::of(0, 1) <= Frac::of(0, 5));
    EXPECT_EQ(Frac::of(2, 4).num, 1);
    EXPECT_EQ(Frac::of(2, 4).den, 2);
}

TEST(Frac, IntervalOverlapAndCover)
{
    FracInterval half{ Frac::of(0, 1), Frac::of(1, 2) };
    FracInterval rest{ Frac::of(1, 2), Frac::of(1, 1) };
    FracInterval all{ Frac::of(0, 1), Frac::of(1, 1) };
    EXPECT_FALSE(half.overlaps(rest)); // half-open intervals
    EXPECT_TRUE(all.overlaps(half));
    EXPECT_TRUE(all.covers(half));
    EXPECT_FALSE(half.covers(all));
    EXPECT_TRUE(half.covers(half));
}

TEST(Frac, SplitFractionPartitions)
{
    // Instances of one op must exactly tile [0, 1) with no overlap.
    for (int n : { 1, 2, 3, 7, 24 }) {
        Frac cursor = Frac::of(0, 1);
        for (int i = 0; i < n; i++) {
            FracInterval part = splitFraction(i, n);
            EXPECT_TRUE(part.lo == cursor);
            cursor = part.hi;
            if (i > 0) {
                EXPECT_FALSE(part.overlaps(splitFraction(i - 1, n)));
            }
        }
        EXPECT_TRUE(cursor == Frac::of(1, 1));
    }
}

TEST(Frac, DifferentSplitsOverlapPartially)
{
    // Instance 0 of 2 covers [0, 1/2); instance 1 of 3 covers
    // [1/3, 2/3): they overlap but neither covers the other.
    FracInterval a = splitFraction(0, 2);
    FracInterval b = splitFraction(1, 3);
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.covers(b));
    EXPECT_FALSE(b.covers(a));
}

} // namespace
} // namespace mscclang
