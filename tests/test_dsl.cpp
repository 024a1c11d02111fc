/**
 * @file
 * Unit tests for the DSL (paper §3): collective pre/postconditions,
 * the chunk()/copy()/reduce() tracing semantics, the stale-reference
 * discipline that makes programs race free by construction, scratch
 * auto-sizing, parallelize scopes and presetChunk.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "dsl/program.h"

namespace mscclang {
namespace {

std::shared_ptr<AllReduceCollective>
allreduce(int ranks, int chunks)
{
    return std::make_shared<AllReduceCollective>(ranks, chunks);
}

// ---------------------------------------------------------------
// Collective definitions.

TEST(Collectives, AllReduceShape)
{
    AllReduceCollective coll(4, 8);
    EXPECT_EQ(coll.inputChunkCount(0), 8);
    EXPECT_EQ(coll.outputChunkCount(3), 8);
    EXPECT_TRUE(coll.inPlace());
    EXPECT_DOUBLE_EQ(coll.outputScale(), 1.0);
    auto expected = coll.expectedOutput(2, 5);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(expected->parts().size(), 4u);
    for (int r = 0; r < 4; r++)
        EXPECT_EQ(expected->parts()[r], (InputChunkId{ r, 5 }));
}

TEST(Collectives, AllGatherShape)
{
    AllGatherCollective coll(3, 2);
    EXPECT_EQ(coll.inputChunkCount(0), 2);
    EXPECT_EQ(coll.outputChunkCount(0), 6);
    EXPECT_FALSE(coll.inPlace());
    EXPECT_DOUBLE_EQ(coll.outputScale(), 3.0);
    EXPECT_EQ(*coll.expectedOutput(1, 3), ChunkValue::input(1, 1));
    EXPECT_EQ(*coll.expectedOutput(0, 4), ChunkValue::input(2, 0));
}

TEST(Collectives, ReduceScatterShape)
{
    ReduceScatterCollective coll(4, 2);
    EXPECT_EQ(coll.inputChunkCount(0), 8);
    EXPECT_EQ(coll.outputChunkCount(0), 2);
    EXPECT_DOUBLE_EQ(coll.outputScale(), 0.25);
    auto expected = coll.expectedOutput(1, 0);
    ASSERT_TRUE(expected.has_value());
    // output chunk 0 of rank 1 = sum over ranks of input chunk 2.
    for (const InputChunkId &part : expected->parts())
        EXPECT_EQ(part.index, 2);
}

TEST(Collectives, AllToAllTransposes)
{
    AllToAllCollective coll(3, 2);
    EXPECT_EQ(coll.inputChunkCount(0), 6);
    // output block s of rank r <- input block r of rank s
    EXPECT_EQ(*coll.expectedOutput(1, 4), ChunkValue::input(2, 2));
    EXPECT_EQ(*coll.expectedOutput(1, 5), ChunkValue::input(2, 3));
}

TEST(Collectives, AllToNextLeavesFirstRankUnconstrained)
{
    AllToNextCollective coll(4, 3);
    EXPECT_FALSE(coll.expectedOutput(0, 0).has_value());
    EXPECT_EQ(*coll.expectedOutput(2, 1), ChunkValue::input(1, 1));
}

TEST(Collectives, BroadcastFromRoot)
{
    BroadcastCollective coll(4, 2, 1);
    EXPECT_EQ(*coll.expectedOutput(3, 1), ChunkValue::input(1, 1));
    EXPECT_THROW(BroadcastCollective(4, 2, 9), Error);
}

TEST(Collectives, CustomValidation)
{
    EXPECT_THROW(CustomCollective("x", 2, 1, false, 1, 1, nullptr),
                 Error);
    EXPECT_THROW(CustomCollective("x", 0, 1, false, 1, 1,
                                  [](Rank, int) { return std::nullopt; }),
                 Error);
}

// ---------------------------------------------------------------
// Tracing semantics.

TEST(Program, PreconditionSeedsInputChunks)
{
    Program prog(allreduce(2, 3));
    EXPECT_EQ(prog.valueAt(1, BufferKind::Input, 2),
              ChunkValue::input(1, 2));
}

TEST(Program, CopyMovesValue)
{
    Program prog(allreduce(2, 2));
    prog.chunk(0, BufferKind::Input, 1).copy(1, BufferKind::Scratch, 0);
    EXPECT_EQ(prog.valueAt(1, BufferKind::Scratch, 0),
              ChunkValue::input(0, 1));
    ASSERT_EQ(prog.ops().size(), 1u);
    EXPECT_EQ(prog.ops()[0].kind, OpKind::Copy);
}

TEST(Program, ReduceCombinesInPlace)
{
    Program prog(allreduce(2, 2));
    ChunkRef remote = prog.chunk(0, BufferKind::Input, 0);
    prog.chunk(1, BufferKind::Input, 0).reduce(remote);
    EXPECT_EQ(prog.valueAt(1, BufferKind::Input, 0),
              ChunkValue::reduce(ChunkValue::input(0, 0),
                                 ChunkValue::input(1, 0)));
    // the operand rank's buffer is untouched
    EXPECT_EQ(prog.valueAt(0, BufferKind::Input, 0),
              ChunkValue::input(0, 0));
}

TEST(Program, StaleReferenceRejected)
{
    Program prog(allreduce(2, 2));
    ChunkRef old_ref = prog.chunk(0, BufferKind::Input, 0);
    // Overwrite location (0, in, 0) via a copy from rank 1.
    prog.chunk(1, BufferKind::Input, 0).copy(0, BufferKind::Input, 0);
    EXPECT_THROW(old_ref.copy(1, BufferKind::Scratch, 0), ProgramError);
}

TEST(Program, StaleReduceTargetRejected)
{
    Program prog(allreduce(2, 2));
    ChunkRef target = prog.chunk(0, BufferKind::Input, 0);
    prog.chunk(1, BufferKind::Input, 0).copy(0, BufferKind::Input, 0);
    ChunkRef operand = prog.chunk(0, BufferKind::Input, 1);
    EXPECT_THROW(target.reduce(operand), ProgramError);
}

TEST(Program, StaleAfterWriteThroughOverlappingReference)
{
    // A multi-chunk reference goes stale when a write through another
    // reference covers only part of it, and only the written
    // locations count: a reference to the untouched rest stays fresh.
    Program prog(allreduce(2, 4));
    ChunkRef wide = prog.chunk(0, BufferKind::Input, 0, 3);
    ChunkRef rest = prog.chunk(0, BufferKind::Input, 0, 2);
    prog.chunk(1, BufferKind::Input, 2).copy(0, BufferKind::Input, 2);
    try {
        wide.copy(1, BufferKind::Scratch, 0);
        FAIL() << "stale reference accepted";
    } catch (const ProgramError &error) {
        BufferSlice stale{ 0, BufferKind::Input, 2, 1 };
        EXPECT_EQ(std::string(error.what()),
                  "stale chunk reference " + wide.slice().toString() +
                      " used as copy source: location " +
                      stale.toString() +
                      " was overwritten after the reference was created");
    }
    EXPECT_NO_THROW(rest.copy(1, BufferKind::Scratch, 0));

    // A reduce through an overlapping in-place alias stales it too,
    // and so does a write that lands after the reference was made
    // from a fresh one of the same location.
    ChunkRef in = prog.chunk(0, BufferKind::Input, 1);
    prog.chunk(0, BufferKind::Output, 0, 2)
        .reduce(prog.chunk(1, BufferKind::Input, 0, 2));
    EXPECT_THROW(in.copy(1, BufferKind::Scratch, 4), ProgramError);
    ChunkRef result = prog.chunk(0, BufferKind::Input, 0, 2);
    EXPECT_NO_THROW(result.copy(1, BufferKind::Scratch, 4));
}

TEST(Program, SelfOverlappingCopyCopiesOldValues)
{
    // [0,4) -> [2,6) in one buffer: every destination receives its
    // source's value from before the copy, as with memmove.
    Program forward(allreduce(1, 6));
    forward.chunk(0, BufferKind::Input, 0, 4).copy(0, BufferKind::Input, 2);
    for (int i = 0; i < 6; i++) {
        int from = i < 2 ? i : i - 2;
        EXPECT_EQ(forward.valueAt(0, BufferKind::Input, i),
                  ChunkValue::input(0, from)) << "chunk " << i;
    }
    // And the other way, [2,6) -> [0,4), through the in-place alias.
    Program backward(allreduce(1, 6));
    backward.chunk(0, BufferKind::Input, 2, 4)
        .copy(0, BufferKind::Output, 0);
    for (int i = 0; i < 6; i++) {
        int from = i < 4 ? i + 2 : i;
        EXPECT_EQ(backward.valueAt(0, BufferKind::Input, i),
                  ChunkValue::input(0, from)) << "chunk " << i;
    }
}

TEST(Program, FreshReferenceAfterOverwriteWorks)
{
    Program prog(allreduce(2, 2));
    prog.chunk(1, BufferKind::Input, 0).copy(0, BufferKind::Input, 0);
    // Re-acquiring the latest reference is the sanctioned pattern.
    ChunkRef fresh = prog.chunk(0, BufferKind::Input, 0);
    fresh.copy(1, BufferKind::Scratch, 0);
    EXPECT_EQ(prog.valueAt(1, BufferKind::Scratch, 0),
              ChunkValue::input(1, 0));
}

TEST(Program, UninitializedReadRejected)
{
    Program prog(std::make_shared<AllGatherCollective>(2, 1));
    EXPECT_THROW(prog.chunk(0, BufferKind::Output, 0), ProgramError);
    EXPECT_THROW(prog.chunk(0, BufferKind::Scratch, 3), ProgramError);
}

TEST(Program, UninitializedReduceRejected)
{
    Program prog(std::make_shared<AllGatherCollective>(2, 1));
    ChunkRef in = prog.chunk(0, BufferKind::Input, 0);
    ChunkRef out = in.copy(0, BufferKind::Output, 0);
    // reduce with an uninitialized neighbour location via a ref to
    // the copied location is fine; reducing INTO uninitialized is
    // impossible because chunk() refuses to hand out the reference.
    EXPECT_THROW(prog.chunk(0, BufferKind::Output, 1), ProgramError);
    (void)out;
}

TEST(Program, OutOfBoundsRejected)
{
    Program prog(allreduce(2, 2));
    EXPECT_THROW(prog.chunk(0, BufferKind::Input, 2), ProgramError);
    EXPECT_THROW(prog.chunk(2, BufferKind::Input, 0), ProgramError);
    EXPECT_THROW(prog.chunk(0, BufferKind::Input, 0, 3), ProgramError);
    EXPECT_THROW(prog.chunk(0, BufferKind::Input, -1), ProgramError);
}

TEST(Program, ScratchGrowsOnDemand)
{
    Program prog(allreduce(2, 2));
    EXPECT_EQ(prog.scratchChunkCount(0), 0);
    prog.chunk(0, BufferKind::Input, 0)
        .copy(0, BufferKind::Scratch, 9);
    EXPECT_EQ(prog.scratchChunkCount(0), 10);
    EXPECT_EQ(prog.scratchChunkCount(1), 0); // per rank
}

TEST(Program, InPlaceAliasesOutputOntoInput)
{
    Program prog(allreduce(2, 2));
    prog.chunk(1, BufferKind::Input, 0).copy(0, BufferKind::Output, 0);
    // The write through "Output" is visible through "Input".
    EXPECT_EQ(prog.valueAt(0, BufferKind::Input, 0),
              ChunkValue::input(1, 0));
}

TEST(Program, MismatchedReduceCountsRejected)
{
    Program prog(allreduce(2, 4));
    ChunkRef two = prog.chunk(0, BufferKind::Input, 0, 2);
    ChunkRef three = prog.chunk(1, BufferKind::Input, 0, 3);
    EXPECT_THROW(three.reduce(two), ProgramError);
}

TEST(Program, PartiallyOverlappingReduceRejected)
{
    Program prog(allreduce(1, 4));
    ChunkRef a = prog.chunk(0, BufferKind::Input, 0, 2);
    ChunkRef b = prog.chunk(0, BufferKind::Input, 1, 2);
    EXPECT_THROW(a.reduce(b), ProgramError);
}

TEST(Program, ChannelDirectiveRecorded)
{
    Program prog(allreduce(2, 2));
    prog.chunk(0, BufferKind::Input, 0)
        .copy(1, BufferKind::Scratch, 0, OpOptions{ 5 });
    EXPECT_EQ(prog.ops()[0].channel, 5);
}

TEST(Program, ParallelizeScopesNestMultiplicatively)
{
    Program prog(allreduce(2, 2));
    {
        ParallelizeScope outer = prog.parallelize(2);
        prog.chunk(0, BufferKind::Input, 0)
            .copy(1, BufferKind::Scratch, 0);
        {
            ParallelizeScope inner = prog.parallelize(3);
            prog.chunk(0, BufferKind::Input, 1)
                .copy(1, BufferKind::Scratch, 1);
        }
    }
    prog.chunk(1, BufferKind::Input, 0).copy(0, BufferKind::Scratch, 0);
    ASSERT_EQ(prog.ops().size(), 3u);
    EXPECT_EQ(prog.ops()[0].parFactor, 2);
    EXPECT_EQ(prog.ops()[1].parFactor, 6);
    EXPECT_EQ(prog.ops()[2].parFactor, 1);
    EXPECT_THROW(prog.parallelize(0), ProgramError);
}

TEST(Program, PresetChunkOnlyBeforeOps)
{
    Program prog(std::make_shared<AllGatherCollective>(2, 1));
    prog.presetChunk(0, BufferKind::Scratch, 0, ChunkValue::input(1, 0));
    ChunkRef c = prog.chunk(0, BufferKind::Scratch, 0);
    c.copy(0, BufferKind::Output, 1);
    EXPECT_EQ(prog.valueAt(0, BufferKind::Output, 1),
              ChunkValue::input(1, 0));
    EXPECT_THROW(prog.presetChunk(0, BufferKind::Scratch, 1,
                                  ChunkValue::input(0, 0)),
                 ProgramError);
}

TEST(Program, CheckPostconditionDetectsIncompletePrograms)
{
    // A "ring" that skips the AllGather phase: reduced values exist
    // on one rank only, so the postcondition must fail.
    Program prog(allreduce(2, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0);
    prog.chunk(1, BufferKind::Input, 0).reduce(c);
    EXPECT_THROW(prog.checkPostcondition(), VerificationError);
}

TEST(Program, CheckPostconditionAcceptsCorrectPrograms)
{
    Program prog(allreduce(2, 1));
    ChunkRef c = prog.chunk(0, BufferKind::Input, 0);
    c = prog.chunk(1, BufferKind::Input, 0).reduce(c);
    c.copy(0, BufferKind::Input, 0);
    prog.checkPostcondition();
}

TEST(Program, InPlaceRequiresMatchingChunkCounts)
{
    auto bad = std::make_shared<CustomCollective>(
        "bad", 2, 1, /*in_place=*/true, /*in=*/2, /*out=*/3,
        [](Rank, int) { return std::nullopt; });
    EXPECT_THROW(Program prog(bad), ProgramError);
}

TEST(Program, InstancesMustBePositive)
{
    ProgramOptions options;
    options.instances = 0;
    EXPECT_THROW(Program(allreduce(2, 1), options), ProgramError);
}

} // namespace
} // namespace mscclang
