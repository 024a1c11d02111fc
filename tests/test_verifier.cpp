/**
 * @file
 * Failure injection for the static verifier: hand-built MSCCL-IR
 * with deadlocks, FIFO slot overflows and semantic errors must be
 * rejected with precise diagnostics, while correct IR passes (paper
 * §1's "automatically check ... before running"). Malformed structure
 * never reaches the verifier: IrBuilder rejects it (test_xml.cpp).
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/verifier.h"
#include "dsl/collective.h"

namespace mscclang {
namespace {

/** Hand-built body over @p ranks: 1 input, @p ranks output chunks. */
IrBuilder
skeleton(int ranks)
{
    IrBuilder body;
    for (int r = 0; r < ranks; r++)
        body.addGpu(r, 1, ranks, 0);
    return body;
}

/** The allgather-named program of @p body, over @p ranks. */
IrProgram
handmade(IrBuilder &body, int ranks)
{
    IrProgram ir;
    ir.name = "handmade";
    ir.collective = "allgather";
    ir.numRanks = ranks;
    ir.protocol = Protocol::Simple;
    ir.gpus = body.build(ranks, false);
    return ir;
}

IrInstruction
instr(IrOp op, BufferKind src_buf, int src_off, BufferKind dst_buf,
      int dst_off)
{
    IrInstruction out;
    out.op = op;
    out.srcBuf = src_buf;
    out.srcOff = src_off;
    out.dstBuf = dst_buf;
    out.dstOff = dst_off;
    return out;
}

TEST(Verifier, AcceptsHandWrittenBroadcastPair)
{
    // Rank 0 sends its chunk to rank 1; both place their own copy.
    IrBuilder body = skeleton(2);
    body.addThreadBlock(0, 0, /*send_peer=*/1);
    body.addStep(instr(IrOp::Copy, BufferKind::Input, 0,
                       BufferKind::Output, 0));
    body.addStep(instr(IrOp::Send, BufferKind::Input, 0,
                       BufferKind::Input, 0));
    body.addThreadBlock(1, 0, -1, /*recv_peer=*/0);
    body.addStep(instr(IrOp::Copy, BufferKind::Input, 0,
                       BufferKind::Output, 1));
    body.addStep(instr(IrOp::Recv, BufferKind::Output, 0,
                       BufferKind::Output, 0));
    IrProgram ir = handmade(body, 2);

    // Postcondition: this is rank-1-only gather, so use a custom
    // collective that only constrains what the IR provides.
    CustomCollective coll(
        "partial", 2, 1, false, 1, 2,
        [](Rank rank, int index) -> std::optional<ChunkValue> {
            if (rank == 1 || index == 0)
                return ChunkValue::input(index == 0 && rank == 1
                                             ? 0
                                             : rank,
                                         0);
            return std::nullopt;
        });
    verifyIr(ir, coll);
}

TEST(Verifier, DetectsWrongPostcondition)
{
    // The IR gathers nothing, but claims to be an AllGather.
    IrBuilder body = skeleton(2);
    IrProgram ir = handmade(body, 2);
    AllGatherCollective coll(2, 1);
    EXPECT_THROW(verifyIr(ir, coll), VerificationError);
}

TEST(Verifier, DetectsCrossTbDependencyDeadlock)
{
    // Two thread blocks on one rank waiting on each other.
    IrBuilder body = skeleton(1);
    IrInstruction copy =
        instr(IrOp::Copy, BufferKind::Input, 0, BufferKind::Output, 0);
    copy.hasDep = true;
    body.addThreadBlock(0, 0);
    body.addStep(copy, { IrDep{ 1, 0 } });
    body.addThreadBlock(0, 1);
    body.addStep(copy, { IrDep{ 0, 0 } });
    IrProgram ir = handmade(body, 1);
    VerifyOptions options;
    options.checkPostcondition = false;
    try {
        verifyIr(ir, AllGatherCollective(1, 1), options);
        FAIL() << "deadlock not detected";
    } catch (const VerificationError &error) {
        EXPECT_NE(std::string(error.what()).find("deadlock"),
                  std::string::npos);
    }
}

TEST(Verifier, DetectsFifoSlotDeadlock)
{
    // Both ranks send 16 messages before receiving any; with 8 slots
    // the schedule wedges (the head-of-line pattern the slot-gating
    // scheduler exists to prevent).
    IrBuilder body = skeleton(2);
    for (int r = 0; r < 2; r++) {
        body.addThreadBlock(r, 0, 1 - r, 1 - r);
        for (int i = 0; i < 16; i++) {
            body.addStep(instr(IrOp::Send, BufferKind::Input, 0,
                               BufferKind::Input, 0));
        }
        for (int i = 0; i < 16; i++) {
            body.addStep(instr(IrOp::Recv, BufferKind::Output, 0,
                               BufferKind::Output, 0));
        }
    }
    IrProgram ir = handmade(body, 2);
    VerifyOptions options;
    options.checkPostcondition = false;
    options.slots = 8;
    EXPECT_THROW(verifyIr(ir, AllGatherCollective(2, 1), options),
                 VerificationError);
    // The same schedule is fine with enough slots.
    options.slots = 16;
    verifyIr(ir, AllGatherCollective(2, 1), options);
}

TEST(Verifier, DetectsUninitializedRead)
{
    IrBuilder body = skeleton(1);
    body.addThreadBlock(0, 0);
    body.addStep(instr(IrOp::Copy, BufferKind::Output, 0,
                       BufferKind::Output, 0));
    IrProgram ir = handmade(body, 1);
    VerifyOptions options;
    options.checkPostcondition = false;
    try {
        verifyIr(ir, AllGatherCollective(1, 1), options);
        FAIL() << "uninitialized read not detected";
    } catch (const VerificationError &error) {
        EXPECT_NE(std::string(error.what()).find("uninitialized"),
                  std::string::npos);
    }
}

TEST(Verifier, DetectsFifoShapeMismatch)
{
    // Sender ships 1 chunk, receiver expects 2: FIFO pairing breaks.
    IrBuilder body = skeleton(2);
    body.gpu(0).inputChunks = 2;
    body.gpu(1).inputChunks = 2;
    body.addThreadBlock(0, 0, /*send_peer=*/1);
    body.addStep(instr(IrOp::Send, BufferKind::Input, 0, BufferKind::Input,
                       0));
    IrInstruction recv =
        instr(IrOp::Recv, BufferKind::Output, 0, BufferKind::Output, 0);
    recv.count = 2;
    body.addThreadBlock(1, 0, -1, /*recv_peer=*/0);
    body.addStep(recv);
    IrProgram ir = handmade(body, 2);
    VerifyOptions options;
    options.checkPostcondition = false;
    try {
        verifyIr(ir, AllGatherCollective(2, 1), options);
        FAIL() << "shape mismatch not detected";
    } catch (const VerificationError &error) {
        EXPECT_NE(std::string(error.what()).find("FIFO"),
                  std::string::npos);
    }
}

TEST(Verifier, TornChunkDetected)
{
    // Two parallel instances write halves of an output chunk with
    // DIFFERENT values; reading the whole chunk must report a torn
    // value (postcondition failure rather than silent acceptance).
    IrBuilder body = skeleton(1);
    body.gpu(0).inputChunks = 2;
    body.gpu(0).outputChunks = 1;
    IrInstruction lo =
        instr(IrOp::Copy, BufferKind::Input, 0, BufferKind::Output, 0);
    lo.splitIdx = 0;
    lo.splitCount = 2;
    IrInstruction hi =
        instr(IrOp::Copy, BufferKind::Input, 1, BufferKind::Output, 0);
    hi.splitIdx = 1;
    hi.splitCount = 2;
    body.addThreadBlock(0, 0);
    body.addStep(lo);
    body.addStep(hi);
    IrProgram ir = handmade(body, 1);

    CustomCollective coll(
        "torn", 1, 2, false, 2, 1,
        [](Rank, int) -> std::optional<ChunkValue> {
            return ChunkValue::input(0, 0);
        });
    EXPECT_THROW(verifyIr(ir, coll), VerificationError);
}

TEST(Verifier, ParallelInstancesComposeWhenConsistent)
{
    // Same as above but both halves carry the same source chunk:
    // the whole-chunk read sees one uniform value.
    IrBuilder body = skeleton(1);
    body.gpu(0).outputChunks = 1;
    body.addThreadBlock(0, 0);
    for (int i = 0; i < 2; i++) {
        IrInstruction half = instr(IrOp::Copy, BufferKind::Input, 0,
                                   BufferKind::Output, 0);
        half.splitIdx = i;
        half.splitCount = 2;
        body.addStep(half);
    }
    IrProgram ir = handmade(body, 1);
    CustomCollective coll(
        "whole", 1, 1, false, 1, 1,
        [](Rank, int) -> std::optional<ChunkValue> {
            return ChunkValue::input(0, 0);
        });
    verifyIr(ir, coll);
}

/** The verifier's error text for @p ir, or "" if it verifies. */
std::string
verifyMessage(const IrProgram &ir, const Collective &coll,
              const VerifyOptions &options = {})
{
    try {
        verifyIr(ir, coll, options);
    } catch (const VerificationError &error) {
        return error.what();
    }
    return "";
}

/** A one-rank body with 2 input, 2 scratch and 1 output chunk. */
IrBuilder
singleRankScratch()
{
    IrBuilder body;
    body.addGpu(0, 2, 1, 2);
    return body;
}

IrInstruction
split(IrInstruction in, int idx, int count)
{
    in.splitIdx = idx;
    in.splitCount = count;
    return in;
}

CustomCollective
oneOutput(ChunkValue expected)
{
    return CustomCollective(
        "one", 1, 2, false, 2, 1,
        [expected](Rank, int) -> std::optional<ChunkValue> {
            return expected;
        });
}

TEST(Verifier, EqualSplitValuesFromDifferentInstructionsAreNotTorn)
{
    // scratch[0] and scratch[1] each become in0 + in1 through their
    // own reduce, so the two values are equal but produced by
    // different instructions. Each lands on one half of output[0];
    // the whole-chunk reads that follow must see one value.
    IrBuilder body = singleRankScratch();
    body.addThreadBlock(0, 0);
    for (int s = 0; s < 2; s++) {
        body.addStep(instr(IrOp::Copy, BufferKind::Input, 0,
                           BufferKind::Scratch, s));
        body.addStep(instr(IrOp::Reduce, BufferKind::Input, 1,
                           BufferKind::Scratch, s));
    }
    for (int s = 0; s < 2; s++) {
        body.addStep(split(instr(IrOp::Copy, BufferKind::Scratch, s,
                                 BufferKind::Output, 0),
                           s, 2));
    }
    // A whole read through an instruction, not only the postcondition.
    body.addStep(instr(IrOp::Copy, BufferKind::Output, 0,
                       BufferKind::Scratch, 0));
    IrProgram ir = handmade(body, 1);
    ChunkValue sum = ChunkValue::reductionOf({ { 0, 0 }, { 0, 1 } });
    EXPECT_EQ(verifyMessage(ir, oneOutput(sum)), "");
}

TEST(Verifier, SplitWriteOverWholeWriteIsTorn)
{
    IrBuilder body = singleRankScratch();
    body.addThreadBlock(0, 0);
    body.addStep(instr(IrOp::Copy, BufferKind::Input, 0,
                       BufferKind::Output, 0));
    body.addStep(split(instr(IrOp::Copy, BufferKind::Input, 1,
                             BufferKind::Output, 0),
                       1, 2));
    IrProgram ir = handmade(body, 1);
    EXPECT_EQ(verifyMessage(ir, oneOutput(ChunkValue::input(0, 0))),
              "postcondition: rank 0 output[0]: torn read: fractions hold "
              "different values ((0,0) vs (0,1))");
}

TEST(Verifier, UninitializedFractionDetected)
{
    IrBuilder body = singleRankScratch();
    body.addThreadBlock(0, 0);
    body.addStep(split(instr(IrOp::Copy, BufferKind::Input, 0,
                             BufferKind::Output, 0),
                       0, 2));
    IrProgram ir = handmade(body, 1);
    EXPECT_EQ(verifyMessage(ir, oneOutput(ChunkValue::input(0, 0))),
              "postcondition: rank 0 output[0]: uninitialized bytes at "
              "fraction 1/2");
}

TEST(Verifier, PostconditionMessageIsExact)
{
    // Rank 0 places its own chunk where rank 1's belongs.
    IrBuilder body = skeleton(2);
    for (int r = 0; r < 2; r++) {
        body.addThreadBlock(r, 0);
        for (int i = 0; i < 2; i++) {
            body.addStep(instr(IrOp::Copy, BufferKind::Input, 0,
                               BufferKind::Output, i));
        }
    }
    IrProgram ir = handmade(body, 2);
    EXPECT_EQ(verifyMessage(ir, AllGatherCollective(2, 1)),
              "postcondition violated at rank 0 output[1]: expected (1,0), "
              "got (0,0)");
}

TEST(Verifier, DeadlockReportIsExact)
{
    // The FIFO head-of-line wedge of DetectsFifoSlotDeadlock on two
    // channels, a thread block stuck behind a dependency and one
    // starved of data: the report lists blocked thread blocks, then
    // undelivered connections in (src, dst, channel) order.
    IrBuilder body = skeleton(2);
    for (int r = 0; r < 2; r++) {
        for (int ch = 0; ch < 2; ch++) {
            body.addThreadBlock(r, ch, 1 - r, 1 - r, 1 - ch);
            for (int i = 0; i < 3; i++) {
                body.addStep(instr(IrOp::Send, BufferKind::Input, 0,
                                   BufferKind::Input, 0));
            }
            body.addStep(instr(IrOp::Recv, BufferKind::Output, 0,
                               BufferKind::Output, 0));
        }
        IrInstruction copy =
            instr(IrOp::Copy, BufferKind::Input, 0, BufferKind::Output,
                  1);
        copy.hasDep = true;
        body.addThreadBlock(r, 2);
        body.addStep(copy, { IrDep{ 0, 3 } });
        if (r == 0) {
            // A receiver on a connection nobody sends on.
            body.addThreadBlock(0, 3, -1, /*recv_peer=*/1, 5);
            body.addStep(instr(IrOp::Recv, BufferKind::Output, 1,
                               BufferKind::Output, 1));
        }
    }
    IrProgram ir = handmade(body, 2);
    VerifyOptions options;
    options.checkPostcondition = false;
    options.slots = 2;
    EXPECT_EQ(verifyMessage(ir, AllGatherCollective(2, 1), options),
              "deadlock detected:\n"
              "  rank 0 tb 0 blocked at step 2 (s i[0] -> i[0] cnt=1) waiting "
              "for FIFO slot to 1 (queued=2) or dependency\n"
              "  rank 0 tb 1 blocked at step 2 (s i[0] -> i[0] cnt=1) waiting "
              "for FIFO slot to 1 (queued=2) or dependency\n"
              "  rank 0 tb 2 blocked at step 0 (cpy i[0] -> o[1] cnt=1 "
              "dep=(tb0,3) sem) waiting for dependency\n"
              "  rank 0 tb 3 blocked at step 0 (r o[1] -> o[1] cnt=1) waiting "
              "for data from 1 (inbox=0) or dependency\n"
              "  rank 1 tb 0 blocked at step 2 (s i[0] -> i[0] cnt=1) waiting "
              "for FIFO slot to 0 (queued=2) or dependency\n"
              "  rank 1 tb 1 blocked at step 2 (s i[0] -> i[0] cnt=1) waiting "
              "for FIFO slot to 0 (queued=2) or dependency\n"
              "  rank 1 tb 2 blocked at step 0 (cpy i[0] -> o[1] cnt=1 "
              "dep=(tb0,3) sem) waiting for dependency\n"
              "  conn 0 -> 1 ch 0: 2 undelivered\n"
              "  conn 0 -> 1 ch 1: 2 undelivered\n"
              "  conn 1 -> 0 ch 0: 2 undelivered\n"
              "  conn 1 -> 0 ch 1: 2 undelivered\n");
}

TEST(Verifier, SlotOptionValidated)
{
    IrBuilder body = skeleton(1);
    IrProgram ir = handmade(body, 1);
    VerifyOptions options;
    options.slots = 0;
    EXPECT_THROW(verifyIr(ir, AllGatherCollective(1, 1), options),
                 VerificationError);
}

} // namespace
} // namespace mscclang
