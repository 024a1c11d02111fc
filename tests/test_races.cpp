/**
 * @file
 * Tests for the structural data-race checker: compiler output must
 * always pass (races are prevented by construction, paper §5.2),
 * while hand-built IR with missing cross-thread-block dependencies
 * must be flagged with the offending pair, confirmed unordered by the
 * reference oracle where the walk's own behaviour is at stake.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/access_history.h"
#include "compiler/compiler.h"
#include "compiler/verifier.h"
#include "race_oracle.h"

namespace mscclang {
namespace {

/** The program of @p body over @p ranks. */
IrProgram
programOf(IrBuilder &body, int ranks)
{
    IrProgram ir;
    ir.numRanks = ranks;
    ir.gpus = body.build(ranks, false);
    return ir;
}

IrInstruction
copyOf(BufferKind src, int src_off, BufferKind dst, int dst_off)
{
    IrInstruction copy;
    copy.op = IrOp::Copy;
    copy.srcBuf = src;
    copy.srcOff = src_off;
    copy.dstBuf = dst;
    copy.dstOff = dst_off;
    return copy;
}

TEST(RaceChecker, CompilerOutputIsRaceFreeByConstruction)
{
    AlgoConfig config;
    config.instances = 2;
    verifyRaceFree(compileProgram(*makeRingAllReduce(6, 3, config)).ir);
    verifyRaceFree(compileProgram(*makeAllPairsAllReduce(6, config)).ir);
    verifyRaceFree(
        compileProgram(*makeHierarchicalAllReduce(2, 3, 2, config)).ir);
    verifyRaceFree(compileProgram(*makeTwoStepAllToAll(2, 3, config)).ir);
    verifyRaceFree(compileProgram(*makeAllToNext(2, 4, config)).ir);
    verifyRaceFree(
        compileProgram(*makeRabenseifnerAllReduce(8, config)).ir);
}

TEST(RaceChecker, DetectsMissingCrossTbDependency)
{
    // Two thread blocks on one rank write the same output chunk with
    // no ordering between them.
    IrBuilder body;
    body.addGpu(0, 2, 1, 0);
    for (int t = 0; t < 2; t++) {
        body.addThreadBlock(0, t);
        body.addStep(copyOf(BufferKind::Input, t, BufferKind::Output, 0));
    }
    IrProgram ir = programOf(body, 1);
    try {
        verifyRaceFree(ir);
        FAIL() << "race not detected";
    } catch (const VerificationError &error) {
        EXPECT_NE(std::string(error.what()).find("data race"),
                  std::string::npos);
    }
}

TEST(RaceChecker, DependencyMakesItOrdered)
{
    IrBuilder body;
    body.addGpu(0, 2, 1, 0);
    IrInstruction first = copyOf(BufferKind::Input, 0, BufferKind::Output, 0);
    first.hasDep = true;
    body.addThreadBlock(0, 0);
    body.addStep(first);
    body.addThreadBlock(0, 1);
    body.addStep(copyOf(BufferKind::Input, 1, BufferKind::Output, 0),
                 { IrDep{ 0, 0 } });
    verifyRaceFree(programOf(body, 1));
}

TEST(RaceChecker, DisjointFractionsDoNotConflict)
{
    // Two unordered thread blocks write complementary halves.
    IrBuilder body;
    body.addGpu(0, 1, 1, 0);
    for (int t = 0; t < 2; t++) {
        IrInstruction copy =
            copyOf(BufferKind::Input, 0, BufferKind::Output, 0);
        copy.splitIdx = t;
        copy.splitCount = 2;
        body.addThreadBlock(0, t);
        body.addStep(copy);
    }
    verifyRaceFree(programOf(body, 1));
}

TEST(RaceChecker, CommunicationEdgesProvideOrder)
{
    // Rank 0 sends; rank 1 receives then reads the landing spot —
    // ordered through the communication edge, not a semaphore.
    IrBuilder body;
    for (int r = 0; r < 2; r++)
        body.addGpu(r, 1, 1, 1);
    IrInstruction send;
    send.op = IrOp::Send;
    send.srcBuf = BufferKind::Input;
    body.addThreadBlock(0, 0, /*send_peer=*/1);
    body.addStep(send);

    body.addThreadBlock(1, 0, -1, /*recv_peer=*/0);
    IrInstruction recv;
    recv.op = IrOp::Recv;
    recv.dstBuf = BufferKind::Scratch;
    body.addStep(recv);
    body.addStep(copyOf(BufferKind::Scratch, 0, BufferKind::Output, 0));

    verifyRaceFree(programOf(body, 2));
}

TEST(RaceChecker, CyclicDependenciesRejected)
{
    IrBuilder body;
    body.addGpu(0, 1, 1, 0);
    for (int t = 0; t < 2; t++) {
        IrInstruction nop;
        nop.op = IrOp::Nop;
        body.addThreadBlock(0, t);
        body.addStep(nop, { IrDep{ 1 - t, 0 } });
    }
    EXPECT_THROW(verifyRaceFree(programOf(body, 1)), VerificationError);
}

/** Runs the race check; returns its message, or "" if it passes. */
std::string
raceVerdict(const IrProgram &ir)
{
    try {
        verifyRaceFree(ir);
    } catch (const VerificationError &error) {
        return error.what();
    }
    return "";
}

TEST(RaceChecker, SplitWritesDoNotShadowWholeRead)
{
    // Only a whole-chunk write starts a location's history over; a
    // half write is appended after the entries it does not cover.
    AccessHistory history({ 0, 0, 1 });
    history.record(0, BufferKind::Scratch, 0, 7, 0, 1, false);
    history.record(0, BufferKind::Scratch, 0, 8, 0, 2, true);
    history.record(0, BufferKind::Scratch, 0, 9, 1, 2, true);
    std::vector<int> nodes;
    for (int e = history.head(0, BufferKind::Scratch, 0); e >= 0;
         e = history.entry(e).next) {
        nodes.push_back(history.entry(e).node);
    }
    EXPECT_EQ(nodes, (std::vector<int>{ 9, 8, 7 }));

    // tb 2 reads all of s[0]; tb 0 writes its first half after that
    // read (a dependency), tb 1 its second half with no ordering.
    // The IR walk's round-robin takes tb 1, then tb 2, then tb 0 (tb
    // 0 waits for tb 2), so the race walk meets tb 1's unordered half
    // write before the read and names that pair.
    // SplitWriteAfterOrderedReadKeepsTheRead takes the read first.
    IrBuilder body;
    body.addGpu(0, 1, 1, 1);
    for (int t = 0; t < 3; t++) {
        IrInstruction step =
            t == 2 ? copyOf(BufferKind::Scratch, 0, BufferKind::Output, 0)
                   : copyOf(BufferKind::Input, 0, BufferKind::Scratch, 0);
        if (t < 2) {
            step.splitIdx = t;
            step.splitCount = 2;
        }
        std::vector<IrDep> deps;
        if (t == 0)
            deps.push_back(IrDep{ 2, 0 });
        body.addThreadBlock(0, t);
        body.addStep(step, deps);
    }
    IrProgram ir = programOf(body, 1);
    std::string verdict = raceVerdict(ir);
    EXPECT_EQ(verdict, "data race: rank 0 tb 1 step 0 and tb 2 step 0 "
                       "access s[0] unordered");
    std::optional<ReportedRace> race = parseRaceMessage(verdict);
    ASSERT_TRUE(race.has_value());
    EXPECT_TRUE(confirmsRace(ir, *race));
}

TEST(RaceChecker, SplitWriteAfterOrderedReadKeepsTheRead)
{
    // tb 0 reads all of s[0]; tb 1 writes its first half after that
    // read (a dependency), tb 2 its second half with no ordering. The
    // walk takes tb 0, tb 1, tb 2 in that order, so had tb 1's half
    // write dropped the read from s[0]'s history, tb 2's race with
    // it would go unseen.
    IrBuilder body;
    body.addGpu(0, 1, 1, 1);
    for (int t = 0; t < 3; t++) {
        IrInstruction step =
            t == 0 ? copyOf(BufferKind::Scratch, 0, BufferKind::Output, 0)
                   : copyOf(BufferKind::Input, 0, BufferKind::Scratch, 0);
        if (t > 0) {
            step.splitIdx = t - 1;
            step.splitCount = 2;
        }
        std::vector<IrDep> deps;
        if (t == 1)
            deps.push_back(IrDep{ 0, 0 });
        body.addThreadBlock(0, t);
        body.addStep(step, deps);
    }
    IrProgram ir = programOf(body, 1);
    std::string verdict = raceVerdict(ir);
    EXPECT_EQ(verdict, "data race: rank 0 tb 0 step 0 and tb 2 step 0 "
                       "access s[0] unordered");
    std::optional<ReportedRace> race = parseRaceMessage(verdict);
    ASSERT_TRUE(race.has_value());
    EXPECT_TRUE(confirmsRace(ir, *race));
}

TEST(RaceChecker, VerdictDoesNotDependOnSlots)
{
    // Rank 0's tb 0 sends nine messages on channel 0; its tb 1 sends
    // one on channel 1 after the ninth. Rank 1's first channel-0
    // receive waits (a dependency) for its channel-1 receive. Nothing
    // orders a step after itself, but at eight FIFO slots the ninth
    // send waits for a receive that waits for it: a deadlock that
    // verifyIr must report and the race check must not confuse with a
    // cycle.
    IrBuilder body;
    for (int r = 0; r < 2; r++)
        body.addGpu(r, 1, 1, 10);
    IrInstruction send;
    send.op = IrOp::Send;
    send.srcBuf = BufferKind::Input;
    body.addThreadBlock(0, 0, /*send_peer=*/1);
    for (int k = 0; k < 9; k++)
        body.addStep(send);
    body.addThreadBlock(0, 1, /*send_peer=*/1, -1, /*channel=*/1);
    body.addStep(send, { IrDep{ 0, 8 } });

    IrInstruction recv;
    recv.op = IrOp::Recv;
    recv.dstBuf = BufferKind::Scratch;
    body.addThreadBlock(1, 0, -1, /*recv_peer=*/0);
    for (int k = 0; k < 9; k++) {
        recv.dstOff = k;
        if (k == 0)
            body.addStep(recv, { IrDep{ 1, 0 } });
        else
            body.addStep(recv);
    }
    recv.dstOff = 9;
    body.addThreadBlock(1, 1, -1, /*recv_peer=*/0, /*channel=*/1);
    body.addStep(recv);
    IrProgram ir = programOf(body, 2);

    VerifyOptions options;
    options.checkPostcondition = false;
    try {
        verifyIr(ir, AllGatherCollective(2, 1), options);
        FAIL() << "deadlock at 8 slots not detected";
    } catch (const VerificationError &error) {
        std::string what = error.what();
        EXPECT_EQ(what.rfind("deadlock detected:\n", 0), 0u) << what;
        EXPECT_NE(what.find("FIFO slot to 1 (queued=8)"), std::string::npos)
            << what;
    }
    options.slots = 9;
    verifyIr(ir, AllGatherCollective(2, 1), options);

    EXPECT_EQ(raceVerdict(ir), "");
    verifyRaceFreeReference(ir);
}

/**
 * Rank 0's tb 0 writes s[0] and then sends; rank 1 forwards the
 * message back; rank 0's tb 1 receives it and then reads s[0]. With
 * @p one_forwarder, rank 1 receives and sends on one thread block, so
 * the write happens before the read through rank 1's FIFO chain;
 * otherwise rank 1 splits the two across unordered thread blocks.
 */
IrProgram
roundTripIr(bool one_forwarder)
{
    IrBuilder body;
    for (int r = 0; r < 2; r++)
        body.addGpu(r, 1, 1, 2);
    IrInstruction send;
    send.op = IrOp::Send;
    send.srcBuf = BufferKind::Input;
    IrInstruction recv;
    recv.op = IrOp::Recv;
    recv.dstBuf = BufferKind::Scratch;
    recv.dstOff = 1;

    body.addThreadBlock(0, 0, /*send_peer=*/1);
    body.addStep(copyOf(BufferKind::Input, 0, BufferKind::Scratch, 0));
    body.addStep(send);
    body.addThreadBlock(0, 1, -1, /*recv_peer=*/1);
    body.addStep(recv);
    body.addStep(copyOf(BufferKind::Scratch, 0, BufferKind::Output, 0));

    if (one_forwarder) {
        body.addThreadBlock(1, 0, /*send_peer=*/0,
                            /*recv_peer=*/0);
        body.addStep(recv);
        body.addStep(send);
    } else {
        body.addThreadBlock(1, 0, -1, /*recv_peer=*/0);
        body.addStep(recv);
        body.addThreadBlock(1, 1, /*send_peer=*/0);
        body.addStep(send);
    }
    return programOf(body, 2);
}

TEST(RaceChecker, OrderedOnlyThroughAnotherRanksFifoChain)
{
    // No dependency orders rank 0's two thread blocks, so the local
    // check misses and the graph search must find the round trip.
    EXPECT_EQ(raceVerdict(roundTripIr(true)), "");

    // Break rank 1's chain and the same pair is a race.
    IrProgram broken = roundTripIr(false);
    std::string verdict = raceVerdict(broken);
    EXPECT_EQ(verdict, "data race: rank 0 tb 0 step 0 and tb 1 step 1 "
                       "access s[0] unordered");
    std::optional<ReportedRace> race = parseRaceMessage(verdict);
    ASSERT_TRUE(race.has_value());
    EXPECT_TRUE(confirmsRace(broken, *race));
}

TEST(RaceChecker, DependencyOrdersOnlyUpToItsStep)
{
    // tb 1 waits on tb 0's step 0, but tb 0 writes s[0] at step 1:
    // the read is ordered after the dependency's step only.
    auto program = [](int dep_step) {
        IrBuilder body;
        body.addGpu(0, 1, 1, 2);
        body.addThreadBlock(0, 0);
        body.addStep(copyOf(BufferKind::Input, 0, BufferKind::Scratch, 1));
        body.addStep(copyOf(BufferKind::Input, 0, BufferKind::Scratch, 0));
        body.addThreadBlock(0, 1);
        body.addStep(copyOf(BufferKind::Scratch, 0, BufferKind::Output, 0),
                     { IrDep{ 0, dep_step } });
        return programOf(body, 1);
    };
    EXPECT_EQ(raceVerdict(program(0)),
              "data race: rank 0 tb 0 step 1 and tb 1 step 0 access "
              "s[0] unordered");
    EXPECT_EQ(raceVerdict(program(1)), "");
}
} // namespace
} // namespace mscclang
