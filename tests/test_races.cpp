/**
 * @file
 * Tests for the structural data-race checker: compiler output must
 * always pass (races are prevented by construction, paper §5.2),
 * while hand-built IR with missing cross-thread-block dependencies
 * must be flagged with the offending pair.
 */

#include <gtest/gtest.h>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/verifier.h"

namespace mscclang {
namespace {

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
    IrProgram ir;
    ir.numRanks = 1;
    std::vector<IrGpu> &gpus = ir.gpus.edit();
    gpus.resize(1);
    gpus[0].rank = 0;
    gpus[0].inputChunks = 2;
    gpus[0].outputChunks = 1;
    for (int t = 0; t < 2; t++) {
        IrThreadBlock tb;
        tb.id = t;
        IrInstruction copy;
        copy.op = IrOp::Copy;
        copy.srcBuf = BufferKind::Input;
        copy.srcOff = t;
        copy.dstBuf = BufferKind::Output;
        copy.dstOff = 0;
        tb.steps.push_back(copy);
        gpus[0].threadBlocks.push_back(tb);
    }
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
    IrProgram ir;
    ir.numRanks = 1;
    std::vector<IrGpu> &gpus = ir.gpus.edit();
    gpus.resize(1);
    gpus[0].rank = 0;
    gpus[0].inputChunks = 2;
    gpus[0].outputChunks = 1;
    for (int t = 0; t < 2; t++) {
        IrThreadBlock tb;
        tb.id = t;
        IrInstruction copy;
        copy.op = IrOp::Copy;
        copy.srcBuf = BufferKind::Input;
        copy.srcOff = t;
        copy.dstBuf = BufferKind::Output;
        copy.dstOff = 0;
        if (t == 1)
            copy.deps.push_back(IrDep{ 0, 0 });
        tb.steps.push_back(copy);
        gpus[0].threadBlocks.push_back(tb);
    }
    gpus[0].threadBlocks[0].steps[0].hasDep = true;
    verifyRaceFree(ir);
}

TEST(RaceChecker, DisjointFractionsDoNotConflict)
{
    // Two unordered thread blocks write complementary halves.
    IrProgram ir;
    ir.numRanks = 1;
    std::vector<IrGpu> &gpus = ir.gpus.edit();
    gpus.resize(1);
    gpus[0].rank = 0;
    gpus[0].inputChunks = 1;
    gpus[0].outputChunks = 1;
    for (int t = 0; t < 2; t++) {
        IrThreadBlock tb;
        tb.id = t;
        IrInstruction copy;
        copy.op = IrOp::Copy;
        copy.srcBuf = BufferKind::Input;
        copy.dstBuf = BufferKind::Output;
        copy.splitIdx = t;
        copy.splitCount = 2;
        tb.steps.push_back(copy);
        gpus[0].threadBlocks.push_back(tb);
    }
    verifyRaceFree(ir);
}

TEST(RaceChecker, CommunicationEdgesProvideOrder)
{
    // Rank 0 sends; rank 1 receives then reads the landing spot —
    // ordered through the communication edge, not a semaphore.
    IrProgram ir;
    ir.numRanks = 2;
    std::vector<IrGpu> &gpus = ir.gpus.edit();
    gpus.resize(2);
    for (int r = 0; r < 2; r++) {
        gpus[r].rank = r;
        gpus[r].inputChunks = 1;
        gpus[r].outputChunks = 1;
        gpus[r].scratchChunks = 1;
    }
    IrThreadBlock sender;
    sender.id = 0;
    sender.sendPeer = 1;
    IrInstruction send;
    send.op = IrOp::Send;
    send.srcBuf = BufferKind::Input;
    sender.steps.push_back(send);
    gpus[0].threadBlocks.push_back(sender);

    IrThreadBlock receiver;
    receiver.id = 0;
    receiver.recvPeer = 0;
    IrInstruction recv;
    recv.op = IrOp::Recv;
    recv.dstBuf = BufferKind::Scratch;
    receiver.steps.push_back(recv);
    IrInstruction use;
    use.op = IrOp::Copy;
    use.srcBuf = BufferKind::Scratch;
    use.dstBuf = BufferKind::Output;
    receiver.steps.push_back(use);
    gpus[1].threadBlocks.push_back(receiver);

    verifyRaceFree(ir);
}

TEST(RaceChecker, CyclicDependenciesRejected)
{
    IrProgram ir;
    ir.numRanks = 1;
    std::vector<IrGpu> &gpus = ir.gpus.edit();
    gpus.resize(1);
    gpus[0].rank = 0;
    gpus[0].inputChunks = 1;
    gpus[0].outputChunks = 1;
    for (int t = 0; t < 2; t++) {
        IrThreadBlock tb;
        tb.id = t;
        IrInstruction nop;
        nop.op = IrOp::Nop;
        nop.deps.push_back(IrDep{ 1 - t, 0 });
        tb.steps.push_back(nop);
        gpus[0].threadBlocks.push_back(tb);
    }
    EXPECT_THROW(verifyRaceFree(ir), VerificationError);
}

} // namespace
} // namespace mscclang
