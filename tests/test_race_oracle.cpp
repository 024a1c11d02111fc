/**
 * @file
 * Differential tests of the race check against the reference oracle
 * (race_oracle.h): on every program both must agree whether it is
 * race free; on a racy one, the pair the check names must be on the
 * oracle's lowest racy rank and the oracle must confirm it conflicting
 * and unordered; FIFO-imbalance and cycle errors must match word for
 * word. The compile path's race check, which reads the order of
 * verifyIr's walk instead of walking again, must reach the same
 * verdict on the same rank.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collectives/catalog.h"
#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/verifier.h"
#include "race_oracle.h"

namespace mscclang {
namespace {

std::string
verdictOf(void (*check)(const IrProgram &), const IrProgram &ir)
{
    try {
        check(ir);
        return std::string();
    } catch (const VerificationError &error) {
        return error.what();
    }
}

/**
 * Runs the race check and the oracle on @p ir, failing the test if
 * they disagree, and returns the check's verdict ("" = race free).
 */
std::string
checkedVerdict(const IrProgram &ir)
{
    std::string walk = verdictOf(&verifyRaceFree, ir);
    std::string reference = verdictOf(&verifyRaceFreeReference, ir);
    std::optional<ReportedRace> race = parseRaceMessage(walk);
    std::optional<ReportedRace> expected = parseRaceMessage(reference);
    if (!race || !expected) {
        EXPECT_EQ(walk, reference);
        return walk;
    }
    EXPECT_EQ(race->rank, expected->rank)
        << walk << "\nreference: " << reference;
    EXPECT_TRUE(confirmsRace(ir, *race)) << walk;
    return walk;
}

/** Every cross-thread-block dependency of @p ir removed. */
IrProgram
stripDeps(IrProgram ir)
{
    IrBuilder body(ir.gpus);
    for (int i = 0; i < body.numSteps(); i++) {
        body.setDeps(i, {});
        body.step(i).hasDep = false;
    }
    ir.gpus = body.build(ir.numRanks, ir.inPlace);
    return ir;
}

std::vector<std::unique_ptr<Program>>
factoryPrograms()
{
    AlgoConfig config;
    config.instances = 2;
    AlgoConfig split;
    split.hierSplit = 2;
    std::vector<std::unique_ptr<Program>> programs;
    programs.push_back(makeRingAllReduce(6, 3, config));
    programs.push_back(makeAllPairsAllReduce(6, config));
    programs.push_back(makeHierarchicalAllReduce(2, 4, 2, config));
    programs.push_back(makeTwoStepAllToAll(2, 3, config));
    programs.push_back(makeAllToNext(2, 4, config));
    programs.push_back(makeRabenseifnerAllReduce(8, config));
    programs.push_back(makeHierarchicalAllGather(2, 4, config));
    programs.push_back(makeHierarchicalAllReduce(2, 4, 2, split));
    return programs;
}

std::vector<IrProgram>
factorySuite()
{
    std::vector<IrProgram> irs;
    for (const std::unique_ptr<Program> &program : factoryPrograms())
        irs.push_back(compileProgram(*program).ir);
    return irs;
}

/**
 * The compile path's race verdict on @p ir ("" = race free): verifyIr
 * walks it at the runtime's slot count, recording the order, and the
 * race check reads that order. nullopt when the walk itself stops (a
 * deadlock, or a value error such as an uninitialized read) before
 * the race check runs.
 */
std::optional<std::string>
compilePathVerdict(const IrProgram &ir, const Collective &collective)
{
    VerifyOptions options;
    options.checkPostcondition = false;
    WalkOrder order;
    try {
        verifyIr(ir, collective, options, &order);
    } catch (const VerificationError &) {
        return std::nullopt;
    }
    try {
        verifyRaceFree(ir, order);
        return std::string();
    } catch (const VerificationError &error) {
        return std::string(error.what());
    }
}

/**
 * Checks that the compile path and the standalone check (itself held
 * to the oracle) agree on @p ir: both race free, or both naming a race
 * on the same rank — the oracle's lowest racy rank — which the oracle
 * confirms. Returns whether the walk completed and the two compared.
 */
bool
compilePathAgrees(const IrProgram &ir, const Collective &collective,
                  const std::string &what)
{
    std::optional<std::string> shared = compilePathVerdict(ir, collective);
    if (!shared)
        return false;
    std::string alone = checkedVerdict(ir);
    std::optional<ReportedRace> race = parseRaceMessage(*shared);
    std::optional<ReportedRace> expected = parseRaceMessage(alone);
    if (!race || !expected) {
        EXPECT_EQ(*shared, alone) << what;
        return true;
    }
    EXPECT_EQ(race->rank, expected->rank)
        << what << ": " << *shared << "\nstandalone: " << alone;
    EXPECT_TRUE(confirmsRace(ir, *race)) << what << ": " << *shared;
    return true;
}

/** One instruction and its dependencies. */
struct Step
{
    IrInstruction instr;
    std::vector<IrDep> deps;
};

/** A rank-0 program of one-step thread blocks, one per instruction. */
IrProgram
oneStepBlocks(const std::vector<Step> &steps)
{
    IrBuilder body;
    body.addGpu(0, 2, 1, 0);
    for (size_t t = 0; t < steps.size(); t++) {
        body.addThreadBlock(0, static_cast<int>(t));
        body.addStep(steps[t].instr, steps[t].deps);
    }
    IrProgram ir;
    ir.numRanks = 1;
    ir.gpus = body.build(1, false);
    return ir;
}

TEST(RaceOracle, DifferentialVerdictsOnFactorySuite)
{
    std::vector<IrProgram> irs = factorySuite();
    for (size_t i = 0; i < irs.size(); i++)
        EXPECT_EQ(checkedVerdict(irs[i]), "") << "program " << i;
}

TEST(RaceOracle, DifferentialVerdictsOnStrippedFactorySuite)
{
    // Without their dependencies, the programs whose same-rank phase
    // handoffs rely on them race; the others stay race free. Either
    // way the two checks must agree.
    int racy = 0;
    std::vector<IrProgram> irs = factorySuite();
    for (size_t i = 0; i < irs.size(); i++) {
        std::string verdict = checkedVerdict(stripDeps(irs[i]));
        if (!verdict.empty()) {
            EXPECT_NE(verdict.find("data race"), std::string::npos)
                << "program " << i << ": " << verdict;
            racy++;
        }
    }
    EXPECT_GT(racy, 0);
}

TEST(RaceOracle, CompilePathVerdictsMatchOnStrippedFactorySuite)
{
    int compared = 0;
    int racy = 0;
    std::vector<std::unique_ptr<Program>> programs = factoryPrograms();
    for (size_t i = 0; i < programs.size(); i++) {
        IrProgram ir = compileProgram(*programs[i]).ir;
        const Collective &collective = programs[i]->collective();
        std::string what = "program " + std::to_string(i);
        EXPECT_TRUE(compilePathAgrees(ir, collective, what)) << what;
        IrProgram stripped = stripDeps(ir);
        if (compilePathAgrees(stripped, collective, what + " stripped")) {
            compared++;
            if (!compilePathVerdict(stripped, collective)->empty())
                racy++;
        }
    }
    // Most stripped programs stop the walk with an uninitialized
    // read; those that complete include racy ones.
    EXPECT_GE(compared, 3);
    EXPECT_GE(racy, 2);
}

TEST(RaceOracle, CompilePathVerdictsMatchOnCatalogue)
{
    int compared = 0;
    int racy = 0;
    for (const char *machine : { "ndv4:1", "ndv4:2", "dgx1" }) {
        Topology topo = parseTopology(machine);
        CompileOptions options;
        options.topology = &topo;
        options.verify = false;
        for (const AlgoEntry &entry : algoCatalog()) {
            if (!entry.fits(topo))
                continue;
            std::unique_ptr<Program> program;
            IrProgram ir;
            try {
                program = entry.build(topo, AlgoConfig{}, 1, 0, 1);
                ir = compileProgram(*program, options).ir;
            } catch (const Error &) {
                continue; // the entry's knobs do not compile here
            }
            std::string what = std::string(entry.name) + " on " + machine;
            EXPECT_TRUE(compilePathAgrees(ir, program->collective(), what))
                << what;
            compared++;
            IrProgram stripped = stripDeps(ir);
            if (compilePathAgrees(stripped, program->collective(),
                                  what + " stripped") &&
                !compilePathVerdict(stripped, program->collective())
                     ->empty())
                racy++;
        }
    }
    EXPECT_GE(compared, 30);
    EXPECT_GE(racy, 10);
}

TEST(RaceOracle, DifferentialVerdictsOnLargeProgram)
{
    // Above 4096 instructions, clean and stripped of dependencies.
    AlgoConfig config;
    config.instances = 4;
    IrProgram ir =
        compileProgram(*makeRingAllReduce(32, 2, config)).ir;
    EXPECT_GT(ir.totalInstructions(), 4096);
    EXPECT_EQ(checkedVerdict(ir), "");
    checkedVerdict(stripDeps(ir));
}

TEST(RaceOracle, DifferentialVerdictsOnRacyPrograms)
{
    // Stripped of its dependencies, a compiled hierarchical program
    // (whose phase handoffs on a rank are ordered by deps, not FIFO
    // edges) races.
    AlgoConfig config;
    config.instances = 2;
    IrProgram ir = stripDeps(
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, config)).ir);
    std::string verdict = checkedVerdict(ir);
    EXPECT_NE(verdict.find("data race"), std::string::npos) << verdict;

    // The two-thread-block write-write race from the race checker
    // suite, with the exact message pinned.
    std::vector<Step> copies(2);
    for (int t = 0; t < 2; t++) {
        copies[t].instr.op = IrOp::Copy;
        copies[t].instr.srcBuf = BufferKind::Input;
        copies[t].instr.srcOff = t;
        copies[t].instr.dstBuf = BufferKind::Output;
    }
    IrProgram racy = oneStepBlocks(copies);
    EXPECT_EQ(checkedVerdict(racy),
              "data race: rank 0 tb 0 step 0 and tb 1 step 0 access "
              "o[0] unordered");

    // One dependency orders the pair: the oracle no longer confirms
    // it, and both checks accept the program.
    ReportedRace pair = *parseRaceMessage(checkedVerdict(racy));
    copies[1].deps.push_back(IrDep{ 0, 0 });
    IrProgram ordered = oneStepBlocks(copies);
    EXPECT_FALSE(confirmsRace(ordered, pair));
    EXPECT_EQ(checkedVerdict(ordered), "");
}

TEST(RaceOracle, FifoImbalanceReportedIdentically)
{
    // An unmatched send must be rejected by both checks with the
    // same connection named.
    IrBuilder body;
    for (int r = 0; r < 2; r++)
        body.addGpu(r, 1, 1, 0);
    IrInstruction send;
    send.op = IrOp::Send;
    send.srcBuf = BufferKind::Input;
    body.addThreadBlock(0, 0, /*send_peer=*/1);
    body.addStep(send);
    IrProgram ir;
    ir.numRanks = 2;
    ir.gpus = body.build(2, false);
    EXPECT_EQ(checkedVerdict(ir),
              "race check: connection 0 -> 1 channel 0 has 1 sends "
              "but 0 receives; FIFO pairing requires equal counts");
}

TEST(RaceOracle, CycleReportedIdentically)
{
    std::vector<Step> nops(2);
    for (int t = 0; t < 2; t++)
        nops[t].deps.push_back(IrDep{ 1 - t, 0 });
    EXPECT_EQ(checkedVerdict(oneStepBlocks(nops)),
              "race check: happens-before relation has a cycle");
}

} // namespace
} // namespace mscclang
