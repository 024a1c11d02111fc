/**
 * @file
 * The lock-free concurrent union-find and the chain-condensed race
 * verifier built on it: structural invariants (monotone roots, the
 * deterministic partition), a multi-threaded stress run (the TSan
 * configuration's target for the contraction path), and differential
 * verdicts — the condensed engine must agree with the reference
 * engine message-for-message on clean and racy programs at every
 * thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/unionfind.h"
#include "compiler/verifier.h"

namespace mscclang {
namespace {

TEST(UnionFind, BasicSetAlgebra)
{
    ConcurrentUnionFind uf(8);
    EXPECT_EQ(uf.size(), 8u);
    for (size_t i = 0; i < 8; i++)
        EXPECT_EQ(uf.find(i), i);
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_FALSE(uf.unite(1, 0));
    EXPECT_TRUE(uf.sameSet(0, 1));
    EXPECT_FALSE(uf.sameSet(0, 2));
    EXPECT_TRUE(uf.unite(2, 3));
    EXPECT_TRUE(uf.unite(0, 3));
    EXPECT_TRUE(uf.sameSet(1, 2));
    EXPECT_FALSE(uf.sameSet(1, 4));
}

TEST(UnionFind, RootIsTheMaximumOfItsSet)
{
    // Monotone linking makes the root of every set its largest
    // element: each link's winner is the larger root, and a
    // singleton's root is itself. This is the determinism the chain
    // contraction leans on, so pin it.
    ConcurrentUnionFind uf(16);
    uf.unite(3, 7);
    uf.unite(7, 1);
    uf.unite(0, 1);
    EXPECT_EQ(uf.find(0), 7u);
    EXPECT_EQ(uf.find(1), 7u);
    EXPECT_EQ(uf.find(3), 7u);
    uf.unite(0, 15);
    EXPECT_EQ(uf.find(3), 15u);
    uf.unite(9, 8);
    EXPECT_EQ(uf.find(8), 9u);
}

TEST(UnionFind, ConcurrentStressPartitionIsDeterministic)
{
    // 64k elements in blocks of 64; the chain edges of every block
    // are shuffled across 8 threads. Whatever the interleaving, the
    // final partition must be exactly the blocks, with each block's
    // maximum as root.
    constexpr size_t kCount = 1 << 16;
    constexpr size_t kBlock = 64;
    std::vector<std::pair<size_t, size_t>> edges;
    for (size_t i = 0; i < kCount; i++) {
        if ((i + 1) % kBlock != 0)
            edges.push_back({ i, i + 1 });
    }
    std::mt19937 rng(12345);
    std::shuffle(edges.begin(), edges.end(), rng);

    ConcurrentUnionFind uf(kCount);
    constexpr int kThreads = 8;
    std::vector<std::thread> pool;
    size_t stride = (edges.size() + kThreads - 1) / kThreads;
    for (int t = 0; t < kThreads; t++) {
        size_t lo = t * stride;
        size_t hi = std::min(edges.size(), lo + stride);
        pool.emplace_back([&uf, &edges, lo, hi]() {
            for (size_t e = lo; e < hi; e++)
                uf.unite(edges[e].first, edges[e].second);
        });
    }
    for (std::thread &t : pool)
        t.join();

    for (size_t i = 0; i < kCount; i++) {
        size_t block_max = (i / kBlock) * kBlock + kBlock - 1;
        ASSERT_EQ(uf.find(i), block_max) << "element " << i;
    }
    EXPECT_FALSE(uf.sameSet(0, kBlock));
    EXPECT_TRUE(uf.sameSet(1, kBlock - 1));
}

/**
 * Runs both race engines on @p ir at several thread counts and
 * returns the common verdict ("" = race free), failing the test if
 * any two runs disagree.
 */
std::string
verdictOf(const IrProgram &ir)
{
    auto run = [&](void (*engine)(const IrProgram &, int),
                   int threads) -> std::string {
        try {
            engine(ir, threads);
            return std::string();
        } catch (const VerificationError &error) {
            return error.what();
        }
    };
    std::string expected = run(&verifyRaceFreeReference, 1);
    for (int threads : { 1, 2, 8 }) {
        EXPECT_EQ(run(&verifyRaceFreeReference, threads), expected)
            << "reference engine, threads " << threads;
        EXPECT_EQ(run(&verifyRaceFree, threads), expected)
            << "chain engine, threads " << threads;
    }
    return expected;
}

TEST(UnionFind, DifferentialVerdictsOnFactorySuite)
{
    AlgoConfig config;
    config.instances = 2;
    std::vector<IrProgram> irs;
    irs.push_back(compileProgram(*makeRingAllReduce(6, 3, config)).ir);
    irs.push_back(compileProgram(*makeAllPairsAllReduce(6, config)).ir);
    irs.push_back(
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, config)).ir);
    irs.push_back(
        compileProgram(*makeTwoStepAllToAll(2, 3, config)).ir);
    irs.push_back(compileProgram(*makeAllToNext(2, 4, config)).ir);
    irs.push_back(
        compileProgram(*makeRabenseifnerAllReduce(8, config)).ir);
    irs.push_back(
        compileProgram(*makeHierarchicalAllGather(2, 4, config)).ir);
    AlgoConfig split;
    split.hierSplit = 2;
    irs.push_back(
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, split)).ir);
    for (size_t i = 0; i < irs.size(); i++)
        EXPECT_EQ(verdictOf(irs[i]), "") << "program " << i;
}

TEST(UnionFind, DifferentialVerdictsAboveTheSerialThreshold)
{
    // Big enough (> 4096 instructions) that the per-rank checks
    // really fan out across the worker pool.
    AlgoConfig config;
    config.instances = 4;
    IrProgram ir =
        compileProgram(*makeRingAllReduce(32, 2, config)).ir;
    int instrs = 0;
    for (const IrGpu &gpu : ir.gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks)
            instrs += static_cast<int>(tb.steps.size());
    }
    EXPECT_GT(instrs, 4096);
    EXPECT_EQ(verdictOf(ir), "");
}

TEST(UnionFind, DifferentialVerdictsOnRacyPrograms)
{
    // Strip every cross-thread-block dependency from a compiled
    // hierarchical program (whose phase handoffs on a rank are
    // ordered by deps, not FIFO edges): the verifier must flag a
    // race, and both engines must name the same pair in the same
    // words.
    AlgoConfig config;
    config.instances = 2;
    IrProgram ir =
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, config)).ir;
    for (IrGpu &gpu : ir.gpus.edit()) {
        for (IrThreadBlock &tb : gpu.threadBlocks) {
            for (IrInstruction &instr : tb.steps)
                instr.deps.clear();
        }
    }
    std::string verdict = verdictOf(ir);
    EXPECT_NE(verdict.find("data race"), std::string::npos) << verdict;

    // The two-thread-block write-write race from the race checker
    // suite, with the exact message pinned.
    IrProgram racy;
    racy.numRanks = 1;
    std::vector<IrGpu> &gpus = racy.gpus.edit();
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
    EXPECT_EQ(verdictOf(racy),
              "data race: rank 0 tb 0 step 0 and tb 1 step 0 access "
              "o[0] unordered");
}

TEST(UnionFind, FifoImbalanceReportedIdentically)
{
    // An unmatched send must be rejected by both engines with the
    // same connection named.
    IrProgram ir;
    ir.numRanks = 2;
    std::vector<IrGpu> &gpus = ir.gpus.edit();
    gpus.resize(2);
    for (int r = 0; r < 2; r++) {
        gpus[r].rank = r;
        gpus[r].inputChunks = 1;
        gpus[r].outputChunks = 1;
    }
    IrThreadBlock sender;
    sender.id = 0;
    sender.sendPeer = 1;
    IrInstruction send;
    send.op = IrOp::Send;
    send.srcBuf = BufferKind::Input;
    sender.steps.push_back(send);
    gpus[0].threadBlocks.push_back(sender);
    EXPECT_EQ(verdictOf(ir),
              "race check: connection 0 -> 1 channel 0 has 1 sends "
              "but 0 receives; FIFO pairing requires equal counts");
}

} // namespace
} // namespace mscclang
