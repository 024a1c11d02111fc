/**
 * @file
 * Differential test of lowering's dependence analysis. The reference
 * below is the straightforward per-chunk history walk: every access
 * of every chunk is kept in a vector, scanned newest-first with an
 * explicit "still uncovered" interval set. lowerProgram() must emit
 * the same processing edges — same (from, to, kind), same order —
 * on every golden program and on hand-built programs that mix split
 * writes, split reads, whole overwrites, in-place aliasing and
 * multi-chunk slices. Also pins lowering's id-order invariant,
 * checks fusion's id-order rdepth sweep against a Kahn-walk oracle,
 * and holds loweredNodeCount, which sizes the graph up front, to the
 * node count lowering makes.
 */

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "collectives/catalog.h"
#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "compiler/instr_graph.h"
#include "topology/topology.h"

namespace mscclang {
namespace {

struct RangeAccess
{
    int node;
    bool isWrite;
    FracInterval range;
};

/** The reference access history: one growing vector per chunk. */
class ReferenceContext
{
  public:
    ReferenceContext(InstrGraph &graph, bool in_place)
        : graph_(graph), inPlace_(in_place),
          history_(3 * graph.numRanks())
    {
    }

    BufferSlice
    canonical(BufferSlice slice) const
    {
        if (inPlace_ && slice.buffer == BufferKind::Output)
            slice.buffer = BufferKind::Input;
        return slice;
    }

    void
    recordAccesses(int id)
    {
        const InstrNode &node = graph_.node(id);
        if (irOpReadsSrc(node.op))
            accessSlice(id, node.src, node.splitIdx, node.splitCount,
                        false);
        if (node.op == IrOp::Reduce || node.op == IrOp::RecvReduceCopy)
            accessSlice(id, node.dst, node.splitIdx, node.splitCount,
                        false);
        if (irOpWritesDst(node.op))
            accessSlice(id, node.dst, node.splitIdx, node.splitCount,
                        true);
    }

  private:
    static void
    subtractRange(std::vector<FracInterval> &set, const FracInterval &cut)
    {
        std::vector<FracInterval> next;
        for (const FracInterval &part : set) {
            if (!part.overlaps(cut)) {
                next.push_back(part);
                continue;
            }
            if (part.lo < cut.lo)
                next.push_back(FracInterval{ part.lo, cut.lo });
            if (cut.hi < part.hi)
                next.push_back(FracInterval{ cut.hi, part.hi });
        }
        set = std::move(next);
    }

    void
    accessSlice(int id, const BufferSlice &slice, int split_idx,
                int split_count, bool is_write)
    {
        FracInterval range = splitFraction(split_idx, split_count);
        for (int k = 0; k < slice.count; k++) {
            std::vector<RangeAccess> &accesses =
                historyOf(slice.rank, slice.buffer, slice.index + k);
            std::vector<FracInterval> uncovered{ range };
            for (auto it = accesses.rbegin();
                 it != accesses.rend() && !uncovered.empty(); ++it) {
                const RangeAccess &prev = *it;
                if (prev.node == id)
                    continue;
                bool overlaps = false;
                for (const FracInterval &part : uncovered) {
                    if (prev.range.overlaps(part)) {
                        overlaps = true;
                        break;
                    }
                }
                if (!overlaps)
                    continue;
                if (is_write && prev.isWrite) {
                    graph_.addEdge(prev.node, id, DepKind::Output);
                    subtractRange(uncovered, prev.range);
                } else if (is_write) {
                    graph_.addEdge(prev.node, id, DepKind::Anti);
                } else if (prev.isWrite) {
                    graph_.addEdge(prev.node, id, DepKind::True);
                    subtractRange(uncovered, prev.range);
                }
            }
            accesses.push_back(RangeAccess{ id, is_write, range });
        }
    }

    std::vector<RangeAccess> &
    historyOf(Rank rank, BufferKind buffer, int index)
    {
        std::vector<std::vector<RangeAccess>> &buf =
            history_[static_cast<size_t>(rank) * 3 +
                     static_cast<size_t>(buffer)];
        if (index >= static_cast<int>(buf.size()))
            buf.resize(index + 1);
        return buf[index];
    }

    InstrGraph &graph_;
    bool inPlace_;
    std::vector<std::vector<std::vector<RangeAccess>>> history_;
};

/** lowerProgram() with the reference history. */
InstrGraph
referenceLower(const Program &program)
{
    InstrGraph graph(program.numRanks());
    ReferenceContext ctx(graph, program.collective().inPlace());
    int instances = program.options().instances;
    for (const TraceOp &op : program.ops()) {
        BufferSlice src = ctx.canonical(op.src);
        BufferSlice dst = ctx.canonical(op.dst);
        bool local = src.rank == dst.rank;
        if (op.kind == OpKind::Copy && local && src == dst)
            continue;
        int total_split = op.parFactor * instances;
        for (int j = 0; j < total_split; j++) {
            auto base = [&](IrOp ir_op, Rank rank) {
                InstrNode node;
                node.op = ir_op;
                node.rank = rank;
                node.splitIdx = j;
                node.splitCount = total_split;
                return node;
            };
            if (local) {
                InstrNode node = base(op.kind == OpKind::Copy
                                          ? IrOp::Copy
                                          : IrOp::Reduce,
                                      dst.rank);
                node.src = src;
                node.dst = dst;
                ctx.recordAccesses(graph.addNode(std::move(node)));
                continue;
            }
            InstrNode send = base(IrOp::Send, src.rank);
            send.src = src;
            ctx.recordAccesses(graph.addNode(std::move(send)));
            InstrNode recv = base(op.kind == OpKind::Copy
                                      ? IrOp::Recv
                                      : IrOp::RecvReduceCopy,
                                  dst.rank);
            if (op.kind == OpKind::Reduce)
                recv.src = dst;
            recv.dst = dst;
            ctx.recordAccesses(graph.addNode(std::move(recv)));
        }
    }
    return graph;
}

/** Asserts both lowerings emit the same nodes and edge sequence. */
void
expectSameEdges(const Program &program)
{
    InstrGraph actual = lowerProgram(program);
    InstrGraph expected = referenceLower(program);
    ASSERT_EQ(actual.numNodes(), expected.numNodes());
    for (int id = 0; id < actual.numNodes(); id++) {
        ASSERT_EQ(actual.node(id).op, expected.node(id).op) << id;
        ASSERT_EQ(actual.node(id).splitIdx, expected.node(id).splitIdx);
    }
    const std::vector<InstrEdge> &got = actual.edges();
    const std::vector<InstrEdge> &want = expected.edges();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); i++) {
        ASSERT_EQ(got[i].from, want[i].from) << "edge " << i;
        ASSERT_EQ(got[i].to, want[i].to) << "edge " << i;
        ASSERT_EQ(got[i].kind, want[i].kind) << "edge " << i;
    }
}

int
countKind(const InstrGraph &graph, DepKind kind)
{
    int count = 0;
    for (const InstrEdge &edge : graph.edges())
        count += edge.kind == kind ? 1 : 0;
    return count;
}

/**
 * Every factory of the determinism goldens (the same parameters),
 * plus larger instances of the ring and hierarchical factories.
 */
std::vector<std::unique_ptr<Program>>
goldenFactoryPrograms()
{
    AlgoConfig i2;
    i2.instances = 2;
    AlgoConfig i4;
    i4.instances = 4;
    i4.protocol = Protocol::LL128;
    AlgoConfig i8;
    i8.instances = 8;
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    ll.instances = 2;
    AlgoConfig plain;
    AlgoConfig split;
    split.hierSplit = 2;
    Topology dgx1 = makeDgx1();
    std::vector<std::unique_ptr<Program>> programs;
    programs.push_back(makeRingAllReduce(8, 2, i2));
    programs.push_back(makeRingAllReduce(16, 4, i4));
    programs.push_back(makeRingAllReduce(64, 4, i8));
    programs.push_back(makeRingAllReduceOutOfPlace(8, 2, i2));
    programs.push_back(makeAllPairsAllReduce(8, ll));
    programs.push_back(makeHierarchicalAllReduce(2, 4, 2, plain));
    programs.push_back(makeHierarchicalAllReduce(2, 8, 1, plain));
    programs.push_back(makeHierarchicalAllReduce(8, 8, 1, plain));
    programs.push_back(makeHierarchicalAllReduce(8, 8, 8, plain));
    programs.push_back(makeHierarchicalAllReduce(32, 8, 1, plain));
    programs.push_back(makeHierarchicalAllReduce(2, 4, 2, split));
    programs.push_back(makeTwoStepAllToAll(2, 4, plain));
    programs.push_back(makeTwoStepAllToAll(8, 8, plain));
    programs.push_back(makeNaiveAllToAll(8, plain));
    programs.push_back(makeAllToNext(2, 4, plain));
    programs.push_back(makeNaiveAllToNext(2, 4, plain));
    programs.push_back(makeRingAllGather(8, 2, i2));
    programs.push_back(makeRingAllGather(64, 2, i2));
    programs.push_back(makeDoubleBinaryTreeAllReduce(16, ll));
    programs.push_back(makeRabenseifnerAllReduce(8, plain));
    programs.push_back(makeSccl122AllGather(dgx1, plain));
    return programs;
}

TEST(LoweringOracle, GoldenFactoriesMatchReference)
{
    std::vector<std::unique_ptr<Program>> programs =
        goldenFactoryPrograms();
    for (size_t i = 0; i < programs.size(); i++) {
        SCOPED_TRACE(i);
        expectSameEdges(*programs[i]);
    }
}

TEST(Lowering, EdgesFollowIdOrder)
{
    // Lowering adds edges only into the node it is recording, the
    // newest one, so every edge runs from a lower id to a higher one.
    // Fusion's reverse id-order rdepth sweep and addEdge's tail-only
    // dedup both rely on it.
    std::vector<std::unique_ptr<Program>> programs =
        goldenFactoryPrograms();
    size_t edges = 0, comm = 0;
    for (size_t i = 0; i < programs.size(); i++) {
        SCOPED_TRACE(i);
        InstrGraph graph = lowerProgram(*programs[i]);
        for (const InstrEdge &edge : graph.edges())
            ASSERT_LT(edge.from, edge.to);
        edges += graph.edges().size();
        for (const InstrNode &node : graph.nodes()) {
            if (node.commSucc < 0)
                continue;
            ASSERT_LT(node.id, node.commSucc);
            ASSERT_EQ(graph.node(node.commSucc).commPred, node.id);
            comm++;
        }
    }
    EXPECT_GT(edges, 0u);
    EXPECT_GT(comm, 0u);
}

/**
 * The longest path to a leaf by Kahn's algorithm over live nodes,
 * processing and communication edges: the general walk fusion used
 * before it relied on lowering's id order.
 */
std::vector<int>
kahnRdepths(const InstrGraph &graph)
{
    int n = graph.numNodes();
    std::vector<int> indeg(n, 0), rdepth(n, 0);
    auto for_each_succ = [&](int id, auto &&fn) {
        graph.forEachLiveSucc(id, fn);
        const InstrNode &node = graph.node(id);
        if (node.commSucc >= 0 && graph.node(node.commSucc).live)
            fn(node.commSucc);
    };
    for (int id = 0; id < n; id++) {
        if (graph.node(id).live)
            for_each_succ(id, [&](int succ) { indeg[succ]++; });
    }
    std::vector<int> topo;
    for (int id = 0; id < n; id++) {
        if (graph.node(id).live && indeg[id] == 0)
            topo.push_back(id);
    }
    for (size_t head = 0; head < topo.size(); head++) {
        for_each_succ(topo[head], [&](int succ) {
            if (--indeg[succ] == 0)
                topo.push_back(succ);
        });
    }
    EXPECT_EQ(static_cast<int>(topo.size()), graph.numLive());
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        for_each_succ(*it, [&](int succ) {
            rdepth[*it] = std::max(rdepth[*it], rdepth[succ] + 1);
        });
    }
    return rdepth;
}

TEST(Fusion, RdepthMatchesKahnOracle)
{
    std::vector<std::unique_ptr<Program>> programs =
        goldenFactoryPrograms();
    int longest = 0;
    for (size_t i = 0; i < programs.size(); i++) {
        SCOPED_TRACE(i);
        InstrGraph graph = lowerProgram(*programs[i]);
        std::vector<int> want = kahnRdepths(graph);
        ASSERT_EQ(computeRdepths(graph), want);
        longest = std::max(longest,
                           *std::max_element(want.begin(), want.end()));
    }
    EXPECT_GT(longest, 100);
}

/**
 * Writes @p dst at split 2, reads it at split 3 (locally and through
 * a send), overwrites it whole, then reads it whole and at split 2.
 * @p read_as names the same location as @p dst — through the
 * in-place Output -> Input alias when the buffers differ.
 */
void
splitThenWholeSequence(Program &prog, BufferKind dst, BufferKind read_as,
                       int index, int count)
{
    {
        ParallelizeScope two = prog.parallelize(2);
        prog.chunk(0, BufferKind::Input, 0, count)
            .copy(1, dst, index);
    }
    {
        ParallelizeScope three = prog.parallelize(3);
        prog.chunk(1, read_as, index, count)
            .copy(1, BufferKind::Scratch, 8);
        prog.chunk(1, read_as, index + count - 1, 1)
            .copy(0, BufferKind::Scratch, 0);
    }
    {
        // A split-3 remote reduce reads and rewrites part of it.
        ParallelizeScope three = prog.parallelize(3);
        ChunkRef operand = prog.chunk(0, BufferKind::Input, 0, count);
        prog.chunk(1, read_as, index, count).reduce(operand);
    }
    prog.chunk(0, BufferKind::Input, 1, count).copy(1, dst, index);
    prog.chunk(1, read_as, index, count).copy(1, BufferKind::Scratch, 12);
    {
        ParallelizeScope two = prog.parallelize(2);
        prog.chunk(1, read_as, index, 1).copy(0, BufferKind::Scratch, 1);
    }
    ChunkRef local = prog.chunk(1, BufferKind::Scratch, 12, count);
    prog.chunk(1, read_as, index, count).reduce(local);
}

TEST(LoweringOracle, SplitReadsAndWholeOverwritesMatchReference)
{
    auto coll = std::make_shared<AllReduceCollective>(2, 4);
    Program prog(coll);
    splitThenWholeSequence(prog, BufferKind::Scratch, BufferKind::Scratch,
                           0, 1);
    expectSameEdges(prog);
    InstrGraph graph = lowerProgram(prog);
    EXPECT_GT(countKind(graph, DepKind::True), 0);
    EXPECT_GT(countKind(graph, DepKind::Anti), 0);
    EXPECT_GT(countKind(graph, DepKind::Output), 0);
}

TEST(LoweringOracle, InPlaceAliasMatchesReference)
{
    // Writes land in Output, reads name Input: the same location.
    auto coll = std::make_shared<AllReduceCollective>(2, 4);
    ASSERT_TRUE(coll->inPlace());
    Program prog(coll);
    splitThenWholeSequence(prog, BufferKind::Output, BufferKind::Input,
                           2, 1);
    expectSameEdges(prog);
}

TEST(LoweringOracle, MultiChunkSliceMatchesReference)
{
    auto coll = std::make_shared<AllReduceCollective>(2, 4);
    ProgramOptions options;
    options.instances = 2;
    Program prog(coll, options);
    splitThenWholeSequence(prog, BufferKind::Output, BufferKind::Input,
                           1, 3);
    expectSameEdges(prog);
}

TEST(Lowering, NodeCountFormulaIsExact)
{
    // Every catalogue entry on every machine it fits, at one and two
    // instances.
    int checked = 0;
    for (const char *machine : { "ndv4:1", "ndv4:2", "dgx1" }) {
        Topology topo = parseTopology(machine);
        for (const AlgoEntry &entry : algoCatalog()) {
            if (!entry.fits(topo))
                continue;
            for (int instances : { 1, 2 }) {
                AlgoConfig config;
                config.instances = instances;
                std::unique_ptr<Program> prog =
                    entry.build(topo, config, 1, 0, 1);
                EXPECT_EQ(loweredNodeCount(*prog),
                          static_cast<std::size_t>(
                              lowerProgram(*prog).numNodes()))
                    << entry.name << " on " << machine << " x"
                    << instances;
                checked++;
            }
        }
    }
    EXPECT_GE(checked, 60);

    // parallelize(2) inside a two-instance program, with copies the
    // in-place alias makes no-ops (dropped) beside real local and
    // remote copies and reduces.
    auto coll = std::make_shared<AllReduceCollective>(2, 4);
    ProgramOptions options;
    options.instances = 2;
    Program prog(coll, options);
    prog.chunk(0, BufferKind::Input, 0).copy(0, BufferKind::Output, 0);
    {
        ParallelizeScope scope = prog.parallelize(2);
        prog.chunk(0, BufferKind::Input, 1).copy(1, BufferKind::Scratch, 0);
        prog.chunk(1, BufferKind::Input, 1)
            .reduce(prog.chunk(1, BufferKind::Scratch, 0));
        prog.chunk(1, BufferKind::Input, 2, 2).copy(1, BufferKind::Output, 2);
        prog.chunk(1, BufferKind::Input, 1).copy(0, BufferKind::Output, 1);
    }
    prog.chunk(0, BufferKind::Input, 2).copy(0, BufferKind::Scratch, 0);
    prog.chunk(1, BufferKind::Input, 3)
        .reduce(prog.chunk(0, BufferKind::Input, 3));
    // 2 no-op copies; 2x2 x (2 + 1 + 2) + 2 x (1 + 2) = 26 nodes.
    EXPECT_EQ(loweredNodeCount(prog), 26u);
    EXPECT_EQ(lowerProgram(prog).numNodes(), 26);
}

} // namespace
} // namespace mscclang
