/**
 * @file
 * Direct tests of the InstrGraph container mechanics: edge
 * deduplication and True-subsumption, node replacement (the fusion
 * primitive), fusion's rdepth sweep and its rejection of edges
 * against id order (so of every cycle) — plus the
 * logging facility.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/log.h"
#include "compiler/instr_graph.h"

namespace mscclang {
namespace {

InstrNode
localNode(Rank rank)
{
    InstrNode node;
    node.op = IrOp::Copy;
    node.rank = rank;
    node.src = BufferSlice{ rank, BufferKind::Input, 0, 1 };
    node.dst = BufferSlice{ rank, BufferKind::Scratch, 0, 1 };
    return node;
}

TEST(InstrGraph, EdgesDeduplicateAndUpgrade)
{
    InstrGraph graph(1);
    int a = graph.addNode(localNode(0));
    int b = graph.addNode(localNode(0));
    graph.addEdge(a, b, DepKind::Anti);
    graph.addEdge(a, b, DepKind::Output); // duplicate pair: kept once
    EXPECT_EQ(graph.edges().size(), 1u);
    EXPECT_EQ(graph.edges()[0].kind, DepKind::Anti);
    graph.addEdge(a, b, DepKind::True); // upgrade in place
    EXPECT_EQ(graph.edges().size(), 1u);
    EXPECT_EQ(graph.edges()[0].kind, DepKind::True);
    // Self-edges are dropped.
    graph.addEdge(a, a, DepKind::True);
    EXPECT_EQ(graph.edges().size(), 1u);
}

TEST(InstrGraph, ReplaceNodeRewiresEdges)
{
    InstrGraph graph(1);
    int a = graph.addNode(localNode(0));
    int b = graph.addNode(localNode(0));
    int c = graph.addNode(localNode(0));
    graph.addEdge(a, b, DepKind::True);
    graph.addEdge(b, c, DepKind::True);
    graph.replaceNode(b, a); // fuse b into a
    EXPECT_FALSE(graph.node(b).live);
    EXPECT_EQ(graph.numLive(), 2);
    std::vector<int> succs = graph.liveSuccs(a);
    ASSERT_EQ(succs.size(), 1u);
    EXPECT_EQ(succs[0], c);
    EXPECT_EQ(graph.livePreds(c), std::vector<int>{ a });
}

TEST(InstrGraph, EdgeIterationFollowsInsertionOrderAfterReplace)
{
    InstrGraph graph(1);
    int a = graph.addNode(localNode(0));
    int b = graph.addNode(localNode(0));
    int x = graph.addNode(localNode(0));
    int y = graph.addNode(localNode(0));
    int c = graph.addNode(localNode(0));
    int d = graph.addNode(localNode(0));
    int e = graph.addNode(localNode(0));
    graph.addEdge(a, y, DepKind::Anti);
    graph.addEdge(y, e, DepKind::Output);
    graph.addEdge(a, x, DepKind::True);
    graph.addEdge(b, x, DepKind::Anti);
    graph.addEdge(x, d, DepKind::Anti);
    graph.addEdge(x, c, DepKind::True);
    graph.addEdge(x, e, DepKind::Anti);
    // Fuse x into y: a -> y already exists (upgraded to True, kept
    // once), b -> y is new; y gains x's successors d and c after its
    // own e, which is deduplicated.
    graph.replaceNode(x, y);

    auto preds = [&](int id) {
        std::vector<std::pair<int, DepKind>> out;
        graph.forEachPredEdge(id, [&](const InstrEdge &edge) {
            out.push_back({ edge.from, edge.kind });
        });
        return out;
    };
    auto succs = [&](int id) {
        std::vector<std::pair<int, DepKind>> out;
        graph.forEachSuccEdge(id, [&](const InstrEdge &edge) {
            out.push_back({ edge.to, edge.kind });
        });
        return out;
    };
    using Edges = std::vector<std::pair<int, DepKind>>;
    EXPECT_EQ(preds(y),
              (Edges{ { a, DepKind::True }, { b, DepKind::Anti } }));
    EXPECT_EQ(succs(y), (Edges{ { e, DepKind::Output },
                                { d, DepKind::Anti },
                                { c, DepKind::True } }));
    // The dead node's edges stay threaded in insertion order.
    EXPECT_EQ(succs(a),
              (Edges{ { y, DepKind::True }, { x, DepKind::True } }));
    EXPECT_EQ(preds(e),
              (Edges{ { y, DepKind::Output }, { x, DepKind::Anti } }));
    // Live iteration skips x and visits y once.
    std::vector<int> live;
    graph.forEachLivePred(e, [&](int from) { live.push_back(from); });
    EXPECT_EQ(live, std::vector<int>{ y });
    live.clear();
    graph.forEachLiveSucc(a, [&](int to) { live.push_back(to); });
    EXPECT_EQ(live, std::vector<int>{ y });
    EXPECT_EQ(graph.edges().size(), 10u); // 7 + b->y, y->d, y->c
}

TEST(InstrGraph, DepthsFollowLongestPath)
{
    InstrGraph graph(1);
    int a = graph.addNode(localNode(0));
    int b = graph.addNode(localNode(0));
    int c = graph.addNode(localNode(0));
    int d = graph.addNode(localNode(0));
    graph.addEdge(a, b, DepKind::True);
    graph.addEdge(b, c, DepKind::True);
    graph.addEdge(a, d, DepKind::True);
    std::vector<int> rdepth = computeRdepths(graph);
    EXPECT_EQ(rdepth[a], 2);
    EXPECT_EQ(rdepth[b], 1);
    EXPECT_EQ(rdepth[c], 0);
    EXPECT_EQ(rdepth[d], 0);
}

TEST(InstrGraph, DepthFollowsCommEdges)
{
    InstrGraph graph(2);
    InstrNode send;
    send.op = IrOp::Send;
    send.rank = 0;
    send.src = BufferSlice{ 0, BufferKind::Input, 0, 1 };
    send.sendPeer = 1;
    InstrNode recv;
    recv.op = IrOp::Recv;
    recv.rank = 1;
    recv.dst = BufferSlice{ 1, BufferKind::Scratch, 0, 1 };
    recv.recvPeer = 0;
    int s = graph.addNode(send);
    int r = graph.addNode(recv);
    graph.node(s).commSucc = r;
    graph.node(r).commPred = s;
    std::vector<int> rdepth = computeRdepths(graph);
    EXPECT_EQ(rdepth[s], 1);
    EXPECT_EQ(rdepth[r], 0);
}

TEST(InstrGraph, CycleDetected)
{
    InstrGraph graph(1);
    int a = graph.addNode(localNode(0));
    int b = graph.addNode(localNode(0));
    graph.addEdge(a, b, DepKind::True);
    graph.addEdge(b, a, DepKind::Anti);
    EXPECT_THROW(computeRdepths(graph), CompileError);
}

TEST(InstrGraph, EdgeAgainstIdOrderRejected)
{
    // Acyclic, but b -> a runs backward in id order: lowering never
    // builds such a graph, and the rdepth sweep cannot order it.
    InstrGraph graph(1);
    int a = graph.addNode(localNode(0));
    int b = graph.addNode(localNode(0));
    graph.addEdge(b, a, DepKind::True);
    EXPECT_THROW(computeRdepths(graph), CompileError);
}

TEST(InstrGraph, LiveCountFollowsReplace)
{
    InstrGraph graph(1);
    int a = graph.addNode(localNode(0));
    int b = graph.addNode(localNode(0));
    int c = graph.addNode(localNode(0));
    graph.addEdge(a, b, DepKind::True);
    graph.addEdge(b, c, DepKind::True);
    EXPECT_EQ(graph.numLive(), 3);
    graph.replaceNode(b, a);
    EXPECT_EQ(graph.numLive(), 2);
    graph.replaceNode(c, a);
    EXPECT_EQ(graph.numLive(), 1);
    // The dead node's rdepth is 0 and the survivor has no successor.
    EXPECT_EQ(computeRdepths(graph), (std::vector<int>{ 0, 0, 0 }));
}

TEST(InstrGraph, DumpAndToStringAreInformative)
{
    InstrGraph graph(1);
    InstrNode node = localNode(0);
    node.splitIdx = 1;
    node.splitCount = 2;
    node.channel = 3;
    int id = graph.addNode(node);
    std::string text = graph.node(id).toString();
    EXPECT_NE(text.find("cpy"), std::string::npos);
    EXPECT_NE(text.find("split=1/2"), std::string::npos);
    EXPECT_NE(text.find("ch=3"), std::string::npos);
    EXPECT_NE(graph.dump().find("cpy"), std::string::npos);
}

TEST(Log, LevelsFilter)
{
    LogLevel original = Log::level();
    Log::setLevel(LogLevel::ErrorLevel);
    EXPECT_FALSE(Log::enabled(LogLevel::Debug));
    EXPECT_FALSE(Log::enabled(LogLevel::Info));
    EXPECT_TRUE(Log::enabled(LogLevel::ErrorLevel));
    Log::setLevel(LogLevel::Debug);
    EXPECT_TRUE(Log::enabled(LogLevel::Info));
    // Writing must not crash at any level.
    logDebug("debug message");
    logInfo("info message");
    logWarn("warn message");
    logError("error message");
    Log::setLevel(original);
}

} // namespace
} // namespace mscclang
