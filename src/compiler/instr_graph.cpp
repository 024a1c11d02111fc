#include "compiler/instr_graph.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

std::string
InstrNode::toString() const
{
    std::string text = strprintf("#%d r%d %s", id, rank, irOpName(op));
    if (irOpReadsSrc(op))
        text += " src=" + src.toString();
    if (irOpWritesDst(op))
        text += " dst=" + dst.toString();
    if (sendPeer >= 0)
        text += strprintf(" ->%d", sendPeer);
    if (recvPeer >= 0)
        text += strprintf(" <-%d", recvPeer);
    if (splitCount > 1)
        text += strprintf(" split=%d/%d", splitIdx, splitCount);
    if (channel >= 0)
        text += strprintf(" ch=%d", channel);
    return text;
}

int
InstrGraph::addNode(InstrNode node)
{
    node.id = numNodes();
    nodes_.push_back(std::move(node));
    links_.emplace_back();
    return nodes_.back().id;
}

void
InstrGraph::addEdge(int from, int to, DepKind kind)
{
    if (from == to)
        return;
    // Deduplicate; a True edge subsumes a false one on the same pair.
    EdgeLinks &out = links_[from];
    for (int e = out.succHead; e >= 0; e = edges_[e].nextSucc) {
        InstrEdge &edge = edges_[e];
        if (edge.to == to) {
            if (kind == DepKind::True)
                edge.kind = DepKind::True;
            return;
        }
    }
    int idx = static_cast<int>(edges_.size());
    edges_.push_back(InstrEdge{ from, to, kind, -1, -1 });
    if (out.succTail >= 0)
        edges_[out.succTail].nextSucc = idx;
    else
        out.succHead = idx;
    out.succTail = idx;
    EdgeLinks &in = links_[to];
    if (in.predTail >= 0)
        edges_[in.predTail].nextPred = idx;
    else
        in.predHead = idx;
    in.predTail = idx;
}

int
InstrGraph::countLivePreds(int id) const
{
    int count = 0;
    forEachLivePred(id, [&](int) { count++; });
    return count;
}

std::vector<int>
InstrGraph::livePreds(int id) const
{
    std::vector<int> out;
    forEachLivePred(id, [&](int from) { out.push_back(from); });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<int>
InstrGraph::liveSuccs(int id) const
{
    std::vector<int> out;
    forEachLiveSucc(id, [&](int to) { out.push_back(to); });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
InstrGraph::replaceNode(int from, int to)
{
    // Move every edge endpoint of `from` onto `to`. addEdge never
    // touches `from`'s own lists but may grow edges_, so walk by index
    // and copy each record before the call.
    for (int e = links_[from].predHead; e >= 0; e = edges_[e].nextPred) {
        InstrEdge edge = edges_[e];
        if (edge.from == to)
            continue; // becomes a self-edge: drop by leaving it dead
        addEdge(edge.from, to, edge.kind);
    }
    for (int e = links_[from].succHead; e >= 0; e = edges_[e].nextSucc) {
        InstrEdge edge = edges_[e];
        if (edge.to == to)
            continue;
        addEdge(to, edge.to, edge.kind);
    }
    nodes_[from].live = false;
}

int
InstrGraph::numLive() const
{
    int live = 0;
    for (const InstrNode &node : nodes_) {
        if (node.live)
            live++;
    }
    return live;
}

void
InstrGraph::computeDepths()
{
    // Kahn's algorithm over live nodes with processing + comm edges.
    // depth/rdepth are max-folds, so edge visitation order does not
    // affect the result and the unsorted forEachLive* walks suffice.
    int n = numNodes();
    std::vector<int> indeg(n, 0);
    auto for_each_succ = [&](int id, auto &&fn) {
        forEachLiveSucc(id, fn);
        const InstrNode &node = nodes_[id];
        if (node.commSucc >= 0 && nodes_[node.commSucc].live)
            fn(node.commSucc);
    };

    for (int id = 0; id < n; id++) {
        if (!nodes_[id].live)
            continue;
        indeg[id] = countLivePreds(id);
        const InstrNode &node = nodes_[id];
        if (node.commPred >= 0 && nodes_[node.commPred].live)
            indeg[id]++;
        nodes_[id].depth = 0;
        nodes_[id].rdepth = 0;
    }

    std::vector<int> topo;
    topo.reserve(n);
    for (int id = 0; id < n; id++) {
        if (nodes_[id].live && indeg[id] == 0)
            topo.push_back(id);
    }
    // The ready "queue" is the unprocessed tail of topo itself.
    for (size_t head = 0; head < topo.size(); head++) {
        int id = topo[head];
        for_each_succ(id, [&](int succ) {
            nodes_[succ].depth =
                std::max(nodes_[succ].depth, nodes_[id].depth + 1);
            if (--indeg[succ] == 0)
                topo.push_back(succ);
        });
    }
    if (static_cast<int>(topo.size()) != numLive())
        throw CompileError("instruction DAG contains a cycle");

    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        for_each_succ(*it, [&](int succ) {
            nodes_[*it].rdepth =
                std::max(nodes_[*it].rdepth, nodes_[succ].rdepth + 1);
        });
    }
}

std::string
InstrGraph::dump() const
{
    std::string out;
    for (const InstrNode &node : nodes_) {
        if (!node.live)
            continue;
        out += node.toString();
        std::vector<int> preds = livePreds(node.id);
        if (!preds.empty()) {
            out += " preds=";
            for (size_t i = 0; i < preds.size(); i++)
                out += (i ? "," : "") + std::to_string(preds[i]);
        }
        if (node.commPred >= 0)
            out += strprintf(" comm<-#%d", node.commPred);
        out += "\n";
    }
    return out;
}

} // namespace mscclang
