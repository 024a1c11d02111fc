#include "compiler/instr_graph.h"

#include <algorithm>

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

void
InstrGraph::reserve(std::size_t nodes, std::size_t edges)
{
    nodes_.reserve(nodes);
    links_.reserve(nodes);
    edges_.reserve(edges);
}

int
InstrGraph::addNode(InstrNode node)
{
    node.id = numNodes();
    if (node.live)
        numLive_++;
    nodes_.push_back(std::move(node));
    links_.emplace_back();
    return nodes_.back().id;
}

void
InstrGraph::addEdge(int from, int to, DepKind kind)
{
    if (from == to)
        return;
    int tail = links_[from].succTail;
    if (tail >= 0 && edges_[tail].to == to) {
        // A True edge subsumes a false one on the same pair.
        if (kind == DepKind::True)
            edges_[tail].kind = DepKind::True;
        return;
    }
    appendEdge(from, to, kind);
}

void
InstrGraph::appendEdge(int from, int to, DepKind kind)
{
    int idx = static_cast<int>(edges_.size());
    edges_.push_back(InstrEdge{ from, to, kind, -1, -1 });
    EdgeLinks &out = links_[from];
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
    // Move every edge endpoint of `from` onto `to`. These edges do
    // not enter the newest node, so addEdge's tail check does not
    // apply: each pair is looked up in its source's whole successor
    // list. Appending never touches `from`'s own lists but may grow
    // edges_, so walk by index and copy each record first.
    auto merge = [&](int src, int dst, DepKind kind) {
        for (int e = links_[src].succHead; e >= 0; e = edges_[e].nextSucc) {
            InstrEdge &edge = edges_[e];
            if (edge.to == dst) {
                if (kind == DepKind::True)
                    edge.kind = DepKind::True;
                return;
            }
        }
        appendEdge(src, dst, kind);
    };
    for (int e = links_[from].predHead; e >= 0; e = edges_[e].nextPred) {
        InstrEdge edge = edges_[e];
        if (edge.from == to)
            continue; // becomes a self-edge: drop by leaving it dead
        merge(edge.from, to, edge.kind);
    }
    for (int e = links_[from].succHead; e >= 0; e = edges_[e].nextSucc) {
        InstrEdge edge = edges_[e];
        if (edge.to == to)
            continue;
        merge(to, edge.to, edge.kind);
    }
    if (nodes_[from].live) {
        nodes_[from].live = false;
        numLive_--;
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
