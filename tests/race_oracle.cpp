#include "race_oracle.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/frac.h"

namespace mscclang {

namespace {

/** One instruction, numbered in (gpu, thread block, step) order. */
struct Node
{
    Rank rank;
    int tb;
    int step;
    const IrInstruction *instr;
    const IrThreadBlock *block;
};

/** The happens-before graph with a topological order of its nodes. */
struct Graph
{
    std::vector<Node> nodes;
    std::map<std::tuple<Rank, int, int>, int> index;
    std::vector<std::vector<int>> succ;
    std::vector<int> order;

    int n() const { return static_cast<int>(nodes.size()); }

    int
    find(Rank rank, int tb, int step) const
    {
        auto it = index.find({ rank, tb, step });
        return it == index.end() ? -1 : it->second;
    }
};

Graph
buildGraph(const IrProgram &ir)
{
    Graph g;
    for (const IrGpu &gpu : ir.gpus) {
        for (const IrThreadBlock &tb : ir.gpus.blocks(gpu)) {
            std::span<const IrInstruction> steps = ir.gpus.steps(tb);
            for (size_t s = 0; s < steps.size(); s++) {
                int step = static_cast<int>(s);
                g.index[{ gpu.rank, tb.id, step }] = g.n();
                g.nodes.push_back(
                    Node{ gpu.rank, tb.id, step, &steps[s], &tb });
            }
        }
    }
    g.succ.resize(g.n());
    for (int i = 0; i < g.n(); i++) {
        const Node &node = g.nodes[i];
        int next = g.find(node.rank, node.tb, node.step + 1);
        if (next >= 0)
            g.succ[i].push_back(next);
    }
    for (int i = 0; i < g.n(); i++) {
        for (const IrDep &dep : ir.gpus.deps(*g.nodes[i].instr)) {
            int from = g.find(g.nodes[i].rank, dep.tb, dep.step);
            if (from < 0)
                throw VerificationError(
                    "race check: dependency on unknown instruction");
            g.succ[from].push_back(i);
        }
    }
    // The k-th send on a connection happens before its k-th receive.
    using Conn = std::tuple<int, int, int>; // (src, dst, channel)
    std::map<Conn, std::pair<std::vector<int>, std::vector<int>>> conns;
    for (int i = 0; i < g.n(); i++) {
        const Node &node = g.nodes[i];
        if (irOpSends(node.instr->op)) {
            conns[{ node.rank, node.block->sendPeer, node.block->channel }]
                .first.push_back(i);
        }
        if (irOpReceives(node.instr->op)) {
            conns[{ node.block->recvPeer, node.rank, node.block->channel }]
                .second.push_back(i);
        }
    }
    for (const auto &[conn, ends] : conns) {
        const auto &[sends, recvs] = ends;
        if (sends.size() != recvs.size()) {
            throw VerificationError(strprintf(
                "race check: connection %d -> %d channel %d has %zu "
                "sends but %zu receives; FIFO pairing requires equal "
                "counts", std::get<0>(conn), std::get<1>(conn),
                std::get<2>(conn), sends.size(), recvs.size()));
        }
        for (size_t k = 0; k < sends.size(); k++)
            g.succ[sends[k]].push_back(recvs[k]);
    }

    std::vector<int> indeg(g.n(), 0);
    for (const std::vector<int> &out : g.succ) {
        for (int to : out)
            indeg[to]++;
    }
    std::vector<int> ready;
    for (int i = 0; i < g.n(); i++) {
        if (indeg[i] == 0)
            ready.push_back(i);
    }
    while (!ready.empty()) {
        int v = ready.back();
        ready.pop_back();
        g.order.push_back(v);
        for (int to : g.succ[v]) {
            if (--indeg[to] == 0)
                ready.push_back(to);
        }
    }
    if (g.order.size() != g.nodes.size())
        throw VerificationError(
            "race check: happens-before relation has a cycle");
    return g;
}

/** One buffer access of one instruction. */
struct Access
{
    Rank rank;
    int buffer; // canonical BufferKind as int
    int chunk;
    int node;
    bool isWrite;
    FracInterval range;
};

/** Every buffer access of every instruction, in node order. */
std::vector<Access>
accessesOf(const Graph &g, const IrProgram &ir)
{
    std::vector<Access> out;
    auto record = [&](int node, BufferKind buf, int off, bool write) {
        const IrInstruction &instr = *g.nodes[node].instr;
        if (ir.inPlace && buf == BufferKind::Output)
            buf = BufferKind::Input;
        for (int k = 0; k < instr.count; k++) {
            out.push_back(Access{
                g.nodes[node].rank, static_cast<int>(buf), off + k, node,
                write, splitFraction(instr.splitIdx, instr.splitCount) });
        }
    };
    for (int i = 0; i < g.n(); i++) {
        const IrInstruction &instr = *g.nodes[i].instr;
        if (irOpReadsSrc(instr.op))
            record(i, instr.srcBuf, instr.srcOff, false);
        if (instr.op == IrOp::Reduce || instr.op == IrOp::RecvReduceCopy)
            record(i, instr.dstBuf, instr.dstOff, false);
        if (irOpWritesDst(instr.op))
            record(i, instr.dstBuf, instr.dstOff, true);
    }
    return out;
}

bool
conflicts(const Access &a, const Access &b)
{
    return a.node != b.node && (a.isWrite || b.isWrite) &&
        a.range.overlaps(b.range);
}

/** Whether @p from reaches @p to in the graph (a plain search). */
bool
reaches(const Graph &g, int from, int to)
{
    std::vector<char> seen(g.n(), 0);
    std::vector<int> stack{ from };
    seen[from] = 1;
    while (!stack.empty()) {
        int v = stack.back();
        stack.pop_back();
        if (v == to)
            return true;
        for (int w : g.succ[v]) {
            if (!seen[w]) {
                seen[w] = 1;
                stack.push_back(w);
            }
        }
    }
    return false;
}

/** A conflicting access pair whose ordering must be proven. */
struct ConflictPair
{
    int a, b;
    int buffer, chunk;
};

/**
 * One rank's conflict pairs — same location, overlapping fractions,
 * at least one write, different thread blocks — in (buffer, chunk,
 * first access, second access) order.
 */
std::vector<ConflictPair>
conflictPairs(const Graph &g, std::vector<Access> entries)
{
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Access &a, const Access &b) {
                         return std::tie(a.buffer, a.chunk) <
                             std::tie(b.buffer, b.chunk);
                     });
    std::vector<ConflictPair> pairs;
    for (size_t lo = 0; lo < entries.size();) {
        size_t hi = lo;
        while (hi < entries.size() &&
               entries[hi].buffer == entries[lo].buffer &&
               entries[hi].chunk == entries[lo].chunk) {
            hi++;
        }
        for (size_t a = lo; a < hi; a++) {
            for (size_t b = a + 1; b < hi; b++) {
                if (!conflicts(entries[a], entries[b]) ||
                    g.nodes[entries[a].node].tb ==
                        g.nodes[entries[b].node].tb) {
                    continue;
                }
                pairs.push_back(ConflictPair{ entries[a].node,
                                              entries[b].node,
                                              entries[a].buffer,
                                              entries[a].chunk });
            }
        }
        lo = hi;
    }
    return pairs;
}

/**
 * One rank's check: candidate columns are the instructions of its
 * conflict pairs, and ancestor bits propagate over the whole graph in
 * topological order. Returns the first unordered pair's message, or
 * "" when every pair is ordered.
 */
std::string
checkRank(const Graph &g, const std::vector<Access> &entries)
{
    std::vector<ConflictPair> pairs = conflictPairs(g, entries);
    if (pairs.empty())
        return std::string();

    std::vector<int> cols(g.n(), -1);
    int num_cols = 0;
    for (const ConflictPair &pair : pairs) {
        for (int v : { pair.a, pair.b }) {
            if (cols[v] < 0)
                cols[v] = num_cols++;
        }
    }
    size_t words = (static_cast<size_t>(num_cols) + 63) / 64;
    std::vector<std::uint64_t> anc(static_cast<size_t>(g.n()) * words, 0);
    for (int v : g.order) {
        const std::uint64_t *src = &anc[v * words];
        for (int to : g.succ[v]) {
            std::uint64_t *dst = &anc[static_cast<size_t>(to) * words];
            for (size_t w = 0; w < words; w++)
                dst[w] |= src[w];
            if (cols[v] >= 0)
                dst[cols[v] / 64] |= 1ULL << (cols[v] % 64);
        }
    }
    auto bit = [&](int of, int ancestor) {
        int col = cols[ancestor];
        return (anc[static_cast<size_t>(of) * words + col / 64] >>
                    (col % 64) &
                1) != 0;
    };
    for (const ConflictPair &pair : pairs) {
        if (bit(pair.b, pair.a) || bit(pair.a, pair.b))
            continue;
        const Node &na = g.nodes[pair.a];
        const Node &nb = g.nodes[pair.b];
        return strprintf(
            "data race: rank %d tb %d step %d and tb %d "
            "step %d access %s[%d] unordered",
            na.rank, na.tb, na.step, nb.tb, nb.step,
            bufferKindName(static_cast<BufferKind>(pair.buffer)),
            pair.chunk);
    }
    return std::string();
}

} // namespace

std::optional<ReportedRace>
parseRaceMessage(const std::string &message)
{
    ReportedRace race;
    char buffer = 0;
    int consumed = 0;
    int fields = std::sscanf(
        message.c_str(),
        "data race: rank %d tb %d step %d and tb %d step %d access "
        "%c[%d] unordered%n",
        &race.rank, &race.tbA, &race.stepA, &race.tbB, &race.stepB,
        &buffer, &race.chunk, &consumed);
    if (fields != 7 || consumed != static_cast<int>(message.size()))
        return std::nullopt;
    switch (buffer) {
      case 'i': race.buffer = BufferKind::Input; break;
      case 'o': race.buffer = BufferKind::Output; break;
      case 's': race.buffer = BufferKind::Scratch; break;
      default: return std::nullopt;
    }
    return race;
}

void
verifyRaceFreeReference(const IrProgram &ir)
{
    Graph g = buildGraph(ir);
    std::map<Rank, std::vector<Access>> by_rank;
    for (const Access &access : accessesOf(g, ir))
        by_rank[access.rank].push_back(access);
    for (const auto &[rank, entries] : by_rank) {
        std::string error = checkRank(g, entries);
        if (!error.empty())
            throw VerificationError(error);
    }
}

bool
confirmsRace(const IrProgram &ir, const ReportedRace &race)
{
    Graph g = buildGraph(ir);
    int a = g.find(race.rank, race.tbA, race.stepA);
    int b = g.find(race.rank, race.tbB, race.stepB);
    if (a < 0 || b < 0)
        return false;
    std::vector<Access> at_a, at_b;
    for (const Access &access : accessesOf(g, ir)) {
        if (access.rank != race.rank ||
            access.buffer != static_cast<int>(race.buffer) ||
            access.chunk != race.chunk) {
            continue;
        }
        if (access.node == a)
            at_a.push_back(access);
        if (access.node == b)
            at_b.push_back(access);
    }
    bool conflict = false;
    for (const Access &x : at_a) {
        for (const Access &y : at_b)
            conflict = conflict || conflicts(x, y);
    }
    return conflict && !reaches(g, a, b) && !reaches(g, b, a);
}

} // namespace mscclang
