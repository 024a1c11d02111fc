#include "compiler/chunk_dag.h"

#include <algorithm>

#include "common/strings.h"

namespace mscclang {

ChunkDag::ChunkDag(const Program &program)
{
    const std::vector<TraceOp> &ops = program.ops();
    numOps_ = static_cast<int>(ops.size());
    preds_.resize(numOps_);
    succs_.resize(numOps_);

    // Edges deduplicated per source op; the per-op lists are small, so
    // a linear membership scan beats a global ordered set.
    std::vector<std::vector<std::pair<int, DepKind>>> edges_by_from(
        numOps_);
    auto add_edge = [&](int from, int to, DepKind kind) {
        std::vector<std::pair<int, DepKind>> &out = edges_by_from[from];
        auto it = std::find_if(out.begin(), out.end(),
                               [&](const auto &e) { return e.first == to; });
        if (it == out.end())
            out.push_back({ to, kind });
        else if (kind == DepKind::True)
            it->second = DepKind::True; // subsumes false dependences
    };

    // The last-writer walk lowering does, at whole-chunk granularity:
    // every access conflicts with its chunk's last writer, and a
    // write also with the readers since. Older accesses are ordered
    // through that writer already. TraceOps keep the user's buffer
    // names, so in-place Output aliases are folded onto Input here.
    bool in_place = program.collective().inPlace();
    AccessHistory history(chunkCounts(program));
    auto access = [&](int id, BufferSlice slice, bool is_write) {
        if (in_place && slice.buffer == BufferKind::Output)
            slice.buffer = BufferKind::Input;
        for (int index = slice.index; index < slice.index + slice.count;
             index++) {
            for (int e = history.head(slice.rank, slice.buffer, index);
                 e >= 0;) {
                const AccessHistory::Entry &prev = history.entry(e);
                e = prev.next;
                if (prev.node == id || !(is_write || prev.isWrite))
                    continue; // self or read-read: no dependence
                DepKind kind = !is_write ? DepKind::True
                    : prev.isWrite       ? DepKind::Output
                                         : DepKind::Anti;
                add_edge(prev.node, id, kind);
            }
            history.record(slice.rank, slice.buffer, index, id, 0, 1,
                           is_write);
        }
    };
    for (const TraceOp &op : ops) {
        access(op.id, op.src, false);
        if (op.kind == OpKind::Reduce)
            access(op.id, op.dst, false); // reduce reads its target
        access(op.id, op.dst, true);
    }

    // Emit in (from, to) order.
    for (int from = 0; from < numOps_; from++) {
        std::vector<std::pair<int, DepKind>> &out = edges_by_from[from];
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[to, kind] : out) {
            edges_.push_back(ChunkDep{ from, to, kind });
            succs_[from].push_back(to);
            preds_[to].push_back(from);
        }
    }

    // Ops are already in a topological order (trace order).
    depths_.assign(numOps_, 0);
    for (int op = 0; op < numOps_; op++) {
        for (int pred : preds_[op])
            depths_[op] = std::max(depths_[op], depths_[pred] + 1);
        criticalPath_ = std::max(criticalPath_, depths_[op] + 1);
    }
}

std::string
ChunkDag::toDot(const Program &program) const
{
    std::string out = "digraph chunkdag {\n";
    const std::vector<TraceOp> &ops = program.ops();
    for (int op = 0; op < numOps_; op++) {
        out += strprintf("  n%d [label=\"%s\"];\n", op,
                         ops[op].toString().c_str());
    }
    for (const ChunkDep &edge : edges_) {
        const char *style = edge.kind == DepKind::True ? "solid" : "dashed";
        out += strprintf("  n%d -> n%d [style=%s];\n", edge.from, edge.to,
                         style);
    }
    out += "}\n";
    return out;
}

} // namespace mscclang
