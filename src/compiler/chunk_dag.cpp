#include "compiler/chunk_dag.h"

#include <algorithm>
#include <tuple>

#include "common/strings.h"

namespace mscclang {

namespace {

using LocationKey = std::tuple<Rank, BufferKind, int>;

struct Access
{
    int op;
    bool isWrite;
};

/** Reads/writes of one traced op at chunk granularity. */
void
forEachAccess(const TraceOp &op,
              const std::function<void(LocationKey, bool)> &visit)
{
    auto slice_locations = [&](const BufferSlice &slice, bool is_write) {
        for (int i = 0; i < slice.count; i++) {
            visit(LocationKey{ slice.rank, slice.buffer, slice.index + i },
                  is_write);
        }
    };
    if (op.kind == OpKind::Copy) {
        slice_locations(op.src, false);
        slice_locations(op.dst, true);
    } else {
        slice_locations(op.src, false);
        slice_locations(op.dst, false);
        slice_locations(op.dst, true);
    }
}

} // namespace

ChunkDag::ChunkDag(const Program &program)
{
    const std::vector<TraceOp> &ops = program.ops();
    numOps_ = static_cast<int>(ops.size());
    preds_.resize(numOps_);
    succs_.resize(numOps_);

    // Note: the DSL canonicalizes in-place Output accesses onto the
    // Input buffer internally, but TraceOps retain the user's buffer
    // names; canonicalize here so aliases collide.
    bool in_place = program.collective().inPlace();
    auto canonical = [in_place](LocationKey key) {
        if (in_place && std::get<1>(key) == BufferKind::Output)
            std::get<1>(key) = BufferKind::Input;
        return key;
    };

    // Access history per (rank, buffer) location, stored densely:
    // history[rank * 3 + buffer][chunkIndex]. Lookup-only, so the
    // switch from an ordered map changes nothing observable.
    std::vector<std::vector<std::vector<Access>>> history(
        3 * static_cast<size_t>(program.numRanks()));
    auto history_of = [&](const LocationKey &key) -> std::vector<Access> & {
        std::vector<std::vector<Access>> &buf =
            history[static_cast<size_t>(std::get<0>(key)) * 3 +
                    static_cast<size_t>(std::get<1>(key))];
        int index = std::get<2>(key);
        if (index >= static_cast<int>(buf.size()))
            buf.resize(index + 1);
        return buf[index];
    };

    // Edges deduplicated per source op; the per-op lists are small, so
    // a linear membership scan beats a global ordered set.
    std::vector<std::vector<std::pair<int, DepKind>>> edges_by_from(
        numOps_);

    for (const TraceOp &op : ops) {
        forEachAccess(op, [&](LocationKey key, bool is_write) {
            key = canonical(key);
            std::vector<Access> &accesses = history_of(key);
            for (const Access &prev : accesses) {
                if (prev.op == op.id)
                    continue;
                DepKind kind;
                if (is_write && prev.isWrite)
                    kind = DepKind::Output;
                else if (is_write)
                    kind = DepKind::Anti;
                else if (prev.isWrite)
                    kind = DepKind::True;
                else
                    continue; // read-read: no dependence
                std::vector<std::pair<int, DepKind>> &out =
                    edges_by_from[prev.op];
                auto it = std::find_if(
                    out.begin(), out.end(),
                    [&](const auto &e) { return e.first == op.id; });
                if (it == out.end()) {
                    out.push_back({ op.id, kind });
                } else if (kind == DepKind::True) {
                    // A true dependence subsumes false ones.
                    it->second = DepKind::True;
                }
            }
            accesses.push_back(Access{ op.id, is_write });
        });
    }

    // Emit in (from, to) order, matching the old ordered-set sweep.
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
