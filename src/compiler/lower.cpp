/**
 * @file
 * Instruction generation (paper §4.2): expands each traced chunk
 * operation — per parallelization instance — into point-to-point and
 * local instructions, and wires processing edges at sub-chunk
 * precision plus communication edges between matched send/recv pairs.
 */

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "compiler/access_history.h"
#include "compiler/instr_graph.h"

namespace mscclang {

namespace {

/** @p slice with Output read as Input in an in-place program. */
BufferSlice
canonical(BufferSlice slice, bool in_place)
{
    if (in_place && slice.buffer == BufferKind::Output)
        slice.buffer = BufferKind::Input;
    return slice;
}

/** A copy of a slice onto itself, possibly through in-place
 *  aliasing: recorded by the trace, dropped by lowering. */
bool
isNoOpCopy(const TraceOp &op, bool in_place)
{
    return op.kind == OpKind::Copy &&
        canonical(op.src, in_place) == canonical(op.dst, in_place);
}

class LoweringContext
{
  public:
    LoweringContext(InstrGraph &graph, const Program &program)
        : graph_(graph), history_(chunkCounts(program))
    {
    }

    /**
     * Registers the accesses of node @p id and adds processing edges
     * against every conflicting earlier access.
     */
    void
    recordAccesses(int id)
    {
        const InstrNode &node = graph_.node(id);
        if (irOpReadsSrc(node.op))
            accessSlice(id, node.src, node.splitIdx, node.splitCount,
                        false);
        if (node.op == IrOp::Reduce || node.op == IrOp::RecvReduceCopy) {
            // reduce reads its destination as the other operand
            accessSlice(id, node.dst, node.splitIdx, node.splitCount,
                        false);
        }
        if (irOpWritesDst(node.op))
            accessSlice(id, node.dst, node.splitIdx, node.splitCount,
                        true);
    }

  private:
    /** Removes @p cut from the uncovered set, via the spare buffer. */
    void
    subtractRange(const FracInterval &cut)
    {
        spare_.clear();
        for (const FracInterval &part : uncovered_) {
            if (!part.overlaps(cut)) {
                spare_.push_back(part);
                continue;
            }
            if (part.lo < cut.lo)
                spare_.push_back(FracInterval{ part.lo, cut.lo });
            if (cut.hi < part.hi)
                spare_.push_back(FracInterval{ cut.hi, part.hi });
        }
        uncovered_.swap(spare_);
    }

    bool
    uncoveredOverlaps(const FracInterval &range) const
    {
        for (const FracInterval &part : uncovered_) {
            if (range.overlaps(part))
                return true;
        }
        return false;
    }

    /**
     * Adds dependence edges for one access with shadowing precision:
     * scanning newest-first, a read depends only on the writers whose
     * bytes are still visible, and a write orders after the readers
     * and writers of the still-visible version — anything older is
     * already transitively ordered. This matters for fusion: a
     * forwarding send's sole predecessor must be the receive that
     * produced its data, not every historic writer of the location.
     *
     * While no visible writer has cut into the access's own fraction
     * (always, in the common case where every access of a chunk uses
     * one split count), the still-uncovered set is that fraction, and
     * overlap and cover are integer tests on the split indexes. The
     * first writer that covers only part of it switches to the exact
     * interval walk, whose set lives in two reused buffers.
     */
    void
    accessSlice(int id, const BufferSlice &slice, int split_idx,
                int split_count, bool is_write)
    {
        for (int k = 0; k < slice.count; k++) {
            int index = slice.index + k;
            bool intact = true;
            for (int e = history_.head(slice.rank, slice.buffer, index);
                 e >= 0;) {
                const AccessHistory::Entry &prev = history_.entry(e);
                e = prev.next;
                if (prev.node == id)
                    continue;
                if (intact) {
                    if (!splitsOverlap(prev.splitIdx, prev.splitCount,
                                       split_idx, split_count))
                        continue;
                } else if (!uncoveredOverlaps(fractionOf(
                               prev.splitIdx, prev.splitCount))) {
                    continue;
                }
                if (is_write && prev.isWrite) {
                    graph_.addEdge(prev.node, id, DepKind::Output);
                } else if (is_write) {
                    // Reader of the visible version: order after it,
                    // but it does not shadow older accesses.
                    graph_.addEdge(prev.node, id, DepKind::Anti);
                    continue;
                } else if (prev.isWrite) {
                    graph_.addEdge(prev.node, id, DepKind::True);
                } else {
                    continue;
                }
                // prev is a visible writer: it shadows its fraction.
                if (intact) {
                    if (splitCovers(prev.splitIdx, prev.splitCount,
                                    split_idx, split_count))
                        break; // nothing older is visible
                    intact = false;
                    uncovered_.clear();
                    uncovered_.push_back(fractionOf(split_idx, split_count));
                }
                subtractRange(fractionOf(prev.splitIdx, prev.splitCount));
                if (uncovered_.empty())
                    break;
            }
            history_.record(slice.rank, slice.buffer, index, id,
                            split_idx, split_count, is_write);
        }
    }

    /** Split fraction [idx/count, (idx+1)/count), not normalized. */
    static FracInterval
    fractionOf(int idx, int count)
    {
        return FracInterval{ Frac{ idx, count }, Frac{ idx + 1, count } };
    }

    InstrGraph &graph_;
    AccessHistory history_;
    std::vector<FracInterval> uncovered_;
    std::vector<FracInterval> spare_;
};

} // namespace

std::size_t
loweredNodeCount(const Program &program)
{
    bool in_place = program.collective().inPlace();
    std::size_t instances = program.options().instances;
    std::size_t nodes = 0;
    for (const TraceOp &op : program.ops()) {
        if (isNoOpCopy(op, in_place))
            continue;
        std::size_t halves = op.src.rank == op.dst.rank ? 1 : 2;
        nodes += static_cast<std::size_t>(op.parFactor) * instances * halves;
    }
    return nodes;
}

InstrGraph
lowerProgram(const Program &program)
{
    InstrGraph graph(program.numRanks());
    // The node count is exact. Processing edges come to 0.4-1.5 per
    // node on the big programs; one per node covers most of them,
    // and a larger reservation raised the compile's peak memory.
    std::size_t nodes = loweredNodeCount(program);
    graph.reserve(nodes, nodes);
    LoweringContext ctx(graph, program);
    bool in_place = program.collective().inPlace();
    int instances = program.options().instances;

    for (const TraceOp &op : program.ops()) {
        if (isNoOpCopy(op, in_place))
            continue;
        BufferSlice src = canonical(op.src, in_place);
        BufferSlice dst = canonical(op.dst, in_place);
        bool local = src.rank == dst.rank;

        int total_split = op.parFactor * instances;
        for (int j = 0; j < total_split; j++) {
            auto base = [&](IrOp ir_op, Rank rank) {
                InstrNode node;
                node.op = ir_op;
                node.rank = rank;
                node.splitIdx = j;
                node.splitCount = total_split;
                node.chanDirective = op.channel;
                node.opId = op.id;
                return node;
            };

            if (op.kind == OpKind::Copy && local) {
                InstrNode node = base(IrOp::Copy, src.rank);
                node.src = src;
                node.dst = dst;
                ctx.recordAccesses(graph.addNode(std::move(node)));
            } else if (op.kind == OpKind::Copy) {
                InstrNode send = base(IrOp::Send, src.rank);
                send.src = src;
                send.sendPeer = dst.rank;
                int send_id = graph.addNode(std::move(send));
                ctx.recordAccesses(send_id);

                InstrNode recv = base(IrOp::Recv, dst.rank);
                recv.dst = dst;
                recv.recvPeer = src.rank;
                int recv_id = graph.addNode(std::move(recv));
                ctx.recordAccesses(recv_id);

                graph.node(send_id).commSucc = recv_id;
                graph.node(recv_id).commPred = send_id;
            } else if (op.kind == OpKind::Reduce && local) {
                InstrNode node = base(IrOp::Reduce, dst.rank);
                node.src = src; // the second operand
                node.dst = dst; // in-place target
                ctx.recordAccesses(graph.addNode(std::move(node)));
            } else {
                // Remote reduce: send the operand, recvReduceCopy at
                // the target (paper §4.2).
                InstrNode send = base(IrOp::Send, src.rank);
                send.src = src;
                send.sendPeer = dst.rank;
                int send_id = graph.addNode(std::move(send));
                ctx.recordAccesses(send_id);

                InstrNode rrc = base(IrOp::RecvReduceCopy, dst.rank);
                rrc.src = dst; // local operand
                rrc.dst = dst;
                rrc.recvPeer = src.rank;
                int rrc_id = graph.addNode(std::move(rrc));
                ctx.recordAccesses(rrc_id);

                graph.node(send_id).commSucc = rrc_id;
                graph.node(rrc_id).commPred = send_id;
            }
        }
    }
    return graph;
}

} // namespace mscclang
