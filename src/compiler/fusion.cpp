/**
 * @file
 * Instruction fusion (paper §4.3): peephole rewrites that combine a
 * receive with a dependent send so intermediate values travel through
 * registers instead of global memory:
 *
 *   recv ; send  (same chunk)             ->  rcs
 *   rrc  ; send  (same chunk)             ->  rrcs
 *   rrcs whose local result is dead       ->  rrs
 *
 * When several sends depend on one receive, the send on the longest
 * path through the Instruction DAG is fused.
 */

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/instr_graph.h"

namespace mscclang {

namespace {

/** True if the two channel directives are compatible for fusion. */
bool
directivesCompatible(int a, int b)
{
    return a == -1 || b == -1 || a == b;
}

int
mergedDirective(int a, int b)
{
    return a == -1 ? b : a;
}

/**
 * True if @p send can be folded into the receive-like node @p recv:
 * it forwards exactly the bytes @p recv wrote, runs on the same rank,
 * and has no other ordering constraints.
 */
bool
canFuseSend(const InstrGraph &graph, const InstrNode &recv,
            const InstrNode &send)
{
    if (!send.live || send.op != IrOp::Send || send.rank != recv.rank)
        return false;
    if (!(send.src == recv.dst))
        return false;
    if (send.splitIdx != recv.splitIdx ||
        send.splitCount != recv.splitCount) {
        return false;
    }
    if (!directivesCompatible(recv.chanDirective, send.chanDirective))
        return false;
    // The send's only predecessor must be the receive; otherwise
    // executing it at the receive's position could run ahead of a
    // dependence.
    int live_preds = 0;
    bool only_recv = true;
    graph.forEachLivePred(send.id, [&](int from) {
        live_preds++;
        if (from != recv.id)
            only_recv = false;
    });
    return live_preds == 1 && only_recv;
}

/** Fuses @p send into @p recv, which becomes @p fused_op. */
void
fuseSendInto(InstrGraph &graph, int recv_id, int send_id, IrOp fused_op)
{
    InstrNode &recv = graph.node(recv_id);
    InstrNode &send = graph.node(send_id);
    recv.op = fused_op;
    recv.sendPeer = send.sendPeer;
    recv.chanDirective =
        mergedDirective(recv.chanDirective, send.chanDirective);
    recv.commSucc = send.commSucc;
    if (send.commSucc >= 0)
        graph.node(send.commSucc).commPred = recv_id;
    graph.replaceNode(send_id, recv_id);
}

/**
 * One pass combining a receive-like opcode with a dependent send.
 * @p candidates lists the ids to consider, in ascending order; nodes
 * whose opcode no longer matches are skipped; @p rdepth holds
 * computeRdepths of the graph before fusion. Rewritten receive ids
 * are appended to @p rewritten when non-null. Returns the number of
 * rewrites performed.
 */
int
fuseRecvSendPass(InstrGraph &graph, const std::vector<int> &candidates,
                 const std::vector<int> &rdepth, IrOp recv_op,
                 IrOp fused_op, std::vector<int> *rewritten)
{
    int rewrites = 0;
    for (int id : candidates) {
        InstrNode &recv = graph.node(id);
        if (!recv.live || recv.op != recv_op)
            continue;
        // Gather fusable sends among true-dependence successors and
        // pick the one on the longest path (max rdepth).
        int best = -1;
        graph.forEachSuccEdge(id, [&](const InstrEdge &edge) {
            if (edge.kind != DepKind::True)
                return;
            const InstrNode &cand = graph.node(edge.to);
            if (!canFuseSend(graph, recv, cand))
                return;
            if (best == -1 || rdepth[cand.id] > rdepth[best])
                best = cand.id;
        });
        if (best >= 0) {
            fuseSendInto(graph, id, best, fused_op);
            rewrites++;
            if (rewritten)
                rewritten->push_back(id);
        }
    }
    return rewrites;
}

/**
 * True if @p writer overwrites every byte that @p node's destination
 * write covers.
 */
bool
writeCovers(const InstrNode &writer, const InstrNode &node)
{
    if (!irOpWritesDst(writer.op))
        return false;
    if (writer.rank != node.rank || writer.dst.rank != node.dst.rank ||
        writer.dst.buffer != node.dst.buffer) {
        return false;
    }
    FracInterval mine = splitFraction(node.splitIdx, node.splitCount);
    FracInterval theirs =
        splitFraction(writer.splitIdx, writer.splitCount);
    if (!theirs.covers(mine))
        return false;
    for (int k = 0; k < node.dst.count; k++) {
        int loc = node.dst.index + k;
        int rel = loc - writer.dst.index;
        if (rel < 0 || rel >= writer.dst.count)
            return false;
    }
    return true;
}

/**
 * rrs rewrite: an rrcs whose stored result is never read locally and
 * is later overwritten does not need the store (paper §4.3).
 */
int
fuseRrsPass(InstrGraph &graph, const std::vector<int> &candidates)
{
    int rewrites = 0;
    for (int id : candidates) {
        InstrNode &node = graph.node(id);
        if (!node.live || node.op != IrOp::RecvReduceCopySend)
            continue;
        bool has_reader = false;
        bool overwritten = false;
        graph.forEachSuccEdge(id, [&](const InstrEdge &edge) {
            const InstrNode &succ = graph.node(edge.to);
            if (has_reader || !succ.live)
                return;
            if (edge.kind == DepKind::True)
                has_reader = true;
            else if (writeCovers(succ, node))
                overwritten = true;
        });
        if (!has_reader && overwritten) {
            node.op = IrOp::RecvReduceSend;
            rewrites++;
        }
    }
    return rewrites;
}

} // namespace

std::vector<int>
computeRdepths(const InstrGraph &graph)
{
    int n = graph.numNodes();
    std::vector<int> rdepth(n, 0);
    for (int id = n - 1; id >= 0; id--) {
        const InstrNode &node = graph.node(id);
        if (!node.live)
            continue;
        auto visit = [&](int succ) {
            if (succ <= id) {
                throw CompileError(strprintf(
                    "instruction DAG edge #%d -> #%d runs against id "
                    "order (a cycle, or a graph not built by lowering)",
                    id, succ));
            }
            rdepth[id] = std::max(rdepth[id], rdepth[succ] + 1);
        };
        graph.forEachLiveSucc(id, visit);
        if (node.commSucc >= 0 && graph.node(node.commSucc).live)
            visit(node.commSucc);
    }
    return rdepth;
}

FusionStats
fuseInstructions(InstrGraph &graph)
{
    // rdepth breaks ties between candidate sends. It is computed once,
    // before any rewrite, and the passes read only those values.
    std::vector<int> rdepth = computeRdepths(graph);

    // One scan seeds every pass's worklist. The rcs pass cannot
    // create RecvReduceCopy nodes and neither recv/send pass kills
    // anything but Send nodes, so the initial scan stays valid for
    // the rrcs pass. The rrs pass additionally considers the nodes
    // the rrcs pass just rewrote into RecvReduceCopySend.
    std::vector<int> recvs;
    std::vector<int> rrcs;
    std::vector<int> rrcss;
    for (int id = 0; id < graph.numNodes(); id++) {
        const InstrNode &node = graph.node(id);
        if (!node.live)
            continue;
        switch (node.op) {
        case IrOp::Recv:
            recvs.push_back(id);
            break;
        case IrOp::RecvReduceCopy:
            rrcs.push_back(id);
            break;
        case IrOp::RecvReduceCopySend:
            rrcss.push_back(id);
            break;
        default:
            break;
        }
    }

    FusionStats stats;
    stats.rcs = fuseRecvSendPass(graph, recvs, rdepth, IrOp::Recv,
                                 IrOp::RecvCopySend, nullptr);
    std::vector<int> new_rrcss;
    stats.rrcs =
        fuseRecvSendPass(graph, rrcs, rdepth, IrOp::RecvReduceCopy,
                         IrOp::RecvReduceCopySend, &new_rrcss);
    // rrs candidates must be visited in ascending id order: rewriting
    // an rrcs into an rrs removes its destination write, which changes
    // the covering-overwriter answer for a later candidate.
    rrcss.insert(rrcss.end(), new_rrcss.begin(), new_rrcss.end());
    std::sort(rrcss.begin(), rrcss.end());
    stats.rrs = fuseRrsPass(graph, rrcss);
    return stats;
}

} // namespace mscclang
