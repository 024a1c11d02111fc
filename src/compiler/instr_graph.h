/**
 * @file
 * The Instruction DAG (paper §4.2): chunk operations expanded into
 * point-to-point and local primitives. Remote copies become a
 * send/recv pair joined by a communication edge; remote reduces become
 * send/recvReduceCopy; local operations stay single instructions.
 * Processing edges capture the execution-order dependencies within a
 * rank at sub-chunk precision (so parallelized sibling instances stay
 * independent). Fusion and scheduling transform this graph in place.
 */

#ifndef MSCCLANG_COMPILER_INSTR_GRAPH_H_
#define MSCCLANG_COMPILER_INSTR_GRAPH_H_

#include <string>
#include <vector>

#include "compiler/chunk_dag.h"
#include "compiler/frac.h"
#include "dsl/program.h"
#include "ir/ir.h"

namespace mscclang {

/** A processing edge between two instructions on the same rank. */
struct InstrEdge
{
    int from = -1;
    int to = -1;
    DepKind kind = DepKind::True;
};

/** One node of the Instruction DAG. */
struct InstrNode
{
    int id = -1;
    IrOp op = IrOp::Nop;
    Rank rank = 0;
    /** Local source slice (valid when irOpReadsSrc(op)). */
    BufferSlice src;
    /** Local destination slice (valid when irOpWritesDst(op)). */
    BufferSlice dst;
    /** Chunk-parallelization instance: this node moves byte fraction
     *  [splitIdx/splitCount, (splitIdx+1)/splitCount) of its slices. */
    int splitIdx = 0;
    int splitCount = 1;
    /** Peer this node sends to / receives from (-1 if none). */
    Rank sendPeer = -1;
    Rank recvPeer = -1;
    /** Channel directive from the DSL (-1 = auto). */
    int chanDirective = -1;
    /** Channel resolved by scheduling (-1 until assigned/local). */
    int channel = -1;
    /** Matched node on the peer rank for this node's recv/send half. */
    int commPred = -1;
    int commSucc = -1;
    /** Originating TraceOp id (instances of one op share it). */
    int opId = -1;
    /** False after the node is absorbed by instruction fusion. */
    bool live = true;

    /** Longest path from a root / to a leaf (computeDepths). */
    int depth = 0;
    int rdepth = 0;

    bool receives() const { return irOpReceives(op); }
    bool sends() const { return irOpSends(op); }

    std::string toString() const;
};

/**
 * The Instruction DAG plus side tables the passes need. Edges are
 * stored per node as predecessor/successor index lists into edges().
 */
class InstrGraph
{
  public:
    explicit InstrGraph(int num_ranks) : numRanks_(num_ranks) {}

    int numRanks() const { return numRanks_; }

    InstrNode &node(int id) { return nodes_[id]; }
    const InstrNode &node(int id) const { return nodes_[id]; }
    int numNodes() const { return static_cast<int>(nodes_.size()); }
    std::vector<InstrNode> &nodes() { return nodes_; }
    const std::vector<InstrNode> &nodes() const { return nodes_; }

    /** Appends a node, returning its id. */
    int addNode(InstrNode node);

    /** Adds a processing edge (deduplicated; True subsumes false). */
    void addEdge(int from, int to, DepKind kind);

    const std::vector<InstrEdge> &edges() const { return edges_; }
    /** Edge indexes entering / leaving a node. */
    const std::vector<int> &predEdges(int id) const { return preds_[id]; }
    const std::vector<int> &succEdges(int id) const { return succs_[id]; }

    /** Live predecessor/successor node ids through live edges. */
    std::vector<int> livePreds(int id) const;
    std::vector<int> liveSuccs(int id) const;

    /** Number of live predecessors, without allocating. */
    int countLivePreds(int id) const;

    /**
     * Visits every live predecessor/successor node id exactly once,
     * without allocating. addEdge deduplicates edge records per
     * (from, to) pair, so each live neighbor appears behind at most
     * one edge record; iteration follows edge insertion order, which
     * is only safe for consumers whose result is order-independent
     * (counts, max-folds, pushes into a totally ordered heap).
     */
    template <typename Fn>
    void
    forEachLivePred(int id, Fn &&fn) const
    {
        for (int edge_idx : preds_[id]) {
            int from = edges_[edge_idx].from;
            if (nodes_[from].live && from != id)
                fn(from);
        }
    }

    template <typename Fn>
    void
    forEachLiveSucc(int id, Fn &&fn) const
    {
        for (int edge_idx : succs_[id]) {
            int to = edges_[edge_idx].to;
            if (nodes_[to].live && to != id)
                fn(to);
        }
    }

    /**
     * Rewires every edge endpoint at @p from to @p to and marks
     * @p from dead. Used by fusion; self-edges are dropped.
     */
    void replaceNode(int from, int to);

    /** Number of live nodes. */
    int numLive() const;

    /**
     * Computes depth (longest path from a root) and rdepth (longest
     * path to a leaf) over live nodes, following processing and
     * communication edges.
     */
    void computeDepths();

    std::string dump() const;

  private:
    int numRanks_;
    std::vector<InstrNode> nodes_;
    std::vector<InstrEdge> edges_;
    std::vector<std::vector<int>> preds_;
    std::vector<std::vector<int>> succs_;
};

/**
 * Lowers a traced program into the initial Instruction DAG,
 * expanding parallelization instances and dropping no-op copies.
 * @p instances is the program-wide factor (options().instances).
 */
InstrGraph lowerProgram(const Program &program);

/** Applies the rcs/rrcs/rrs peephole fusion passes (paper §4.3). */
struct FusionStats
{
    int rcs = 0;
    int rrcs = 0;
    int rrs = 0;
};
FusionStats fuseInstructions(InstrGraph &graph);

} // namespace mscclang

#endif // MSCCLANG_COMPILER_INSTR_GRAPH_H_
