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

#include <cstddef>
#include <string>
#include <vector>

#include "compiler/access_history.h"
#include "compiler/frac.h"
#include "dsl/program.h"
#include "ir/ir.h"

namespace mscclang {

/**
 * A processing edge between two instructions on the same rank. Each
 * edge is threaded onto two intrusive singly linked lists: the
 * successor list of `from` (through nextSucc) and the predecessor
 * list of `to` (through nextPred). Both lists are in insertion order.
 */
struct InstrEdge
{
    int from = -1;
    int to = -1;
    DepKind kind = DepKind::True;
    /** Next edge leaving `from` / entering `to`, or -1. */
    int nextSucc = -1;
    int nextPred = -1;
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
    /** False after the node is absorbed by instruction fusion
     *  (InstrGraph::replaceNode is the only place a node dies). */
    bool live = true;

    bool receives() const { return irOpReceives(op); }
    bool sends() const { return irOpSends(op); }

    std::string toString() const;
};

/**
 * The Instruction DAG plus side tables the passes need. Edges live in
 * one flat edges() array; each node keeps the first and last index of
 * its successor and predecessor lists, which are threaded through the
 * edges themselves, so adding a node or an edge allocates nothing
 * beyond amortized growth of the two arrays.
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

    /** Pre-sizes the node and edge arrays. */
    void reserve(std::size_t nodes, std::size_t edges);

    /** Appends a node, returning its id. */
    int addNode(InstrNode node);

    /**
     * Adds a processing edge, deduplicated per (from, to) pair; True
     * subsumes a false dependence. The check looks only at the tail
     * of @p from's successor list, so an earlier edge of the same
     * pair must be that tail. That holds whenever every edge enters
     * the newest node, as in lowering: nothing leaves @p from towards
     * another node while @p to is being recorded.
     */
    void addEdge(int from, int to, DepKind kind);

    const std::vector<InstrEdge> &edges() const { return edges_; }

    /**
     * Visits every edge entering / leaving node @p id, dead endpoints
     * included, in edge insertion order. @p fn must not add edges.
     */
    template <typename Fn>
    void
    forEachPredEdge(int id, Fn &&fn) const
    {
        for (int e = links_[id].predHead; e >= 0; e = edges_[e].nextPred)
            fn(edges_[e]);
    }

    template <typename Fn>
    void
    forEachSuccEdge(int id, Fn &&fn) const
    {
        for (int e = links_[id].succHead; e >= 0; e = edges_[e].nextSucc)
            fn(edges_[e]);
    }

    /** Live predecessor/successor node ids through live edges. */
    std::vector<int> livePreds(int id) const;
    std::vector<int> liveSuccs(int id) const;

    /** Number of live predecessors, without allocating. */
    int countLivePreds(int id) const;

    /**
     * Visits every live predecessor/successor node id exactly once,
     * without allocating. addEdge and replaceNode deduplicate edge
     * records per (from, to) pair, so each live neighbor appears
     * behind at most one edge record; iteration follows edge
     * insertion order, which is only safe for consumers whose result
     * is order-independent (counts, max-folds, pushes into a totally
     * ordered heap).
     */
    template <typename Fn>
    void
    forEachLivePred(int id, Fn &&fn) const
    {
        forEachPredEdge(id, [&](const InstrEdge &edge) {
            if (nodes_[edge.from].live && edge.from != id)
                fn(edge.from);
        });
    }

    template <typename Fn>
    void
    forEachLiveSucc(int id, Fn &&fn) const
    {
        forEachSuccEdge(id, [&](const InstrEdge &edge) {
            if (nodes_[edge.to].live && edge.to != id)
                fn(edge.to);
        });
    }

    /**
     * Rewires every edge endpoint at @p from to @p to and marks
     * @p from dead. Used by fusion; self-edges are dropped.
     */
    void replaceNode(int from, int to);

    /** Number of live nodes, kept as a counter. */
    int numLive() const { return numLive_; }

    std::string dump() const;

  private:
    /** First and last edge index of a node's two lists (-1: empty). */
    struct EdgeLinks
    {
        int predHead = -1;
        int predTail = -1;
        int succHead = -1;
        int succTail = -1;
    };

    /** Appends edge (from, to) to both lists without deduplicating. */
    void appendEdge(int from, int to, DepKind kind);

    int numRanks_;
    int numLive_ = 0;
    std::vector<InstrNode> nodes_;
    std::vector<InstrEdge> edges_;
    std::vector<EdgeLinks> links_;
};

/**
 * The number of nodes lowerProgram makes from @p program: per traced
 * op, parFactor × instances instances of one local instruction or a
 * send/receive pair, skipping the copies in-place aliasing makes
 * no-ops.
 */
std::size_t loweredNodeCount(const Program &program);

/**
 * Lowers a traced program into the initial Instruction DAG,
 * expanding parallelization instances (parFactor × the program-wide
 * options().instances) and dropping no-op copies. The node arrays are
 * sized once, from loweredNodeCount.
 */
InstrGraph lowerProgram(const Program &program);

/**
 * Longest path from each node to a leaf over live processing and
 * communication edges (0 for dead nodes): fusion's "longest path"
 * tie-break. Lowering adds edges only into the newest node, so every
 * edge runs from a lower id to a higher one and one reverse id-order
 * sweep suffices. Throws CompileError on an edge that runs backward
 * in id order; every cycle has one.
 */
std::vector<int> computeRdepths(const InstrGraph &graph);

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
