/**
 * @file
 * The collective algorithm library: every MSCCLang program the paper
 * evaluates (§7), written in the C++-embedded DSL. Each builder
 * returns a traced Program ready for compileProgram().
 *
 *  - Ring AllReduce (§7.1.1), with the logical ring distributable
 *    across multiple channels;
 *  - All Pairs AllReduce (§7.1.2), the 2-step latency algorithm;
 *  - Hierarchical AllReduce (§2, Figure 3);
 *  - Two-Step AllToAll (§7.3, Figure 9) and the naive AllToAll;
 *  - AllToNext (§7.4, Figure 10), the custom pipeline collective;
 *  - Ring AllGather / ReduceScatter building blocks;
 *  - a 2-step, 2-chunk AllGather for the DGX-1 hybrid cube-mesh in
 *    the spirit of SCCL's (1,2,2) algorithm (§7.5).
 */

#ifndef MSCCLANG_COLLECTIVES_COLLECTIVES_H_
#define MSCCLANG_COLLECTIVES_COLLECTIVES_H_

#include <memory>
#include <string>
#include <vector>

#include "dsl/program.h"
#include "topology/topology.h"

namespace mscclang {

/** Common knobs every builder takes. */
struct AlgoConfig
{
    /** Program-wide parallelization factor (the plots' "r"). */
    int instances = 1;
    Protocol protocol = Protocol::Simple;
    ReduceOp reduceOp = ReduceOp::Sum;
    /**
     * Chunk-parallelization factor wrapped around the whole trace
     * (paper §5.1's parallelize(n) scope); 1 = off. Composes
     * multiplicatively with @c instances at lowering, so a builder's
     * own interior parallelize() scopes nest on top of it.
     */
    int parallelize = 1;
    /**
     * Contiguous chunks moved per ring block as one multi-count
     * reference (paper §3.3 send aggregation); 1 = off. Builders
     * whose AlgoKnobs lack @c aggregate reject values > 1 with Error,
     * so a schedule-search candidate can never silently drop the
     * knob it claims to vary.
     */
    int aggregate = 1;
    /**
     * Hierarchy split for the hierarchical factories: the intra-phase
     * group size in ranks. 0 picks the natural split (one group per
     * node); 1 degenerates to one flat ring over all ranks; values
     * in between trade intra-fabric ring length against the number
     * of concurrent inter-group rings. Must divide gpus_per_node so
     * a group never straddles a node boundary. Builders whose
     * AlgoKnobs lack @c hierSplit reject values > 0.
     */
    int hierSplit = 0;
};

/** The schedule knobs beyond instances, protocol and parallelize
 *  that a builder honors. */
struct AlgoKnobs
{
    /** Spreads its rings over a channel count argument. */
    bool channels = false;
    /** Honors AlgoConfig::aggregate > 1. */
    bool aggregate = false;
    /** Honors AlgoConfig::hierSplit > 0. */
    bool hierSplit = false;
};

/**
 * Validates @p config's shared schedule knobs on behalf of a builder
 * named @p what that honors @p knobs: all factors must be >= 1, and
 * a builder that cannot honor send aggregation (resp. the hierarchy
 * split) rejects aggregate != 1 (resp. hierSplit != 0) instead of
 * silently ignoring it (so a label derived from the config can never
 * claim a knob the trace does not carry). Catalogued builders pass
 * their catalogue entry's knobs (collectives/catalog.h).
 * @throws mscclang::Error.
 */
void checkAlgoConfig(const char *what, const AlgoConfig &config,
                     const AlgoKnobs &knobs = {});

/** Appends the non-default schedule-knob suffixes ("_p2", "_a4",
 *  "_h4") to a program name so variants stay tellable apart in
 *  tools/traces. */
std::string algoKnobName(std::string name, const AlgoConfig &config);

/** A builder's ProgramOptions: @p name with algoKnobName's suffixes,
 *  and @p config's protocol, instances and reduction operator. */
ProgramOptions algoProgramOptions(std::string name,
                                  const AlgoConfig &config);

/**
 * Resolves @p config's hierSplit against a node of @p gpus_per_node
 * GPUs: the intra-phase group size in ranks (0 = the whole node).
 * Shared by the hierarchical builders and the schedule search.
 * @throws mscclang::Error unless the split divides the node.
 */
int hierGroupSize(const char *what, int gpus_per_node,
                  const AlgoConfig &config);

/**
 * Ring AllReduce over @p num_ranks: a ReduceScatter traversal
 * followed by an AllGather traversal (Figure 3b with all ranks,
 * offset 0, count 1). @p channels distributes the R per-chunk rings
 * round-robin across that many channels — the optimization §7.1.1
 * credits for beating NCCL at mid sizes. NCCL's own schedule is
 * approximately channels=1 with high instances (§7.1.1).
 */
std::unique_ptr<Program> makeRingAllReduce(int num_ranks, int channels,
                                           const AlgoConfig &config);

/**
 * Out-of-place Ring AllReduce: same traversals, but the AllGather
 * phase lands in the separate output buffer (paper §3.1: algorithms
 * choose whether input and output alias).
 */
std::unique_ptr<Program> makeRingAllReduceOutOfPlace(
    int num_ranks, int channels, const AlgoConfig &config);

/** All Pairs AllReduce (§7.1.2): gather-sum-broadcast in 2 steps. */
std::unique_ptr<Program> makeAllPairsAllReduce(int num_ranks,
                                               const AlgoConfig &config);

/**
 * Hierarchical AllReduce (Figure 3) on @p num_nodes x
 * @p gpus_per_node: intra-node ReduceScatter (channel 0), inter-node
 * ReduceScatter + AllGather (channel 1), intra-node AllGather
 * (channel 2), with the intra phases chunk-parallelized by
 * @p intra_parallel (paper §5.1 uses N). Honors @c config.hierSplit:
 * groups of that many consecutive ranks stand in for the node, so
 * the search can sweep the hierarchy boundary (1 = one flat ring).
 */
std::unique_ptr<Program> makeHierarchicalAllReduce(
    int num_nodes, int gpus_per_node, int intra_parallel,
    const AlgoConfig &config);

/**
 * Two-Step AllToAll (Figure 9): cross-node chunks are staged through
 * the scratch buffer of the local GPU with the destination's local
 * index, then sent in one aggregated IB transfer per (node pair,
 * GPU).
 */
std::unique_ptr<Program> makeTwoStepAllToAll(int num_nodes,
                                             int gpus_per_node,
                                             const AlgoConfig &config);

/** Naive AllToAll: one direct copy per rank pair (NCCL's scheme). */
std::unique_ptr<Program> makeNaiveAllToAll(int num_ranks,
                                           const AlgoConfig &config);

/**
 * AllToNext (§7.4): rank i's buffer moves to rank i+1. Within a node
 * the copy is direct; across a node boundary the buffer is scattered
 * over the node's @p gpus_per_node GPUs so every IB NIC carries 1/G
 * of the data (Figure 10).
 */
std::unique_ptr<Program> makeAllToNext(int num_nodes, int gpus_per_node,
                                       const AlgoConfig &config);

/** Naive AllToNext: each rank sends its whole buffer directly. */
std::unique_ptr<Program> makeNaiveAllToNext(int num_nodes,
                                            int gpus_per_node,
                                            const AlgoConfig &config);

/**
 * Ring AllGather over @p num_ranks (non-in-place): rank r's input
 * lands at output block r everywhere.
 */
std::unique_ptr<Program> makeRingAllGather(int num_ranks, int channels,
                                           const AlgoConfig &config);

/**
 * A 2-step AllGather with 2 chunks per rank for the DGX-1 hybrid
 * cube-mesh, in the spirit of SCCL's synthesized (1,2,2) algorithm
 * (§7.5): step 1 pushes both chunks to the four NVLink neighbors,
 * step 2 relays to the three non-neighbors through a common
 * neighbor. Only directly-linked GPUs ever communicate.
 * @p topology must be the DGX-1.
 */
std::unique_ptr<Program> makeSccl122AllGather(const Topology &topology,
                                              const AlgoConfig &config);

/**
 * A Hamiltonian cycle over @p topology's direct links, found by
 * deterministic backtracking. At every step candidates on the same
 * node as the previous hop are tried before cross-node ones
 * (ascending within each class), so a degraded multi-node ring
 * detours around a dead intra-node link locally instead of bouncing
 * over the NIC-limited node boundary; on a healthy (or single-node)
 * machine the result is plain rank order. Returns empty when no
 * cycle exists (e.g. too many links quarantined). This is the ring
 * reformation step of degraded-topology replanning: a dead link
 * excludes some orders, and the search routes the ring around it.
 * Worst case exponential in ranks, so the search is capped at a
 * fixed number of backtracking steps and also returns empty when the
 * cap runs out (callers then fall back as for "no cycle").
 */
std::vector<Rank> findRingOrder(const Topology &topology);

/**
 * Ring AllReduce traversing @p order instead of rank-index order —
 * the replanner's building block: pass findRingOrder() of a degraded
 * topology and the ring only crosses surviving links. @p order must
 * be a permutation of [0, R). Shares makeRingAllReduce's body and its
 * catalogue knobs; only the program name differs.
 */
std::unique_ptr<Program> makeRingAllReduceOver(
    const std::vector<Rank> &order, int channels,
    const AlgoConfig &config);

/** Ring AllGather (non-in-place) traversing @p order: shares
 *  makeRingAllGather's body and catalogue knobs (aggregate included),
 *  as makeRingAllReduceOver does makeRingAllReduce's. */
std::unique_ptr<Program> makeRingAllGatherOver(
    const std::vector<Rank> &order, int channels,
    const AlgoConfig &config);

/**
 * Ring phase builders (paper Figure 3b), exposed for composing
 * hierarchical algorithms and multi-kernel baselines: a Ring
 * ReduceScatter / AllGather over @p ranks in the input buffer,
 * chunk blocks at @p offset with @p count chunks per step, all
 * transfers on channel @p channel (-1 = auto).
 */
void buildRingReduceScatter(Program &program,
                            const std::vector<Rank> &ranks, int offset,
                            int count, int channel = -1);
void buildRingAllGather(Program &program, const std::vector<Rank> &ranks,
                        int offset, int count, int channel = -1);

} // namespace mscclang

#endif // MSCCLANG_COLLECTIVES_COLLECTIVES_H_
