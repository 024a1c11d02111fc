/**
 * @file
 * Classic collective algorithms beyond the paper's evaluation set,
 * written in the same DSL — the library a downstream user would
 * expect, and the raw material for the algorithm-exploration
 * workflow the paper advocates (§1, §7.1.2):
 *
 *  - double binary tree AllReduce (NCCL's other built-in algorithm:
 *    two complementary trees, each carrying half the data);
 *  - recursive-halving ReduceScatter and recursive-doubling
 *    AllGather (the hypercube exchanges), and their composition,
 *    Rabenseifner's AllReduce;
 *  - pipelined ring Broadcast and binomial tree Broadcast;
 *  - hierarchical AllGather (intra-node gather, aggregated
 *    inter-node exchange — the AllGather analogue of Figure 9).
 */

#ifndef MSCCLANG_COLLECTIVES_CLASSIC_H_
#define MSCCLANG_COLLECTIVES_CLASSIC_H_

#include <memory>

#include "collectives/collectives.h"

namespace mscclang {

/** True for 1, 2, 4, ...: the rank counts the hypercube exchanges
 *  (recursive halving and doubling) need. */
inline bool
isPowerOfTwo(int n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

/**
 * Double binary tree AllReduce over @p num_ranks (>= 2): the buffer
 * splits into two chunks; chunk 0 is reduced up / broadcast down a
 * binary tree and chunk 1 uses the mirrored tree, so every rank is
 * interior in at most one of them.
 */
std::unique_ptr<Program> makeDoubleBinaryTreeAllReduce(
    int num_ranks, const AlgoConfig &config);

/**
 * Recursive-halving ReduceScatter over a power-of-two @p num_ranks:
 * log2(R) exchange rounds, halving the active block each round.
 */
std::unique_ptr<Program> makeRecursiveHalvingReduceScatter(
    int num_ranks, const AlgoConfig &config);

/**
 * Recursive-doubling AllGather over a power-of-two @p num_ranks:
 * log2(R) rounds, doubling the gathered block each round.
 */
std::unique_ptr<Program> makeRecursiveDoublingAllGather(
    int num_ranks, const AlgoConfig &config);

/**
 * Rabenseifner's AllReduce: recursive-halving ReduceScatter followed
 * by recursive-doubling AllGather, in place, log-latency and
 * bandwidth-optimal for power-of-two rank counts.
 */
std::unique_ptr<Program> makeRabenseifnerAllReduce(
    int num_ranks, const AlgoConfig &config);

/**
 * Pipelined ring Broadcast from @p root: the buffer splits into
 * @p chunks chunks that stream down the ring, overlapping hops.
 */
std::unique_ptr<Program> makeRingBroadcast(int num_ranks, Rank root,
                                           int chunks,
                                           const AlgoConfig &config);

/**
 * Binomial tree Broadcast from @p root: log2(R) rounds; round k has
 * every rank that already holds the data forward it 2^k ranks ahead.
 */
std::unique_ptr<Program> makeBinomialBroadcast(int num_ranks, Rank root,
                                               const AlgoConfig &config);

/**
 * Hierarchical AllGather on @p num_nodes x @p gpus_per_node: an
 * intra-node ring AllGather assembles each node's block, then nodes
 * exchange whole blocks in single aggregated cross-node messages
 * (per local GPU index), then the received blocks are spread
 * intra-node. Honors @c config.hierSplit: groups of that many
 * consecutive ranks stand in for the node in both phases.
 */
std::unique_ptr<Program> makeHierarchicalAllGather(
    int num_nodes, int gpus_per_node, const AlgoConfig &config);

} // namespace mscclang

#endif // MSCCLANG_COLLECTIVES_CLASSIC_H_
