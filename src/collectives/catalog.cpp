#include "collectives/catalog.h"

#include "collectives/classic.h"
#include "common/error.h"

namespace mscclang {

namespace {

bool
twoRanks(const Topology &topology)
{
    return topology.numRanks() >= 2;
}

bool
powerOfTwoRanks(const Topology &topology)
{
    return topology.numRanks() >= 2 && isPowerOfTwo(topology.numRanks());
}

bool
multiNode(const Topology &topology)
{
    return topology.numNodes() >= 2;
}

bool
isDgx1(const Topology &topology)
{
    return topology.name() == "DGX1";
}

std::vector<AlgoEntry>
makeCatalog()
{
    constexpr AlgoKnobs ring{ .channels = true, .aggregate = true };
    constexpr AlgoKnobs hier{ .hierSplit = true };
    return {
        { "ring_allreduce", "Ring", "allreduce", ring, 12, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int channels, Rank,
             int) { return makeRingAllReduce(t.numRanks(), channels, c); } },
        { "allpairs_allreduce", "AllPairs", "allreduce", {}, 14, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeAllPairsAllReduce(t.numRanks(), c);
          } },
        { "tree_allreduce", "Tree", "allreduce", {}, 16, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeDoubleBinaryTreeAllReduce(t.numRanks(), c);
          } },
        { "rabenseifner_allreduce", "Rabenseifner", "allreduce", {}, 17,
          powerOfTwoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeRabenseifnerAllReduce(t.numRanks(), c);
          } },
        // Intra phases chunk-parallelized by the node count (§5.1).
        { "hierarchical_allreduce", "Hierarchical", "allreduce", hier, 18,
          multiNode,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeHierarchicalAllReduce(
                  t.numNodes(), t.gpusPerNode(), t.numNodes(), c);
          } },
        { "ring_allgather", "RingAllGather", "allgather", ring, 7, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int channels, Rank,
             int) { return makeRingAllGather(t.numRanks(), channels, c); } },
        { "rdoubling_allgather", "RecDoublingAllGather", "allgather", {},
          11, powerOfTwoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeRecursiveDoublingAllGather(t.numRanks(), c);
          } },
        { "hierarchical_allgather", "HierAllGather", "allgather", hier, 12,
          multiNode,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeHierarchicalAllGather(t.numNodes(),
                                               t.gpusPerNode(), c);
          } },
        { "sccl_allgather_122", "", "allgather", {}, 22, isDgx1,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeSccl122AllGather(t, c);
          } },
        { "rhalving_reducescatter", "", "reducescatter", {}, 13,
          powerOfTwoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeRecursiveHalvingReduceScatter(t.numRanks(), c);
          } },
        { "twostep_alltoall", "", "alltoall", {}, 15, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeTwoStepAllToAll(t.numNodes(), t.gpusPerNode(), c);
          } },
        { "naive_alltoall", "", "alltoall", {}, 4, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeNaiveAllToAll(t.numRanks(), c);
          } },
        { "alltonext", "", "alltonext", {}, 14, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank, int) {
              return makeAllToNext(t.numNodes(), t.gpusPerNode(), c);
          } },
        { "ring_broadcast", "", "broadcast", {}, 6, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank root,
             int chunks) {
              return makeRingBroadcast(t.numRanks(), root, chunks, c);
          } },
        { "binomial_broadcast", "", "broadcast", {}, 6, twoRanks,
          [](const Topology &t, const AlgoConfig &c, int, Rank root, int) {
              return makeBinomialBroadcast(t.numRanks(), root, c);
          } },
    };
}

} // namespace

const std::vector<AlgoEntry> &
algoCatalog()
{
    static const std::vector<AlgoEntry> catalog = makeCatalog();
    return catalog;
}

const AlgoEntry &
algoEntry(const std::string &name)
{
    for (const AlgoEntry &entry : algoCatalog()) {
        if (name == entry.name)
            return entry;
    }
    throw Error("unknown algorithm '" + name + "'");
}

} // namespace mscclang
