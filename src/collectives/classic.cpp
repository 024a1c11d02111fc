#include "collectives/classic.h"

#include <functional>

#include "collectives/catalog.h"
#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

namespace {

void
requirePowerOfTwo(const char *what, int n)
{
    if (!isPowerOfTwo(n))
        throw Error(strprintf("%s requires a power-of-two rank count "
                              "(got %d)", what, n));
}

} // namespace

std::unique_ptr<Program>
makeDoubleBinaryTreeAllReduce(int num_ranks, const AlgoConfig &config)
{
    if (num_ranks < 2)
        throw Error("tree allreduce needs at least 2 ranks");
    auto coll = std::make_shared<AllReduceCollective>(num_ranks, 2);
    checkAlgoConfig("tree allreduce", config,
                    algoEntry("tree_allreduce").knobs);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("tree_allreduce", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    // Tree 0 is the binary heap over 0..R-1; tree 1 is its mirror,
    // so interior ranks of one tree are (mostly) leaves of the other.
    auto relabel = [num_ranks](int tree, int v) {
        return tree == 0 ? v : num_ranks - 1 - v;
    };

    for (int tree = 0; tree < 2; tree++) {
        int chunk_idx = tree;
        // Reduce up: post-order traversal; child subtree sums land in
        // the parent's input chunk.
        std::function<void(int)> reduce_up = [&](int v) {
            for (int child : { 2 * v + 1, 2 * v + 2 }) {
                if (child >= num_ranks)
                    continue;
                reduce_up(child);
                ChunkRef subtree = prog->chunk(
                    relabel(tree, child), BufferKind::Input, chunk_idx);
                prog->chunk(relabel(tree, v), BufferKind::Input,
                            chunk_idx)
                    .reduce(subtree, OpOptions{ tree });
            }
        };
        reduce_up(0);
        // Broadcast down: pre-order; the root's total overwrites the
        // partial sums along the way.
        std::function<void(int)> broadcast_down = [&](int v) {
            for (int child : { 2 * v + 1, 2 * v + 2 }) {
                if (child >= num_ranks)
                    continue;
                prog->chunk(relabel(tree, v), BufferKind::Input,
                            chunk_idx)
                    .copy(relabel(tree, child), BufferKind::Input,
                          chunk_idx, OpOptions{ tree });
                broadcast_down(child);
            }
        };
        broadcast_down(0);
    }
    return prog;
}

std::unique_ptr<Program>
makeRecursiveHalvingReduceScatter(int num_ranks,
                                  const AlgoConfig &config)
{
    requirePowerOfTwo("recursive-halving reducescatter", num_ranks);
    auto coll =
        std::make_shared<ReduceScatterCollective>(num_ranks, 1);
    checkAlgoConfig("recursive-halving reducescatter", config,
                    algoEntry("rhalving_reducescatter").knobs);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("rhalving_reducescatter", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    std::vector<int> lo(num_ranks, 0);
    for (int d = num_ranks / 2; d >= 1; d /= 2) {
        int size = 2 * d;
        for (Rank r = 0; r < num_ranks; r++) {
            Rank peer = r ^ d;
            // r keeps the half containing its own index and ships
            // the other half to the peer, who reduces it in place.
            int send_lo = (r & d) ? lo[r] : lo[r] + size / 2;
            ChunkRef mine =
                prog->chunk(r, BufferKind::Input, send_lo, size / 2);
            prog->chunk(peer, BufferKind::Input, send_lo, size / 2)
                .reduce(mine);
        }
        for (Rank r = 0; r < num_ranks; r++) {
            if (r & d)
                lo[r] += size / 2;
        }
    }
    for (Rank r = 0; r < num_ranks; r++) {
        prog->chunk(r, BufferKind::Input, r)
            .copy(r, BufferKind::Output, 0);
    }
    return prog;
}

std::unique_ptr<Program>
makeRecursiveDoublingAllGather(int num_ranks, const AlgoConfig &config)
{
    requirePowerOfTwo("recursive-doubling allgather", num_ranks);
    auto coll = std::make_shared<AllGatherCollective>(num_ranks, 1);
    checkAlgoConfig("recursive-doubling allgather", config,
                    algoEntry("rdoubling_allgather").knobs);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("rdoubling_allgather", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    for (Rank r = 0; r < num_ranks; r++) {
        prog->chunk(r, BufferKind::Input, 0)
            .copy(r, BufferKind::Output, r);
    }
    std::vector<int> lo(num_ranks);
    for (Rank r = 0; r < num_ranks; r++)
        lo[r] = r;
    for (int d = 1; d < num_ranks; d *= 2) {
        for (Rank r = 0; r < num_ranks; r++) {
            Rank peer = r ^ d;
            prog->chunk(r, BufferKind::Output, lo[r], d)
                .copy(peer, BufferKind::Output, lo[r]);
        }
        for (Rank r = 0; r < num_ranks; r++)
            lo[r] &= ~d;
    }
    return prog;
}

std::unique_ptr<Program>
makeRabenseifnerAllReduce(int num_ranks, const AlgoConfig &config)
{
    requirePowerOfTwo("rabenseifner allreduce", num_ranks);
    auto coll =
        std::make_shared<AllReduceCollective>(num_ranks, num_ranks);
    checkAlgoConfig("rabenseifner allreduce", config,
                    algoEntry("rabenseifner_allreduce").knobs);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("rabenseifner_allreduce", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    // Recursive-halving ReduceScatter on the input buffer.
    std::vector<int> lo(num_ranks, 0);
    for (int d = num_ranks / 2; d >= 1; d /= 2) {
        int size = 2 * d;
        for (Rank r = 0; r < num_ranks; r++) {
            Rank peer = r ^ d;
            int send_lo = (r & d) ? lo[r] : lo[r] + size / 2;
            ChunkRef mine =
                prog->chunk(r, BufferKind::Input, send_lo, size / 2);
            prog->chunk(peer, BufferKind::Input, send_lo, size / 2)
                .reduce(mine);
        }
        for (Rank r = 0; r < num_ranks; r++) {
            if (r & d)
                lo[r] += size / 2;
        }
    }
    // Recursive-doubling AllGather of the scattered results.
    for (int d = 1; d < num_ranks; d *= 2) {
        for (Rank r = 0; r < num_ranks; r++) {
            Rank peer = r ^ d;
            prog->chunk(r, BufferKind::Input, lo[r], d)
                .copy(peer, BufferKind::Input, lo[r]);
        }
        for (Rank r = 0; r < num_ranks; r++)
            lo[r] &= ~d;
    }
    return prog;
}

std::unique_ptr<Program>
makeRingBroadcast(int num_ranks, Rank root, int chunks,
                  const AlgoConfig &config)
{
    auto coll = std::make_shared<BroadcastCollective>(num_ranks, chunks,
                                                      root);
    checkAlgoConfig("ring broadcast", config,
                    algoEntry("ring_broadcast").knobs);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("ring_broadcast", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    for (int j = 0; j < chunks; j++) {
        ChunkRef c = prog->chunk(root, BufferKind::Input, j)
                         .copy(root, BufferKind::Output, j);
        for (int step = 1; step < num_ranks; step++) {
            Rank next = (root + step) % num_ranks;
            c = c.copy(next, BufferKind::Output, j);
        }
    }
    return prog;
}

std::unique_ptr<Program>
makeBinomialBroadcast(int num_ranks, Rank root, const AlgoConfig &config)
{
    auto coll =
        std::make_shared<BroadcastCollective>(num_ranks, 1, root);
    checkAlgoConfig("binomial broadcast", config,
                    algoEntry("binomial_broadcast").knobs);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("binomial_broadcast", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    prog->chunk(root, BufferKind::Input, 0)
        .copy(root, BufferKind::Output, 0);
    for (int d = 1; d < num_ranks; d *= 2) {
        for (int v = 0; v < d && v + d < num_ranks; v++) {
            Rank src = (root + v) % num_ranks;
            Rank dst = (root + v + d) % num_ranks;
            prog->chunk(src, BufferKind::Output, 0)
                .copy(dst, BufferKind::Output, 0);
        }
    }
    return prog;
}

std::unique_ptr<Program>
makeHierarchicalAllGather(int num_nodes, int gpus_per_node,
                          const AlgoConfig &config)
{
    int R = num_nodes * gpus_per_node;
    auto coll = std::make_shared<AllGatherCollective>(R, 1);
    checkAlgoConfig("hierarchical allgather", config,
                    algoEntry("hierarchical_allgather").knobs);
    // Groups of s consecutive ranks are the virtual nodes: s =
    // gpus_per_node swaps whole physical-node blocks, smaller
    // divisors swap smaller blocks between more groups.
    int s = hierGroupSize("hierarchical allgather", gpus_per_node,
                          config);
    int V = R / s;
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("hierarchical_allgather", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    // Phase 1 (channel 0): intra-group ring AllGather assembles each
    // group's block in every member's output buffer.
    for (int v = 0; v < V; v++) {
        for (int i = 0; i < s; i++) {
            Rank r = v * s + i;
            ChunkRef c = prog->chunk(r, BufferKind::Input, 0)
                             .copy(r, BufferKind::Output, r);
            for (int step = 1; step < s; step++) {
                Rank next = v * s + (i + step) % s;
                c = c.copy(next, BufferKind::Output, r,
                           OpOptions{ 0 });
            }
        }
    }
    // Phase 2 (channel 1): groups swap whole blocks, one aggregated
    // message per (group pair, local index), so every IB NIC carries
    // whole-block transfers.
    for (int v = 0; v < V; v++) {
        for (int g = 0; g < s; g++) {
            for (int w = 0; w < V; w++) {
                if (w == v)
                    continue;
                prog->chunk(v * s + g, BufferKind::Output, v * s, s)
                    .copy(w * s + g, BufferKind::Output, v * s,
                          OpOptions{ 1 });
            }
        }
    }
    return prog;
}

} // namespace mscclang
