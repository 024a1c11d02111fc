#include "collectives/collectives.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "collectives/catalog.h"
#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

namespace {

/**
 * Ring ReduceScatter helper (paper Figure 3b): chunk block r of the
 * ring ends fully reduced on ranks[r]. @p channel_of picks the
 * channel directive for block r's chain.
 */
template <typename ChannelOf>
void
ringReduceScatter(Program &prog, const std::vector<Rank> &ranks,
                  int offset, int count, ChannelOf channel_of)
{
    int R = static_cast<int>(ranks.size());
    for (int r = 0; r < R; r++) {
        int index = offset + r * count;
        ChunkRef c = prog.chunk(ranks[(r + 1) % R], BufferKind::Input,
                                index, count);
        for (int step = 1; step < R; step++) {
            Rank next = ranks[(step + r + 1) % R];
            c = prog.chunk(next, BufferKind::Input, index, count)
                    .reduce(c, OpOptions{ channel_of(r) });
        }
    }
}

/** Ring AllGather helper (paper Figure 3b), in the input buffer. */
template <typename ChannelOf>
void
ringAllGather(Program &prog, const std::vector<Rank> &ranks, int offset,
              int count, ChannelOf channel_of)
{
    int R = static_cast<int>(ranks.size());
    for (int r = 0; r < R; r++) {
        int index = offset + r * count;
        ChunkRef c = prog.chunk(ranks[r], BufferKind::Input, index,
                                count);
        for (int step = 1; step < R; step++) {
            Rank next = ranks[(step + r) % R];
            c = c.copy(next, BufferKind::Input, index,
                       OpOptions{ channel_of(r) });
        }
    }
}

/** Ranks 0..n-1 in index order: the plain ring (empty for n < 1). */
std::vector<Rank>
indexOrder(int n)
{
    std::vector<Rank> ranks(std::max(n, 0));
    std::iota(ranks.begin(), ranks.end(), 0);
    return ranks;
}

/**
 * The one Ring AllReduce body: a ReduceScatter then an AllGather
 * around @p order, the ring of all @p R ranks, chunk block r on
 * channel r % @p channels, as a program named @p name (plus the
 * config's knob suffixes). @p R is passed on its own so the
 * collective rejects a bad count in its own words.
 */
std::unique_ptr<Program>
ringAllReduce(int R, const std::vector<Rank> &order, int channels,
              const AlgoConfig &config, const std::string &name)
{
    int agg = config.aggregate;
    auto coll = std::make_shared<AllReduceCollective>(R, R * agg);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions(name, config));
    auto channel_of = [channels](int block) { return block % channels; };
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    ringReduceScatter(*prog, order, 0, agg, channel_of);
    ringAllGather(*prog, order, 0, agg, channel_of);
    return prog;
}

/**
 * The one Ring AllGather body (non-in-place), as ringAllReduce's:
 * each rank's block travels around @p order into every output
 * buffer, the block of order[i] on channel i % @p channels.
 */
std::unique_ptr<Program>
ringAllGatherOut(int R, const std::vector<Rank> &order, int channels,
                 const AlgoConfig &config, const std::string &name)
{
    int agg = config.aggregate;
    auto coll = std::make_shared<AllGatherCollective>(R, agg);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions(name, config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    for (int i = 0; i < R; i++) {
        Rank owner = order[i];
        ChunkRef c = prog->chunk(owner, BufferKind::Input, 0, agg)
                         .copy(owner, BufferKind::Output, owner * agg);
        for (int step = 1; step < R; step++) {
            Rank next = order[(i + step) % R];
            c = c.copy(next, BufferKind::Output, owner * agg,
                       OpOptions{ i % channels });
        }
    }
    return prog;
}

} // namespace

void
checkAlgoConfig(const char *what, const AlgoConfig &config,
                const AlgoKnobs &knobs)
{
    if (config.instances < 1 || config.parallelize < 1 ||
        config.aggregate < 1) {
        throw Error(strprintf(
            "%s: instances, parallelize and aggregate must be >= 1",
            what));
    }
    if (config.hierSplit < 0)
        throw Error(strprintf("%s: hierSplit must be >= 0", what));
    if (!knobs.aggregate && config.aggregate != 1) {
        throw Error(strprintf(
            "%s: send aggregation (aggregate=%d) is not supported by "
            "this builder", what, config.aggregate));
    }
    if (!knobs.hierSplit && config.hierSplit != 0) {
        throw Error(strprintf(
            "%s: the hierarchy split (hierSplit=%d) is not supported "
            "by this builder", what, config.hierSplit));
    }
}

std::string
algoKnobName(std::string name, const AlgoConfig &config)
{
    if (config.parallelize > 1)
        name += strprintf("_p%d", config.parallelize);
    if (config.aggregate > 1)
        name += strprintf("_a%d", config.aggregate);
    if (config.hierSplit > 0)
        name += strprintf("_h%d", config.hierSplit);
    return name;
}

ProgramOptions
algoProgramOptions(std::string name, const AlgoConfig &config)
{
    ProgramOptions options;
    options.name = algoKnobName(std::move(name), config);
    options.protocol = config.protocol;
    options.instances = config.instances;
    options.reduceOp = config.reduceOp;
    return options;
}

void
buildRingReduceScatter(Program &program, const std::vector<Rank> &ranks,
                       int offset, int count, int channel)
{
    ringReduceScatter(program, ranks, offset, count,
                      [channel](int) { return channel; });
}

void
buildRingAllGather(Program &program, const std::vector<Rank> &ranks,
                   int offset, int count, int channel)
{
    ringAllGather(program, ranks, offset, count,
                  [channel](int) { return channel; });
}

std::unique_ptr<Program>
makeRingAllReduce(int num_ranks, int channels, const AlgoConfig &config)
{
    if (channels < 1)
        throw Error("ring allreduce: channels must be >= 1");
    checkAlgoConfig("ring allreduce", config,
                    algoEntry("ring_allreduce").knobs);
    return ringAllReduce(num_ranks, indexOrder(num_ranks), channels,
                         config,
                         strprintf("ring_allreduce_ch%d", channels));
}

std::unique_ptr<Program>
makeRingAllReduceOutOfPlace(int num_ranks, int channels,
                            const AlgoConfig &config)
{
    if (channels < 1)
        throw Error("ring allreduce: channels must be >= 1");
    checkAlgoConfig("ring allreduce oop", config, { .aggregate = true });
    int agg = config.aggregate;
    auto coll = std::make_shared<AllReduceCollective>(
        num_ranks, num_ranks * agg, /*in_place=*/false);
    auto prog = std::make_unique<Program>(
        coll,
        algoProgramOptions(
            strprintf("ring_allreduce_oop_ch%d", channels), config));
    auto channel_of = [channels](int block) { return block % channels; };
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    ringReduceScatter(*prog, indexOrder(num_ranks), 0, agg, channel_of);
    // AllGather into the distinct output buffer.
    for (int r = 0; r < num_ranks; r++) {
        ChunkRef c = prog->chunk(r, BufferKind::Input, r * agg, agg)
                         .copy(r, BufferKind::Output, r * agg);
        for (int step = 1; step < num_ranks; step++) {
            Rank next = (r + step) % num_ranks;
            c = c.copy(next, BufferKind::Output, r * agg,
                       OpOptions{ channel_of(r) });
        }
    }
    return prog;
}

std::unique_ptr<Program>
makeAllPairsAllReduce(int num_ranks, const AlgoConfig &config)
{
    checkAlgoConfig("allpairs allreduce", config,
                    algoEntry("allpairs_allreduce").knobs);
    auto coll = std::make_shared<AllReduceCollective>(num_ranks,
                                                      num_ranks);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("allpairs_allreduce", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    for (Rank r = 0; r < num_ranks; r++) {
        // Step 1: gather chunk r from every peer into scratch.
        for (Rank q = 0; q < num_ranks; q++) {
            if (q == r)
                continue;
            prog->chunk(q, BufferKind::Input, r)
                .copy(r, BufferKind::Scratch, q);
        }
        // Local sum.
        ChunkRef sum = prog->chunk(r, BufferKind::Input, r);
        for (Rank q = 0; q < num_ranks; q++) {
            if (q == r)
                continue;
            sum = sum.reduce(prog->chunk(r, BufferKind::Scratch, q));
        }
        // Step 2: broadcast the result to every peer.
        for (Rank q = 0; q < num_ranks; q++) {
            if (q == r)
                continue;
            sum.copy(q, BufferKind::Input, r);
        }
    }
    return prog;
}

int
hierGroupSize(const char *what, int gpus_per_node,
              const AlgoConfig &config)
{
    int s = config.hierSplit == 0 ? gpus_per_node : config.hierSplit;
    if (s < 1 || gpus_per_node % s != 0) {
        throw Error(strprintf(
            "%s: hierSplit %d must divide the %d GPUs of a node",
            what, config.hierSplit, gpus_per_node));
    }
    return s;
}

std::unique_ptr<Program>
makeHierarchicalAllReduce(int num_nodes, int gpus_per_node,
                          int intra_parallel, const AlgoConfig &config)
{
    int R = num_nodes * gpus_per_node;
    if (intra_parallel < 1)
        throw Error("hierarchical allreduce: intra_parallel must be >= 1");
    checkAlgoConfig("hierarchical allreduce", config,
                    algoEntry("hierarchical_allreduce").knobs);
    // Groups of s consecutive ranks are the virtual nodes of the
    // hierarchy: s = gpus_per_node is Figure 3 verbatim, s = 1
    // degenerates to one flat ring, and intermediate divisors trade
    // intra-fabric ring length against concurrent inter-group rings.
    int s = hierGroupSize("hierarchical allreduce", gpus_per_node,
                          config);
    int V = R / s;
    auto coll = std::make_shared<AllReduceCollective>(R, R);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("hierarchical_allreduce", config));
    ParallelizeScope outer = prog->parallelize(config.parallelize);

    // Intra-group ReduceScatter (channel 0), chunk-parallelized.
    for (int v = 0; v < V; v++) {
        std::vector<Rank> group(s);
        for (int i = 0; i < s; i++)
            group[i] = i + v * s;
        ParallelizeScope scope = prog->parallelize(intra_parallel);
        ringReduceScatter(*prog, group, 0, V, [](int) { return 0; });
    }
    // Inter-group ReduceScatter + AllGather (channel 1).
    for (int g = 0; g < s; g++) {
        std::vector<Rank> cross(V);
        for (int v = 0; v < V; v++)
            cross[v] = v * s + g;
        ringReduceScatter(*prog, cross, g * V, 1, [](int) { return 1; });
        ringAllGather(*prog, cross, g * V, 1, [](int) { return 1; });
    }
    // Intra-group AllGather (channel 2), chunk-parallelized.
    for (int v = 0; v < V; v++) {
        std::vector<Rank> group(s);
        for (int i = 0; i < s; i++)
            group[i] = i + v * s;
        ParallelizeScope scope = prog->parallelize(intra_parallel);
        ringAllGather(*prog, group, 0, V, [](int) { return 2; });
    }
    return prog;
}

std::unique_ptr<Program>
makeTwoStepAllToAll(int num_nodes, int gpus_per_node,
                    const AlgoConfig &config)
{
    int N = num_nodes, G = gpus_per_node;
    int R = N * G;
    checkAlgoConfig("twostep alltoall", config,
                    algoEntry("twostep_alltoall").knobs);
    auto coll = std::make_shared<AllToAllCollective>(R, 1);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("twostep_alltoall", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    // Figure 9, verbatim.
    for (int n = 0; n < N; n++) {
        for (int g = 0; g < G; g++) {
            for (int m = 0; m < N; m++) {
                for (int i = 0; i < G; i++) {
                    ChunkRef c = prog->chunk(m * G + i,
                                             BufferKind::Input,
                                             n * G + g);
                    if (n == m) {
                        c.copy(n * G + g, BufferKind::Output,
                               m * G + i);
                    } else {
                        c.copy(m * G + g, BufferKind::Scratch,
                               n * G + i);
                    }
                }
                if (n != m) {
                    // Coalesced IB send of G staged chunks.
                    ChunkRef c = prog->chunk(m * G + g,
                                             BufferKind::Scratch,
                                             n * G, G);
                    c.copy(n * G + g, BufferKind::Output, m * G);
                }
            }
        }
    }
    return prog;
}

std::unique_ptr<Program>
makeNaiveAllToAll(int num_ranks, const AlgoConfig &config)
{
    checkAlgoConfig("naive alltoall", config,
                    algoEntry("naive_alltoall").knobs);
    auto coll = std::make_shared<AllToAllCollective>(num_ranks, 1);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("naive_alltoall", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    for (Rank src = 0; src < num_ranks; src++) {
        for (Rank dst = 0; dst < num_ranks; dst++) {
            prog->chunk(src, BufferKind::Input, dst)
                .copy(dst, BufferKind::Output, src);
        }
    }
    return prog;
}

std::unique_ptr<Program>
makeAllToNext(int num_nodes, int gpus_per_node, const AlgoConfig &config)
{
    int N = num_nodes, G = gpus_per_node;
    int R = N * G;
    checkAlgoConfig("alltonext", config,
                    algoEntry("alltonext").knobs);
    auto coll = std::make_shared<AllToNextCollective>(R, G);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("alltonext", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    for (Rank r = 0; r + 1 < R; r++) {
        int n = r / G, g_local = r % G;
        if (g_local != G - 1) {
            // Same node: one direct NVLink copy of the whole buffer.
            prog->chunk(r, BufferKind::Input, 0, G)
                .copy(r + 1, BufferKind::Output, 0);
            continue;
        }
        // Node boundary n -> n+1 (Figure 10): scatter the buffer over
        // the node's GPUs so every IB NIC carries one chunk, then
        // gather on the first GPU of the next node. Scratch index 0
        // stages outgoing chunks, index 1 incoming ones.
        for (int g = 0; g < G; g++) {
            ChunkRef c = prog->chunk(r, BufferKind::Input, g);
            if (g != G - 1)
                c = c.copy(n * G + g, BufferKind::Scratch, 0);
            c = c.copy((n + 1) * G + g, BufferKind::Scratch, 1);
            c.copy((n + 1) * G, BufferKind::Output, g);
        }
    }
    return prog;
}

std::unique_ptr<Program>
makeNaiveAllToNext(int num_nodes, int gpus_per_node,
                   const AlgoConfig &config)
{
    int R = num_nodes * gpus_per_node;
    checkAlgoConfig("naive alltonext", config);
    auto coll = std::make_shared<AllToNextCollective>(R, gpus_per_node);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("naive_alltonext", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    for (Rank r = 0; r + 1 < R; r++) {
        prog->chunk(r, BufferKind::Input, 0, gpus_per_node)
            .copy(r + 1, BufferKind::Output, 0);
    }
    return prog;
}

std::unique_ptr<Program>
makeRingAllGather(int num_ranks, int channels, const AlgoConfig &config)
{
    if (channels < 1)
        throw Error("ring allgather: channels must be >= 1");
    checkAlgoConfig("ring allgather", config,
                    algoEntry("ring_allgather").knobs);
    return ringAllGatherOut(num_ranks, indexOrder(num_ranks), channels,
                            config, "ring_allgather");
}

namespace {

/** @throws Error unless @p order is a permutation of [0, R). */
void
checkRingOrder(const std::vector<Rank> &order, const char *what)
{
    std::vector<Rank> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int r = 0; r < static_cast<int>(sorted.size()); r++) {
        if (sorted[r] != r) {
            throw Error(strprintf(
                "%s: order is not a permutation of 0..%d", what,
                static_cast<int>(order.size()) - 1));
        }
    }
}

/**
 * Backtracking steps findRingOrder may take before it gives up. The
 * hardest reformations of a 2-node machine (a whole NIC dead on
 * generic:2:8) take ~110k steps; a dead boundary NIC on generic:4:8
 * would take hours. The cap keeps a failed search at a fraction of
 * a second.
 */
constexpr long kRingSearchSteps = 1L << 19;

/** Extends order[0..depth) to a full cycle. Candidates on the same
 *  node as the previous hop are tried before cross-node ones
 *  (ascending within each class), so a reformed ring detours around
 *  a dead link locally and only crosses the NIC-limited node
 *  boundary when no same-node path survives. The first solution is
 *  lexicographically smallest under that preference — which on a
 *  healthy machine (and any single-node one) is plain rank order.
 *  Fails once @p steps runs out. */
bool
extendRingOrder(const Topology &topology, std::vector<Rank> &order,
                std::vector<bool> &used, int depth, long &steps)
{
    if (--steps < 0)
        return false;
    int R = topology.numRanks();
    if (depth == R)
        return topology.connected(order[R - 1], order[0]);
    Rank prev = order[depth - 1];
    for (int pass = 0; pass < 2; pass++) {
        for (Rank next = 0; next < R; next++) {
            bool same_node =
                topology.nodeOf(next) == topology.nodeOf(prev);
            if (same_node != (pass == 0))
                continue;
            if (used[next] || !topology.connected(prev, next))
                continue;
            order[depth] = next;
            used[next] = true;
            if (extendRingOrder(topology, order, used, depth + 1, steps))
                return true;
            used[next] = false;
        }
    }
    return false;
}

} // namespace

std::vector<Rank>
findRingOrder(const Topology &topology)
{
    int R = topology.numRanks();
    if (R == 0)
        return {};
    std::vector<Rank> order(R, 0);
    std::vector<bool> used(R, false);
    used[0] = true; // cycles are rotation-invariant: anchor at rank 0
    if (R == 1)
        return order;
    long steps = kRingSearchSteps;
    if (!extendRingOrder(topology, order, used, 1, steps))
        return {};
    return order;
}

std::unique_ptr<Program>
makeRingAllReduceOver(const std::vector<Rank> &order, int channels,
                      const AlgoConfig &config)
{
    if (channels < 1)
        throw Error("ring allreduce: channels must be >= 1");
    checkRingOrder(order, "ring allreduce over");
    checkAlgoConfig("ring allreduce over", config,
                    algoEntry("ring_allreduce").knobs);
    return ringAllReduce(
        static_cast<int>(order.size()), order, channels, config,
        strprintf("ring_allreduce_reformed_ch%d", channels));
}

std::unique_ptr<Program>
makeRingAllGatherOver(const std::vector<Rank> &order, int channels,
                      const AlgoConfig &config)
{
    if (channels < 1)
        throw Error("ring allgather: channels must be >= 1");
    checkRingOrder(order, "ring allgather over");
    checkAlgoConfig("ring allgather over", config,
                    algoEntry("ring_allgather").knobs);
    return ringAllGatherOut(static_cast<int>(order.size()), order,
                            channels, config, "ring_allgather_reformed");
}

std::unique_ptr<Program>
makeSccl122AllGather(const Topology &topology, const AlgoConfig &config)
{
    int R = topology.numRanks();
    checkAlgoConfig("sccl allgather 122", config,
                    algoEntry("sccl_allgather_122").knobs);
    auto coll = std::make_shared<AllGatherCollective>(R, 2);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("sccl_allgather_122", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    auto neighbors = [&](Rank r) {
        std::vector<Rank> out;
        for (Rank q = 0; q < R; q++) {
            if (q != r && topology.connected(r, q))
                out.push_back(q);
        }
        return out;
    };

    // Step 0/1: place locally, then push both chunks to neighbors.
    for (Rank r = 0; r < R; r++) {
        prog->chunk(r, BufferKind::Input, 0, 2)
            .copy(r, BufferKind::Output, 2 * r);
        for (Rank q : neighbors(r)) {
            prog->chunk(r, BufferKind::Input, 0, 2)
                .copy(q, BufferKind::Output, 2 * r);
        }
    }
    // Step 2: relay to non-neighbors through a common neighbor,
    // balancing relay load per link and splitting the two chunks
    // across distinct relays where possible.
    std::map<std::pair<Rank, Rank>, int> link_load;
    for (Rank r = 0; r < R; r++) {
        for (Rank t = 0; t < R; t++) {
            if (t == r || topology.connected(r, t))
                continue;
            std::vector<Rank> common;
            for (Rank q : neighbors(r)) {
                if (topology.connected(q, t))
                    common.push_back(q);
            }
            if (common.empty()) {
                throw Error(strprintf(
                    "sccl allgather: no relay between %d and %d", r, t));
            }
            for (int chunk = 0; chunk < 2; chunk++) {
                Rank best = common[0];
                for (Rank q : common) {
                    if (link_load[{ q, t }] < link_load[{ best, t }])
                        best = q;
                }
                link_load[{ best, t }]++;
                prog->chunk(best, BufferKind::Output, 2 * r + chunk)
                    .copy(t, BufferKind::Output, 2 * r + chunk);
            }
        }
    }
    return prog;
}

} // namespace mscclang
