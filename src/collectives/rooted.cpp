#include "collectives/rooted.h"

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

namespace {

void
checkRoot(int num_ranks, Rank root)
{
    if (num_ranks < 1)
        throw Error("rooted collective: numRanks must be >= 1");
    if (root < 0 || root >= num_ranks)
        throw Error(strprintf("rooted collective: root %d out of "
                              "range [0, %d)", root, num_ranks));
}

} // namespace

ReduceCollective::ReduceCollective(int num_ranks, int chunk_factor,
                                   Rank root)
    : Collective("reduce", num_ranks, chunk_factor, false), root_(root)
{
    checkRoot(num_ranks, root);
}

int
ReduceCollective::inputChunkCount(Rank) const
{
    return chunkFactor();
}

int
ReduceCollective::outputChunkCount(Rank) const
{
    return chunkFactor();
}

std::optional<ChunkValue>
ReduceCollective::expectedOutput(Rank rank, int index) const
{
    if (rank != root_)
        return std::nullopt; // non-roots' outputs are unconstrained
    std::vector<InputChunkId> parts;
    parts.reserve(numRanks());
    for (Rank r = 0; r < numRanks(); r++)
        parts.push_back(InputChunkId{ r, index });
    return ChunkValue::reductionOf(std::move(parts));
}

GatherCollective::GatherCollective(int num_ranks, int chunk_factor,
                                   Rank root)
    : Collective("gather", num_ranks, chunk_factor, false), root_(root)
{
    checkRoot(num_ranks, root);
}

int
GatherCollective::inputChunkCount(Rank) const
{
    return chunkFactor();
}

int
GatherCollective::outputChunkCount(Rank) const
{
    return numRanks() * chunkFactor();
}

std::optional<ChunkValue>
GatherCollective::expectedOutput(Rank rank, int index) const
{
    if (rank != root_)
        return std::nullopt;
    return ChunkValue::input(index / chunkFactor(),
                             index % chunkFactor());
}

ScatterCollective::ScatterCollective(int num_ranks, int chunk_factor,
                                     Rank root)
    : Collective("scatter", num_ranks, chunk_factor, false), root_(root)
{
    checkRoot(num_ranks, root);
}

int
ScatterCollective::inputChunkCount(Rank) const
{
    // Only the root's input is meaningful, but every rank's buffer
    // has the full shape so algorithms stay uniform.
    return numRanks() * chunkFactor();
}

int
ScatterCollective::outputChunkCount(Rank) const
{
    return chunkFactor();
}

std::optional<ChunkValue>
ScatterCollective::expectedOutput(Rank rank, int index) const
{
    return ChunkValue::input(root_, rank * chunkFactor() + index);
}

std::unique_ptr<Program>
makeBinomialReduce(int num_ranks, Rank root, const AlgoConfig &config)
{
    auto coll =
        std::make_shared<ReduceCollective>(num_ranks, 1, root);
    checkAlgoConfig("binomial reduce", config);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("binomial_reduce", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);

    // Work in scratch relative to the root (rank = (root + v) % R);
    // round d halves the active span by reducing v+d into v.
    int R = num_ranks;
    auto rank_of = [&](int v) { return (root + v) % R; };
    for (Rank r = 0; r < R; r++) {
        prog->chunk(r, BufferKind::Input, 0)
            .copy(r, BufferKind::Scratch, 0);
    }
    int span = 1;
    while (span < R)
        span *= 2;
    for (int d = span / 2; d >= 1; d /= 2) {
        for (int v = 0; v + d < R && v < d; v++) {
            ChunkRef other =
                prog->chunk(rank_of(v + d), BufferKind::Scratch, 0);
            prog->chunk(rank_of(v), BufferKind::Scratch, 0)
                .reduce(other);
        }
    }
    prog->chunk(root, BufferKind::Scratch, 0)
        .copy(root, BufferKind::Output, 0);
    return prog;
}

std::unique_ptr<Program>
makeDirectGather(int num_ranks, Rank root, const AlgoConfig &config)
{
    auto coll =
        std::make_shared<GatherCollective>(num_ranks, 1, root);
    checkAlgoConfig("direct gather", config);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("direct_gather", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    for (Rank r = 0; r < num_ranks; r++) {
        prog->chunk(r, BufferKind::Input, 0)
            .copy(root, BufferKind::Output, r);
    }
    return prog;
}

std::unique_ptr<Program>
makeDirectScatter(int num_ranks, Rank root, const AlgoConfig &config)
{
    auto coll =
        std::make_shared<ScatterCollective>(num_ranks, 1, root);
    checkAlgoConfig("direct scatter", config);
    auto prog = std::make_unique<Program>(
        coll, algoProgramOptions("direct_scatter", config));
    ParallelizeScope scope = prog->parallelize(config.parallelize);
    for (Rank r = 0; r < num_ranks; r++) {
        prog->chunk(root, BufferKind::Input, r)
            .copy(r, BufferKind::Output, 0);
    }
    return prog;
}

} // namespace mscclang
