/**
 * @file
 * Schedule-space search over the simulator. The paper's workflow
 * (§1, §7) has a human enumerate algorithm variants by hand and pick
 * per-size winners from benchmark plots; this layer automates the
 * loop. A candidate generator enumerates schedule points over the
 * DSL factories — algorithm family x channels x parallelize factor x
 * instances x protocol x send-aggregation count — each candidate is
 * compiled through the content-addressed plan cache, costed on the
 * flow-network simulator across a geometric size sweep (independent
 * simulations fanned out over sweep worker threads), dominated
 * points are pruned, and the surviving pareto frontier is emitted as
 * TunedWindow vectors that install directly into a Communicator's
 * window table.
 *
 * Everything here is deterministic: enumeration order is fixed,
 * subsampling uses a seeded RNG, the sweep matrix is bit-identical
 * for any thread count, and ties break on enumeration index — so the
 * same seed and topology always produce byte-identical frontiers.
 */

#ifndef MSCCLANG_SEARCH_SEARCH_H_
#define MSCCLANG_SEARCH_SEARCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collectives/catalog.h"
#include "dsl/program.h"
#include "ir/ir.h"
#include "runtime/tuner.h"
#include "topology/topology.h"

namespace mscclang {

class Communicator;

/** One point in the schedule space. */
struct ScheduleCandidate
{
    /** The algorithm: a searched entry of algoCatalog(). */
    const AlgoEntry *family = nullptr;
    /** Channels the rings spread over (families whose knobs take
     *  channels only). */
    int channels = 1;
    /** Whole-trace chunk-parallelization factor (AlgoConfig). */
    int parallelize = 1;
    /** Program-wide instance factor (the plots' "r"). */
    int instances = 1;
    Protocol protocol = Protocol::Simple;
    /** Chunks aggregated per ring block (families honoring
     *  aggregate only). */
    int aggregate = 1;
    /** Hierarchy split — intra-phase group size in ranks, 0 = whole
     *  node (families honoring hierSplit only; see
     *  AlgoConfig::hierSplit). */
    int hierSplit = 0;

    bool operator==(const ScheduleCandidate &) const = default;
};

/**
 * The human-readable label of a candidate, derived from the spec
 * itself so it can never disagree with the program it names:
 * "Ring ch4 r8 LL128", "Tree r4 LL", "Ring ch2 r4 p2 a2 Simple",
 * "Hierarchical r2 h4 Simple". The family part is the catalogue
 * entry's search label; channels appear only for families whose
 * knobs take channels; the p/a suffixes only when the factor is not
 * 1; the h suffix only for explicit hierarchy splits.
 */
std::string candidateLabel(const ScheduleCandidate &spec);

/**
 * Traces the candidate's program on @p topology with its catalogue
 * entry's build function (ranks, node shape and — for
 * topology-aware families — the machine structure come from it).
 * @throws mscclang::Error when the family cannot run on the topology
 * (e.g. Hierarchical on a single node) or the spec names none.
 */
std::unique_ptr<Program> buildCandidate(const ScheduleCandidate &spec,
                                        const Topology &topology);

/** Search-space definition and sweep/budget knobs. */
struct SearchOptions
{
    /** Knob value lists the generator takes the cross product of.
     *  Families whose knobs lack channels/aggregate pin them to 1
     *  and are emitted once per remaining combination. */
    std::vector<int> channels = { 1, 2, 4 };
    std::vector<int> parallelize = { 1, 2 };
    std::vector<int> instances = { 1, 2, 4, 8 };
    std::vector<Protocol> protocols = { Protocol::LL, Protocol::LL128,
                                        Protocol::Simple };
    std::vector<int> aggregates = { 1, 2 };
    /** Hierarchy splits swept for the families honoring hierSplit
     *  (other families pin 0). Splits that do not divide the node are
     *  skipped at compile time and counted, like any other
     *  incompilable knob combination. */
    std::vector<int> hierSplits = { 0 };

    /** Size sweep (same semantics as TuneOptions). */
    std::uint64_t fromBytes = 1 << 10;
    std::uint64_t toBytes = 64 << 20;
    int maxTilesPerChunk = 16;
    /** Sweep worker threads (0 = one per hardware thread; see
     *  TuneOptions::threads). The frontier is identical for any
     *  thread count. */
    int threads = 0;

    /**
     * Cap on evaluated candidates; 0 = evaluate every enumerated
     * point. When the cap bites, a seeded Fisher-Yates subsample
     * picks which candidates survive, then re-sorts them into
     * enumeration order so downstream tie-breaks stay stable.
     */
    std::size_t maxCandidates = 0;
    /** Seed for the subsample; same seed => same frontier, bytewise. */
    std::uint64_t seed = 0x5eedULL;
};

/** One evaluated candidate and its sweep costs. */
struct CandidateResult
{
    ScheduleCandidate spec;
    std::string label;
    /** Content key the plan cache served this candidate's IR under. */
    std::uint64_t planKey = 0;
    /** Simulated time at each sweep size, microseconds. */
    std::vector<double> timesUs;
    bool onFrontier = false;
};

/** The outcome of one (topology, collective) search. */
struct SearchResult
{
    std::string collective;
    std::string topologyName;
    std::uint64_t seed = 0;
    /** Sweep sizes, bytes per rank. */
    std::vector<std::uint64_t> sizes;
    /** Every evaluated candidate, in enumeration order. */
    std::vector<CandidateResult> evaluated;
    /** Indices into @c evaluated of the pareto-optimal candidates. */
    std::vector<std::size_t> frontier;
    /** Compiled IR of the frontier candidates, renamed to their
     *  labels; windows' candidate indices point into this vector. */
    std::vector<IrProgram> frontierIr;
    /** Per-size winners among the frontier, tiling [0, uint64 max]. */
    std::vector<TunedWindow> windows;
    /** Points the generator enumerated before subsampling. */
    std::size_t enumerated = 0;
    /** Candidates whose compiled plan collided with an earlier
     *  candidate's plan-cache key (same schedule reached through
     *  different knob spellings) and were therefore costed once. */
    std::size_t deduped = 0;
    /** Enumerated points skipped because they cannot trace/compile
     *  on this topology (counted so caps are never silent). */
    std::size_t skipped = 0;
};

/**
 * Enumerates the schedule candidates for @p collective ("allreduce"
 * or "allgather") on @p topology: the catalogue's searched entries
 * for that collective, in catalogue order, filtered by their shape
 * checks (Hierarchical needs multiple nodes, Rabenseifner and
 * recursive doubling need power-of-two ranks), knob lists crossed,
 * channels/aggregate/hierSplit pinned for families whose knobs do
 * not honor them, then the seeded subsample if maxCandidates
 * bites. Deterministic for fixed inputs.
 * @throws mscclang::Error on an unknown collective.
 */
std::vector<ScheduleCandidate> enumerateCandidates(
    const std::string &collective, const Topology &topology,
    const SearchOptions &options = {});

/**
 * The full search: enumerate, compile each candidate through the
 * process-wide plan cache, drop planKey duplicates (keeping the
 * earliest), cost every survivor across the sweep, mark the pareto
 * frontier and build the frontier's tuned windows.
 *
 * Pareto rule: candidate B is dominated when some candidate A is
 * no slower at every sweep size and either strictly faster at one,
 * or equal everywhere with a lower enumeration index (so exact-tie
 * duplicates keep exactly one representative).
 *
 * @throws mscclang::Error / RuntimeError on an unknown collective,
 * an empty candidate space, or a degenerate sweep range.
 */
SearchResult searchSchedules(const Topology &topology,
                             const std::string &collective,
                             const SearchOptions &options = {});

/**
 * Installs the searched windows into @p comm: each frontier program
 * is registered over the byte windows it wins. The communicator then
 * answers every size in [0, uint64 max) with the searched winner.
 * @throws RuntimeError when the result carries an empty frontier or
 * no windows (a search that found nothing must not silently leave
 * the communicator unconfigured).
 */
void installTuned(Communicator &comm, const SearchResult &result);

/**
 * JSON report of the search (sizes, every candidate's label/spec/
 * times, frontier flags, windows). Fixed formatting ("%.3f" for
 * microseconds) so reruns of an identical search are byte-identical.
 */
std::string frontierToJson(const SearchResult &result);

/** CSV of the candidate x size cost matrix, same stability rules. */
std::string frontierToCsv(const SearchResult &result);

/**
 * The hand-written allreduce picks bench/explore_allreduce_algos
 * historically hard-coded, as schedule candidates. Exposed so the
 * bench, the search CLI's --smoke baseline and the acceptance tests
 * all agree on what "hand-tuned" means.
 */
std::vector<ScheduleCandidate> handTunedAllReduceCandidates();

} // namespace mscclang

#endif // MSCCLANG_SEARCH_SEARCH_H_
