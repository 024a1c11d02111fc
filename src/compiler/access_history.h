/**
 * @file
 * The per-location access history behind the compiler's
 * last-writer walks: lowering (lower.cpp) adds a processing edge from
 * every still-visible earlier access of a chunk, the chunk DAG
 * (chunk_dag.cpp) does the same per traced operation, and the race
 * check (verifier.cpp) proves every access ordered after those same
 * entries. All key locations by (rank, buffer, chunk) and describe
 * sub-chunk byte ranges by split index and count, so the dependence
 * classes and the integer split-fraction tests live here too.
 */

#ifndef MSCCLANG_COMPILER_ACCESS_HISTORY_H_
#define MSCCLANG_COMPILER_ACCESS_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dsl/program.h"

namespace mscclang {

/** Dependence classes between accesses of one location. */
enum class DepKind {
    True,   ///< read-after-write: chunk movement
    Anti,   ///< write-after-read: buffer index reuse
    Output, ///< write-after-write: buffer index reuse
};

inline const char *
depKindName(DepKind kind)
{
    switch (kind) {
      case DepKind::True: return "true";
      case DepKind::Anti: return "anti";
      case DepKind::Output: return "output";
    }
    return "?";
}

/** Whether split fractions (a of n) and (b of m) overlap. */
inline bool
splitsOverlap(std::int64_t a, std::int64_t n, std::int64_t b,
              std::int64_t m)
{
    return a * m < (b + 1) * n && b * n < (a + 1) * m;
}

/** Whether split fraction (a of n) contains fraction (b of m). */
inline bool
splitCovers(std::int64_t a, std::int64_t n, std::int64_t b,
            std::int64_t m)
{
    return a * m <= b * n && (b + 1) * n <= (a + 1) * m;
}

/**
 * Per-chunk access history, laid out flat so that recording an
 * access allocates nothing beyond amortized growth of two arrays.
 *
 * Every (rank, buffer, chunk) location owns one slot in heads_, the
 * newest entry of an intrusive singly linked list threaded through
 * pool_ (newest first). The slot offsets come from per-(rank,
 * buffer) chunk counts, computed once. A whole-range write shadows
 * everything older — it conflicts with every older entry, so once it
 * is ordered after them, so is anything ordered after it — and it
 * resets the location's list to itself, recycling the old entries
 * through a free list. A list is therefore "last writer + the
 * readers and partial (split) writes since".
 */
class AccessHistory
{
  public:
    /** One recorded access: the node, its split fraction and kind. */
    struct Entry
    {
        int node;
        int next; // older entry of the same location, or -1
        int splitIdx;
        int splitCount;
        bool isWrite;
    };

    /**
     * @param counts chunk count of every (rank, buffer), rank-major:
     *        counts[rank * 3 + buffer]. A buffer aliased to another
     *        (Output of an in-place collective) gets count 0.
     */
    explicit AccessHistory(const std::vector<int> &counts)
    {
        base_.resize(counts.size());
        size_t total = 0;
        for (size_t i = 0; i < counts.size(); i++) {
            base_[i] = total;
            total += static_cast<size_t>(counts[i]);
        }
        heads_.assign(total, -1);
    }

    /** Newest entry of chunk @p index of (rank, buffer), or -1. */
    int
    head(Rank rank, BufferKind buffer, int index) const
    {
        return heads_[slot(rank, buffer, index)];
    }

    const Entry &entry(int e) const { return pool_[e]; }

    /** Appends an access as the location's newest entry. */
    void
    record(Rank rank, BufferKind buffer, int index, int node,
           int split_idx, int split_count, bool is_write)
    {
        int &head = heads_[slot(rank, buffer, index)];
        int next = head;
        if (is_write && split_count == 1) {
            // Shadows every older entry: recycle the whole list.
            for (int e = head; e >= 0;) {
                int older = pool_[e].next;
                pool_[e].next = free_;
                free_ = e;
                e = older;
            }
            next = -1;
        }
        Entry fresh{ node, next, split_idx, split_count, is_write };
        if (free_ >= 0) {
            int e = free_;
            free_ = pool_[e].next;
            pool_[e] = fresh;
            head = e;
        } else {
            head = static_cast<int>(pool_.size());
            pool_.push_back(fresh);
        }
    }

  private:
    size_t
    slot(Rank rank, BufferKind buffer, int index) const
    {
        return base_[static_cast<size_t>(rank) * 3 +
                     static_cast<size_t>(buffer)] +
            static_cast<size_t>(index);
    }

    std::vector<size_t> base_; // first slot of each (rank, buffer)
    std::vector<int> heads_;
    std::vector<Entry> pool_;
    int free_ = -1;
};

/**
 * Per-(rank, buffer) chunk counts of @p program in AccessHistory's
 * layout; an in-place program folds Output into Input.
 */
inline std::vector<int>
chunkCounts(const Program &program)
{
    const Collective &coll = program.collective();
    std::vector<int> counts;
    counts.reserve(static_cast<size_t>(program.numRanks()) * 3);
    for (Rank r = 0; r < program.numRanks(); r++) {
        counts.push_back(coll.inputChunkCount(r));
        counts.push_back(coll.inPlace() ? 0 : coll.outputChunkCount(r));
        counts.push_back(program.scratchChunkCount(r));
    }
    return counts;
}

} // namespace mscclang

#endif // MSCCLANG_COMPILER_ACCESS_HISTORY_H_
