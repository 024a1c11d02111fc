/**
 * @file
 * The chunk value algebra (paper §3.1): every buffer index on every
 * rank holds either an uninitialized chunk, an input chunk identified
 * by its origin (rank, index), or a reduction chunk identified by the
 * multiset of input chunks that were combined to produce it. The DSL
 * tracks these values while tracing and the verifier re-derives them
 * from compiled MSCCL-IR to check the collective's postcondition.
 */

#ifndef MSCCLANG_DSL_CHUNK_H_
#define MSCCLANG_DSL_CHUNK_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace mscclang {

/** Identity of one input chunk: where it started. */
struct InputChunkId
{
    Rank rank = 0;
    int index = 0;

    auto operator<=>(const InputChunkId &) const = default;
};

/**
 * A run of reduction parts with consecutive ranks and one shared
 * index: the multiset {(rank+k, index) : 0 <= k < len}. Collective
 * sums are almost always rank-contiguous (an AllReduce output is the
 * sum of every rank's chunk i), so run-length encoding keeps values
 * O(1) where the explicit multiset would be O(ranks) — the difference
 * between 8MB and 8GB of abstract state at 1024 ranks.
 */
struct PartRun
{
    Rank rank = 0;
    int index = 0;
    int len = 1;

    auto operator<=>(const PartRun &) const = default;
};

/**
 * An abstract chunk value. Uninitialized is the unit type of the
 * paper; a Data value holds the sorted multiset of input chunks it is
 * the reduction of (a singleton multiset is a plain input chunk).
 * The multiset is stored run-length encoded over consecutive ranks in
 * a canonical form (greedy maximal runs over the sorted multiset), so
 * equality of values is equality of their run lists. Values are small
 * and copied freely: up to kInlineRuns runs live inside the value, and
 * only a longer list moves to the heap.
 */
class ChunkValue
{
  public:
    /** Runs stored inside the value; longer lists use the heap. */
    static constexpr std::uint32_t kInlineRuns = 2;

    /** Constructs the uninitialized value. */
    ChunkValue() noexcept {}
    ChunkValue(const ChunkValue &other) { copyFrom(other); }
    ChunkValue(ChunkValue &&other) noexcept { stealFrom(other); }
    ChunkValue &operator=(const ChunkValue &other);
    ChunkValue &operator=(ChunkValue &&other) noexcept;
    ~ChunkValue() { release(); }

    /** Constructs the pure input chunk (rank, index). */
    static ChunkValue input(Rank rank, int index);

    /** Constructs a reduction value from an explicit multiset. */
    static ChunkValue reductionOf(std::vector<InputChunkId> parts);

    /**
     * Constructs the reduction of input chunk @p index over the
     * @p count consecutive ranks starting at @p first — the shape of
     * every AllReduce/ReduceScatter postcondition — in O(1).
     */
    static ChunkValue reducedRange(Rank first, int count, int index);

    /** Every initialized value has at least one run. */
    bool initialized() const { return size_ != 0; }

    /** The multiset of combined input chunks, expanded (empty if
     *  uninit). O(parts); prefer runs() on hot paths. */
    std::vector<InputChunkId> parts() const;

    /** The canonical run-length encoding of the multiset. */
    std::span<const PartRun> runs() const { return { data(), size_ }; }

    /** Total multiset size, without expanding. */
    std::size_t partCount() const;

    /** True if this is a single un-reduced input chunk. */
    bool isPureInput() const
    {
        return size_ == 1 && data()[0].len == 1;
    }

    /**
     * The reduction of two values. Both must be initialized; reducing
     * with an uninitialized operand is a program error handled by the
     * caller (this function asserts via exception). O(runs), not
     * O(parts): run lists merge without expansion.
     */
    static ChunkValue reduce(const ChunkValue &a, const ChunkValue &b);

    bool operator==(const ChunkValue &other) const;

    /** "⊥", "(2,3)" or "(0,1)+(1,1)+(2,1)" for diagnostics. */
    std::string toString() const;

  private:
    bool onHeap() const { return capacity_ > kInlineRuns; }
    const PartRun *data() const { return onHeap() ? heap_ : inline_; }
    PartRun *data() { return onHeap() ? heap_ : inline_; }

    /** Appends to the canonical run list (see chunk.cpp). */
    void appendRun(Rank rank, int index, int len);
    void copyFrom(const ChunkValue &other);
    void stealFrom(ChunkValue &other);
    void release();

    std::uint32_t size_ = 0; // number of runs; 0 = uninitialized
    std::uint32_t capacity_ = kInlineRuns;
    union
    {
        PartRun *heap_ = nullptr; // when onHeap()
        PartRun inline_[kInlineRuns];
    };
};

/** A reference to `count` contiguous chunk locations in one buffer. */
struct BufferSlice
{
    Rank rank = 0;
    BufferKind buffer = BufferKind::Input;
    int index = 0;
    int count = 1;

    bool operator==(const BufferSlice &) const = default;

    /** True if the two slices name overlapping locations. */
    bool overlaps(const BufferSlice &other) const
    {
        return rank == other.rank && buffer == other.buffer &&
            index < other.index + other.count &&
            other.index < index + count;
    }

    std::string toString() const;
};

} // namespace mscclang

#endif // MSCCLANG_DSL_CHUNK_H_
