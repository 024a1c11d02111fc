#include "dsl/chunk.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

/**
 * Appends the run {(rank+k, index) : k < len} to a run list under
 * construction, keeping the canonical form: runs are emitted in
 * sorted-element order and a new element extends the previous run iff
 * it continues its rank sequence at the same index. Canonicalizing
 * greedily over the sorted multiset makes the encoding unique, so
 * comparing run lists is multiset equality.
 */
void
ChunkValue::appendRun(Rank rank, int index, int len)
{
    PartRun *runs = data();
    if (size_ > 0 && runs[size_ - 1].index == index &&
        runs[size_ - 1].rank + runs[size_ - 1].len == rank) {
        runs[size_ - 1].len += len;
        return;
    }
    if (size_ == capacity_) {
        std::uint32_t grown = 2 * capacity_;
        PartRun *bigger = new PartRun[grown];
        std::copy(runs, runs + size_, bigger);
        if (onHeap())
            delete[] heap_;
        heap_ = bigger;
        capacity_ = grown;
        runs = bigger;
    }
    runs[size_++] = PartRun{ rank, index, len };
}

void
ChunkValue::copyFrom(const ChunkValue &other)
{
    if (other.size_ > kInlineRuns) {
        heap_ = new PartRun[other.size_];
        capacity_ = other.size_;
    }
    size_ = other.size_;
    std::copy(other.data(), other.data() + size_, data());
}

void
ChunkValue::stealFrom(ChunkValue &other)
{
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.onHeap())
        heap_ = other.heap_;
    else
        std::copy(other.inline_, other.inline_ + size_, inline_);
    other.size_ = 0;
    other.capacity_ = kInlineRuns;
}

void
ChunkValue::release()
{
    if (onHeap())
        delete[] heap_;
    size_ = 0;
    capacity_ = kInlineRuns;
}

ChunkValue &
ChunkValue::operator=(const ChunkValue &other)
{
    if (this != &other) {
        release();
        copyFrom(other);
    }
    return *this;
}

ChunkValue &
ChunkValue::operator=(ChunkValue &&other) noexcept
{
    if (this != &other) {
        release();
        stealFrom(other);
    }
    return *this;
}

bool
ChunkValue::operator==(const ChunkValue &other) const
{
    return size_ == other.size_ &&
        std::equal(data(), data() + size_, other.data());
}

ChunkValue
ChunkValue::input(Rank rank, int index)
{
    ChunkValue value;
    value.appendRun(rank, index, 1);
    return value;
}

ChunkValue
ChunkValue::reducedRange(Rank first, int count, int index)
{
    if (count < 1)
        throw Error("ChunkValue: reduction of an empty rank range");
    ChunkValue value;
    value.appendRun(first, index, count);
    return value;
}

ChunkValue
ChunkValue::reductionOf(std::vector<InputChunkId> parts)
{
    if (parts.empty())
        throw Error("ChunkValue: reduction of an empty multiset");
    std::sort(parts.begin(), parts.end());
    ChunkValue value;
    for (const InputChunkId &part : parts)
        value.appendRun(part.rank, part.index, 1);
    return value;
}

ChunkValue
ChunkValue::reduce(const ChunkValue &a, const ChunkValue &b)
{
    if (!a.initialized() || !b.initialized())
        throw Error("ChunkValue: reduce of an uninitialized chunk");
    ChunkValue value;
    // Each operand's run list, read left to right, already yields its
    // elements in sorted order, so this is a two-cursor merge of two
    // sorted sequences — but it advances whole run prefixes at a time
    // instead of single elements, keeping the merge O(runs) for the
    // rank-contiguous values collectives produce.
    std::span<const PartRun> as = a.runs(), bs = b.runs();
    size_t ai = 0, bi = 0;
    int aoff = 0, boff = 0; // elements consumed from the current run
    while (ai < as.size() && bi < bs.size()) {
        const PartRun &ra = as[ai];
        const PartRun &rb = bs[bi];
        InputChunkId ha{ ra.rank + aoff, ra.index };
        InputChunkId hb{ rb.rank + boff, rb.index };
        if (ha <= hb) {
            // Take from a: every remaining element of ra that still
            // sorts <= hb. Elements step by rank, so that is the
            // count up to hb.rank (inclusive when ra.index <= hb
            // breaks the tie).
            int avail = ra.len - aoff;
            int take = avail;
            if (InputChunkId{ ra.rank + ra.len - 1, ra.index } > hb) {
                take = hb.rank - ha.rank;
                if (ra.index <= hb.index)
                    take++;
            }
            value.appendRun(ha.rank, ra.index, take);
            aoff += take;
            if (aoff == ra.len) {
                ai++;
                aoff = 0;
            }
        } else {
            int avail = rb.len - boff;
            int take = avail;
            if (InputChunkId{ rb.rank + rb.len - 1, rb.index } > ha) {
                take = ha.rank - hb.rank;
                if (rb.index <= ha.index)
                    take++;
            }
            value.appendRun(hb.rank, rb.index, take);
            boff += take;
            if (boff == rb.len) {
                bi++;
                boff = 0;
            }
        }
    }
    for (; ai < as.size(); ai++, aoff = 0) {
        const PartRun &ra = as[ai];
        value.appendRun(ra.rank + aoff, ra.index, ra.len - aoff);
    }
    for (; bi < bs.size(); bi++, boff = 0) {
        const PartRun &rb = bs[bi];
        value.appendRun(rb.rank + boff, rb.index, rb.len - boff);
    }
    return value;
}

std::vector<InputChunkId>
ChunkValue::parts() const
{
    std::vector<InputChunkId> out;
    out.reserve(partCount());
    for (const PartRun &run : runs()) {
        for (int k = 0; k < run.len; k++)
            out.push_back(InputChunkId{ run.rank + k, run.index });
    }
    return out;
}

std::size_t
ChunkValue::partCount() const
{
    std::size_t total = 0;
    for (const PartRun &run : runs())
        total += static_cast<std::size_t>(run.len);
    return total;
}

std::string
ChunkValue::toString() const
{
    if (!initialized())
        return "\xe2\x8a\xa5"; // ⊥
    std::string out;
    bool first = true;
    for (const PartRun &run : runs()) {
        for (int k = 0; k < run.len; k++) {
            if (!first)
                out += "+";
            first = false;
            out += strprintf("(%d,%d)", run.rank + k, run.index);
        }
    }
    return out;
}

std::string
BufferSlice::toString() const
{
    if (count == 1)
        return strprintf("r%d.%s[%d]", rank, bufferKindName(buffer), index);
    return strprintf("r%d.%s[%d:%d]", rank, bufferKindName(buffer), index,
                     index + count);
}

} // namespace mscclang
