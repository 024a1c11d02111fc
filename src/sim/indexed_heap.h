/**
 * @file
 * An indexed binary min-heap over small non-negative integer ids,
 * keyed by (instant, id). A position map gives every id at most one
 * entry, so moving an id's instant is a sift in place — no second
 * entry, no tombstone — and removing one is exact. The event queue
 * keeps its due producers in one (DESIGN.md §11); the flow network
 * keeps its due shards in another.
 */

#ifndef MSCCLANG_SIM_INDEXED_HEAP_H_
#define MSCCLANG_SIM_INDEXED_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mscclang {

/** Min-heap of ids ordered by (when, id); one entry per id. */
class IndexedHeap
{
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** True if @p id has an entry. */
    bool
    contains(int id) const
    {
        return static_cast<std::size_t>(id) < pos_.size() &&
            pos_[id] >= 0;
    }

    /** Instant of @p id, which must have an entry. */
    std::int64_t when(int id) const { return heap_[pos_[id]].when; }

    /** The earliest entry; the heap must not be empty. */
    int topId() const { return heap_.front().id; }
    std::int64_t topWhen() const { return heap_.front().when; }

    /** Inserts @p id at @p when, or moves its entry there. */
    void
    set(int id, std::int64_t when)
    {
        if (static_cast<std::size_t>(id) >= pos_.size())
            pos_.resize(static_cast<std::size_t>(id) + 1, -1);
        int at = pos_[id];
        if (at < 0) {
            heap_.push_back(Node{ when, id });
            siftUp(heap_.size() - 1);
            return;
        }
        std::int64_t old = heap_[at].when;
        heap_[at].when = when;
        if (when < old)
            siftUp(static_cast<std::size_t>(at));
        else if (when > old)
            siftDown(static_cast<std::size_t>(at));
    }

    /** Removes @p id's entry; a no-op when it has none. */
    void
    erase(int id)
    {
        if (!contains(id))
            return;
        std::size_t at = static_cast<std::size_t>(pos_[id]);
        pos_[id] = -1;
        Node last = heap_.back();
        heap_.pop_back();
        if (at == heap_.size())
            return;
        place(at, last);
        // The moved node may belong above or below its new slot.
        if (at > 0 && last.before(heap_[(at - 1) / 2]))
            siftUp(at);
        else
            siftDown(at);
    }

    /** Removes and returns the earliest id; must not be empty. */
    int
    pop()
    {
        int id = heap_.front().id;
        erase(id);
        return id;
    }

  private:
    struct Node
    {
        std::int64_t when;
        int id;

        bool
        before(const Node &other) const
        {
            return when != other.when ? when < other.when
                                      : id < other.id;
        }
    };

    void
    place(std::size_t at, const Node &node)
    {
        heap_[at] = node;
        pos_[node.id] = static_cast<int>(at);
    }

    void
    siftUp(std::size_t at)
    {
        Node node = heap_[at];
        while (at > 0) {
            std::size_t parent = (at - 1) / 2;
            if (!node.before(heap_[parent]))
                break;
            place(at, heap_[parent]);
            at = parent;
        }
        place(at, node);
    }

    void
    siftDown(std::size_t at)
    {
        Node node = heap_[at];
        std::size_t n = heap_.size();
        for (;;) {
            std::size_t child = 2 * at + 1;
            if (child >= n)
                break;
            if (child + 1 < n && heap_[child + 1].before(heap_[child]))
                child++;
            if (!heap_[child].before(node))
                break;
            place(at, heap_[child]);
            at = child;
        }
        place(at, node);
    }

    std::vector<Node> heap_;
    /** Heap position per id, -1 when the id has no entry. */
    std::vector<int> pos_;
};

} // namespace mscclang

#endif // MSCCLANG_SIM_INDEXED_HEAP_H_
