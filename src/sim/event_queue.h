/**
 * @file
 * A minimal discrete-event simulation engine: an ordered queue of
 * (time, callback) events with cancellation, driving the runtime
 * interpreter and the flow-level network model. Time is in integer
 * nanoseconds for determinism.
 *
 * Storage layout (hot path): the binary heap holds 24-byte POD
 * entries ordered by (time, schedule sequence) — the sequence keeps
 * same-time events FIFO — while callbacks live in a pooled slot
 * arena addressed by the entries. Cancellation is O(1) via slot
 * generations: cancelling bumps the slot's generation, releases the
 * callback's storage immediately, and returns the slot to the free
 * list; the stale heap entry is discarded lazily when popped (or by
 * compaction when tombstones dominate the heap). Live storage is
 * therefore bounded by the peak number of concurrently pending
 * events, no matter how many schedule/cancel cycles a long run does.
 * A slot whose generation counter would wrap is retired with an
 * error instead of silently recycling — a wrapped generation would
 * let a stale EventId cancel an unrelated event (ABA).
 *
 * Sharded events (conservative batches, DESIGN.md §11, §13): a
 * producer that batches its own same-instant work schedules *shard
 * events* instead of callbacks — the flow network one per
 * coupled-flow component, each interpreter execution exactly one,
 * at its earliest pending instant (it buckets its per-rank actions
 * itself). Each producer registers a *domain* (a batch runner);
 * shard events live in their own heap, ordered by the deterministic
 * merge key (time, domain, shard, sequence), and are drained in
 * batches: when the earliest pending event is a shard event at time
 * T, every shard event at exactly (T, domain) is popped as one batch
 * and handed to that domain's runner, which advances each shard on
 * its own state before merging cross-shard effects in batch order:
 * same-instant shards of one domain are independent by construction
 * (any cross-shard influence needs an ordinary event or a merge-phase
 * restage, and none can exist between equal timestamps). Batching
 * amortizes heap traffic; the batch order fixes the deterministic
 * event order the simulated results depend on. Ordinary events interleave with shard
 * events by (time, sequence) against the front of the shard heap, so
 * a serial event scheduled before a same-time shard batch still runs
 * first.
 */

#ifndef MSCCLANG_SIM_EVENT_QUEUE_H_
#define MSCCLANG_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace mscclang {

struct SimProfile;

/** Simulated time in nanoseconds. */
using TimeNs = std::int64_t;

/** Converts microseconds to simulated time. */
constexpr TimeNs
usToNs(double us)
{
    return static_cast<TimeNs>(us * 1000.0 + 0.5);
}

/**
 * Identifier of a scheduled event, usable for cancellation. Encodes
 * (arena slot, generation); 0 is never a valid id.
 */
using EventId = std::uint64_t;

/**
 * The event queue. Single-threaded: events, shard batches and their
 * callbacks all run on the caller of run(). Callbacks may schedule
 * more events.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Handles one batch of same-time shard events (shard ids). */
    using ShardBatchRunner =
        std::function<void(const std::vector<int> &)>;

    /** Current simulated time. */
    TimeNs now() const { return now_; }

    /** Schedules @p cb at absolute time @p when (>= now). */
    EventId schedule(TimeNs when, Callback cb);

    /** Schedules @p cb @p delay after now. */
    EventId scheduleAfter(TimeNs delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedules a shard event for @p shard of @p domain at @p when.
     * Requires the domain's batch runner to be installed
     * (setShardBatchRunner / addShardDomain). The producer should
     * keep at most one pending shard event per shard (cancel +
     * reschedule to move it); the batch extraction assumes same-time
     * shard events of one domain name distinct shards.
     */
    EventId scheduleShard(TimeNs when, int shard, int domain = 0);

    /** Installs the executor for domain-0 shard-event batches. */
    void setShardBatchRunner(ShardBatchRunner runner)
    {
        if (shardRunners_.empty())
            shardRunners_.push_back(std::move(runner));
        else
            shardRunners_[0] = std::move(runner);
    }

    /**
     * Registers a new shard domain and returns its id. Domains
     * partition shard events by producer: batches never mix domains,
     * and at equal timestamps lower domains drain first (the flow
     * network, domain 0, settles before the interpreter steps).
     */
    int addShardDomain(ShardBatchRunner runner)
    {
        if (shardRunners_.empty())
            shardRunners_.emplace_back(); // reserve domain 0
        shardRunners_.push_back(std::move(runner));
        return static_cast<int>(shardRunners_.size()) - 1;
    }

    /** Installs wall-clock phase accounting (null disables). */
    void setProfile(SimProfile *profile) { profile_ = profile; }

    /** Cancels a pending event; cancelling a fired event is a no-op. */
    void cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /**
     * Pops and runs the earliest event — or, when that event is a
     * shard event, the whole batch of shard events sharing its
     * timestamp. Returns false when empty.
     */
    bool runOne();

    /** Runs until the queue is drained. Returns final time. */
    TimeNs run();

    /** Number of events executed so far (diagnostics). */
    std::uint64_t executed() const { return executed_; }

    /** Shard-event batches executed so far (diagnostics). */
    std::uint64_t shardBatches() const { return shardBatches_; }

    /**
     * Allocated callback-arena slots (diagnostics). Bounded by the
     * peak number of simultaneously pending events.
     */
    std::size_t poolSlots() const { return slots_.size(); }

    /**
     * Heap entries including cancellation tombstones (diagnostics).
     * Compaction keeps this within a constant factor of the live
     * event count.
     */
    std::size_t heapEntries() const
    {
        return heap_.size() + shardHeap_.size();
    }

  private:
    /** POD heap entry; the callback lives in slots_[slot]. */
    struct Entry
    {
        TimeNs when;
        std::uint64_t seq; // schedule order, FIFO tie-break
        std::uint32_t slot;
        std::uint32_t gen;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    /** Shard-heap entry, ordered by (when, domain, shard, seq). */
    struct ShardEntry
    {
        TimeNs when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
        int shard;
        int domain;

        bool
        operator>(const ShardEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (domain != other.domain)
                return domain > other.domain;
            if (shard != other.shard)
                return shard > other.shard;
            return seq > other.seq;
        }
    };

    /** One pooled callback slot. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 0;
        bool live = false;
        /** Shard id for shard events, -1 for callback events. */
        int shard = -1;
    };

    template <typename E>
    bool
    dead(const E &entry) const
    {
        const Slot &slot = slots_[entry.slot];
        return !slot.live || slot.gen != entry.gen;
    }

    /** Allocates a slot (from the free list or fresh). */
    std::uint32_t allocSlot();

    /** Frees a slot's callback storage and recycles the slot. */
    void releaseSlot(std::uint32_t index);

    /** Drops dead entries when tombstones dominate a heap. */
    void compactSerial();
    void compactShard();

    /** Discards dead entries at the top of each heap. */
    void purgeTops();

    TimeNs now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t shardBatches_ = 0;
    std::size_t liveEvents_ = 0;
    std::size_t deadInHeap_ = 0;
    std::size_t deadInShardHeap_ = 0;
    std::vector<Entry> heap_;           // min-heap by (when, seq)
    std::vector<ShardEntry> shardHeap_; // min-heap by (when, shard, seq)
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<int> batchScratch_;
    std::vector<ShardBatchRunner> shardRunners_; // indexed by domain
    SimProfile *profile_ = nullptr;
};

} // namespace mscclang

#endif // MSCCLANG_SIM_EVENT_QUEUE_H_
