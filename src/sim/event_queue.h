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
 * Producers (conservative batches, DESIGN.md §11, §13): a component
 * that batches its own same-instant work registers as a *producer*
 * instead of scheduling callbacks. A producer keeps at most one due
 * instant in the queue — the flow network (producer 0) the earliest
 * instant any of its shards is due, each interpreter execution its
 * earliest pending instant — and moves it with setDue / clearDue.
 * Due producers live in an indexed min-heap keyed (when, producer
 * id), so a move is a sift in place: producers take no callback
 * slot, get no EventId and leave no tombstone. When a producer's
 * instant comes up the queue clears it and calls the producer's
 * runner, which handles everything it has due then and publishes
 * its next instant. Three rules make the order deterministic:
 * equal instants run in producer-id order (ids are registration
 * order and never recycled); a serial event and a producer due at
 * the same instant run in the order of their *stamps*, drawn from
 * the one counter that also sequences serial events; and a
 * producer's stamp is fresh whenever its instant changes (setDue to
 * the instant it already holds keeps the old stamp, and a producer
 * may publish an explicit stamp of its own).
 */

#ifndef MSCCLANG_SIM_EVENT_QUEUE_H_
#define MSCCLANG_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/indexed_heap.h"

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
 * The event queue. Single-threaded: events, producer runs and their
 * callbacks all run on the caller of run(). Callbacks and runners
 * may schedule more events and move any producer's due instant.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Runs a producer's work due at now(). */
    using ProducerRunner = std::function<void()>;

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
     * Registers a producer and returns its id: registration order,
     * never recycled. At equal instants lower ids run first (the
     * flow network, registered first, settles before the
     * interpreter steps).
     */
    int addProducer(ProducerRunner runner);

    /**
     * Draws the next stamp from the counter that sequences serial
     * events, for producers that publish stamps of their own.
     */
    std::uint64_t stamp() { return nextSeq_++; }

    /**
     * Makes producer @p id due at @p when (>= now). A producer
     * already due at @p when keeps its stamp; otherwise it gets a
     * fresh one.
     */
    void setDue(int id, TimeNs when);

    /** Makes producer @p id due at @p when with stamp @p stamp. */
    void setDue(int id, TimeNs when, std::uint64_t stamp);

    /** Drops producer @p id's due instant, if it has one. */
    void clearDue(int id);

    /** Installs wall-clock phase accounting (null disables). */
    void setProfile(SimProfile *profile) { profile_ = profile; }

    /** Cancels a pending event; cancelling a fired event is a no-op. */
    void cancel(EventId id);

    /** True if no live event and no due producer remains. */
    bool empty() const { return liveEvents_ == 0 && due_.empty(); }

    /**
     * Runs the earliest serial event or due producer. Returns false
     * when empty.
     */
    bool runOne();

    /** Runs until the queue is drained. Returns final time. */
    TimeNs run();

    /** Serial events plus producer runs executed so far. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Allocated callback-arena slots (diagnostics). Bounded by the
     * peak number of simultaneously pending serial events.
     */
    std::size_t poolSlots() const { return slots_.size(); }

    /**
     * Heap entries: serial events including cancellation tombstones,
     * plus due producers (diagnostics). Compaction keeps the serial
     * part within a constant factor of the live event count.
     */
    std::size_t heapEntries() const
    {
        return heap_.size() + due_.size();
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

    /** One pooled callback slot. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 0;
        bool live = false;
    };

    struct Producer
    {
        ProducerRunner runner;
        /** Orders the producer against same-instant serial events. */
        std::uint64_t stamp = 0;
    };

    bool
    dead(const Entry &entry) const
    {
        const Slot &slot = slots_[entry.slot];
        return !slot.live || slot.gen != entry.gen;
    }

    /** Allocates a slot (from the free list or fresh). */
    std::uint32_t allocSlot();

    /** Frees a slot's callback storage and recycles the slot. */
    void releaseSlot(std::uint32_t index);

    /** Drops dead entries when tombstones dominate the heap. */
    void compact();

    /** Discards dead entries at the top of the heap. */
    void purgeTop();

    /** Validates a producer id and a due instant. */
    void checkDue(int id, TimeNs when) const;

    TimeNs now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
    std::size_t liveEvents_ = 0;
    std::size_t deadInHeap_ = 0;
    std::vector<Entry> heap_; // min-heap by (when, seq)
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    /** A deque: a runner may register producers while it runs. */
    std::deque<Producer> producers_;
    IndexedHeap due_; // due producers by (when, id)
    SimProfile *profile_ = nullptr;
};

} // namespace mscclang

#endif // MSCCLANG_SIM_EVENT_QUEUE_H_
