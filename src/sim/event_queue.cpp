#include "sim/event_queue.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "sim/profile.h"

namespace mscclang {

namespace {

/** Tombstone count below which compaction is never worth it. */
constexpr std::size_t kCompactFloor = 64;

} // namespace

std::uint32_t
EventQueue::allocSlot()
{
    if (!freeSlots_.empty()) {
        std::uint32_t index = freeSlots_.back();
        freeSlots_.pop_back();
        return index;
    }
    std::uint32_t index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    return index;
}

EventId
EventQueue::schedule(TimeNs when, Callback cb)
{
    if (when < now_)
        throw RuntimeError("EventQueue: scheduling into the past");

    std::uint32_t index = allocSlot();
    Slot &slot = slots_[index];
    slot.cb = std::move(cb);
    slot.live = true;

    heap_.push_back(Entry{ when, nextSeq_++, index, slot.gen });
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    liveEvents_++;
    // EventId 0 is reserved as "none": slot is offset by one.
    return (static_cast<EventId>(slot.gen) << 32) |
        static_cast<EventId>(index + 1);
}

void
EventQueue::releaseSlot(std::uint32_t index)
{
    Slot &slot = slots_[index];
    slot.cb = nullptr; // drop captured state now, not at pop time
    slot.live = false;
    // The generation is the ABA guard: a recycled slot must never be
    // addressable through a stale EventId. Rather than silently
    // wrapping to a generation an ancient id might still carry,
    // refuse — no real schedule/cancel churn reaches 2^32 cycles on
    // one slot without this being a bug.
    if (slot.gen == std::numeric_limits<std::uint32_t>::max())
        throw RuntimeError(
            "EventQueue: slot generation overflow (ABA guard)");
    slot.gen++;
    freeSlots_.push_back(index);
}

void
EventQueue::cancel(EventId id)
{
    std::uint32_t index = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (index == 0 || index > slots_.size())
        return;
    index--;
    Slot &slot = slots_[index];
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (!slot.live || slot.gen != gen)
        return; // already fired or already cancelled
    releaseSlot(index);
    liveEvents_--;
    deadInHeap_++;
    if (deadInHeap_ > kCompactFloor && deadInHeap_ * 2 > heap_.size())
        compact();
}

int
EventQueue::addProducer(ProducerRunner runner)
{
    if (!runner)
        throw RuntimeError("EventQueue: empty producer runner");
    producers_.push_back(Producer{ std::move(runner), 0 });
    return static_cast<int>(producers_.size()) - 1;
}

void
EventQueue::checkDue(int id, TimeNs when) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= producers_.size())
        throw RuntimeError("EventQueue: unknown producer");
    if (when < now_)
        throw RuntimeError("EventQueue: producer due in the past");
}

void
EventQueue::setDue(int id, TimeNs when)
{
    checkDue(id, when);
    if (due_.contains(id) && due_.when(id) == when)
        return; // same instant: the stamp stays
    producers_[id].stamp = nextSeq_++;
    due_.set(id, when);
}

void
EventQueue::setDue(int id, TimeNs when, std::uint64_t stamp)
{
    checkDue(id, when);
    producers_[id].stamp = stamp;
    due_.set(id, when);
}

void
EventQueue::clearDue(int id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= producers_.size())
        throw RuntimeError("EventQueue: unknown producer");
    due_.erase(id);
}

void
EventQueue::compact()
{
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry &entry) {
                                   return dead(entry);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    deadInHeap_ = 0;
}

void
EventQueue::purgeTop()
{
    while (!heap_.empty() && dead(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        deadInHeap_--;
    }
}

bool
EventQueue::runOne()
{
    purgeTop();
    if (heap_.empty() && due_.empty())
        return false;

    // A serial event and a producer due at the same instant run in
    // stamp order: the global schedule order, FIFO across both.
    bool serial;
    if (due_.empty()) {
        serial = true;
    } else if (heap_.empty()) {
        serial = false;
    } else {
        const Entry &s = heap_.front();
        TimeNs due = due_.topWhen();
        serial = s.when != due
            ? s.when < due
            : s.seq < producers_[due_.topId()].stamp;
    }

    SimProfileTimer timer(profile_ ? &profile_->eventQueueNs
                                   : nullptr);
    if (serial) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        Entry entry = heap_.back();
        heap_.pop_back();
        Callback cb = std::move(slots_[entry.slot].cb);
        releaseSlot(entry.slot);
        now_ = entry.when;
        liveEvents_--;
        executed_++;
        if (profile_)
            profile_->serialEvents++;
        cb();
        return true;
    }

    // The producer's due is consumed before it runs; the runner
    // publishes its next instant. It attributes its own phase time:
    // only the dispatch counts against the event queue.
    now_ = due_.topWhen();
    int id = due_.pop();
    executed_++;
    timer.stop();
    producers_[id].runner();
    return true;
}

TimeNs
EventQueue::run()
{
    while (runOne()) {
    }
    return now_;
}

} // namespace mscclang
