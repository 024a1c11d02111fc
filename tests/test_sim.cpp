/**
 * @file
 * Unit tests for the simulation substrate: the discrete-event queue
 * (ordering, same-time FIFO, cancellation, producer due slots), its
 * indexed heap, and the flow-level network model (rate caps, max-min
 * fair sharing, conservation, completion timing).
 */

#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/flow_network.h"
#include "sim/indexed_heap.h"

namespace mscclang {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue events;
    std::vector<int> order;
    events.schedule(30, [&] { order.push_back(3); });
    events.schedule(10, [&] { order.push_back(1); });
    events.schedule(20, [&] { order.push_back(2); });
    events.run();
    EXPECT_EQ(order, (std::vector<int>{ 1, 2, 3 }));
    EXPECT_EQ(events.now(), 30);
    EXPECT_EQ(events.executed(), 3u);
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue events;
    std::vector<int> order;
    for (int i = 0; i < 10; i++)
        events.schedule(5, [&order, i] { order.push_back(i); });
    events.run();
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksScheduleMore)
{
    EventQueue events;
    int fired = 0;
    events.schedule(1, [&] {
        fired++;
        events.scheduleAfter(5, [&] { fired++; });
    });
    events.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(events.now(), 6);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue events;
    int fired = 0;
    EventId id = events.schedule(10, [&] { fired++; });
    events.schedule(5, [&] { fired += 10; });
    events.cancel(id);
    events.run();
    EXPECT_EQ(fired, 10);
    EXPECT_TRUE(events.empty());
}

TEST(EventQueue, CancelChurnKeepsStorageBounded)
{
    // Regression: cancelled events used to linger in the heap and in
    // a cancelled-id set until their (arbitrarily far) deadline, so a
    // cancel/reschedule pattern — exactly what FlowNetwork's update
    // coalescing does — grew memory without bound. The pooled-slot
    // queue must stay O(live events).
    EventQueue events;
    EventId pending = 0;
    for (int i = 0; i < 100000; i++) {
        if (pending != 0)
            events.cancel(pending);
        pending = events.schedule(1000000 + i, [] {});
    }
    EXPECT_LE(events.poolSlots(), 64u);
    EXPECT_LE(events.heapEntries(), 256u); // 1 live + bounded slack
    events.cancel(pending);
    events.run();
    EXPECT_EQ(events.executed(), 0u);
    EXPECT_TRUE(events.empty());
}

TEST(EventQueue, StaleCancelDoesNotKillSlotReuser)
{
    EventQueue events;
    int fired = 0;
    EventId a = events.schedule(1, [&] { fired += 1; });
    events.runOne();
    // a's pool slot is free and may be handed to b; cancelling with
    // the stale id must be a no-op, not kill b.
    EventId b = events.schedule(2, [&] { fired += 10; });
    events.cancel(a);
    events.cancel(a);
    events.run();
    EXPECT_EQ(fired, 11);
    EXPECT_NE(a, b);
}

TEST(EventQueue, CancelledSlotIsRecycled)
{
    EventQueue events;
    for (int i = 0; i < 1000; i++)
        events.cancel(events.schedule(10, [] {}));
    EXPECT_LE(events.poolSlots(), 8u);
    events.run();
    EXPECT_EQ(events.executed(), 0u);
}

TEST(EventQueue, SchedulingIntoPastThrows)
{
    EventQueue events;
    events.schedule(10, [] {});
    events.runOne();
    EXPECT_THROW(events.schedule(5, [] {}), RuntimeError);
}

TEST(EventQueue, UsToNsRounds)
{
    EXPECT_EQ(usToNs(1.0), 1000);
    EXPECT_EQ(usToNs(0.0004), 0); // below resolution
    EXPECT_EQ(usToNs(2.5), 2500);
}

TEST(EventQueue, ProducerOrderedAgainstSerialEventsByStamp)
{
    // A serial event scheduled before a producer's setDue runs first
    // at the shared instant; one scheduled after runs second.
    EventQueue events;
    std::string order;
    int p = events.addProducer([&] { order += 'p'; });
    events.schedule(10, [&] { order += 'a'; });
    events.setDue(p, 10);
    events.schedule(10, [&] { order += 'b'; });
    events.run();
    EXPECT_EQ(order, "apb");
    EXPECT_EQ(events.executed(), 3u);
}

TEST(EventQueue, LowerProducerIdRunsFirstAtEqualInstant)
{
    // Ids, not stamps, order producers due at one instant: p1 is
    // stamped before p0, yet p0 runs first. A serial event stamped
    // between them sees only the first producer in line (p0), so it
    // runs before both.
    EventQueue events;
    std::string order;
    int p0 = events.addProducer([&] { order += '0'; });
    int p1 = events.addProducer([&] { order += '1'; });
    EXPECT_EQ(p0, 0);
    EXPECT_EQ(p1, 1);
    events.setDue(p1, 7);
    events.schedule(7, [&] { order += 's'; });
    events.setDue(p0, 7);
    events.run();
    EXPECT_EQ(order, "s01");
}

TEST(EventQueue, SetDueToSameInstantKeepsStamp)
{
    EventQueue events;
    std::string order;
    int p = events.addProducer([&] { order += 'p'; });
    events.setDue(p, 10);
    events.schedule(10, [&] { order += 's'; });
    events.setDue(p, 10); // unchanged: keeps the stamp older than s
    events.run();
    EXPECT_EQ(order, "ps");

    // Moving the instant away and back draws a fresh stamp.
    order.clear();
    events.setDue(p, 20);
    events.schedule(20, [&] { order += 's'; });
    events.setDue(p, 30);
    events.setDue(p, 20);
    events.run();
    EXPECT_EQ(order, "sp");
}

TEST(EventQueue, ExplicitStampOrdersProducer)
{
    EventQueue events;
    std::string order;
    int p = events.addProducer([&] { order += 'p'; });
    std::uint64_t early = events.stamp();
    events.schedule(5, [&] { order += 's'; });
    events.setDue(p, 5, early);
    events.run();
    EXPECT_EQ(order, "ps");
}

TEST(EventQueue, ProducerRunnerRearmsAtNow)
{
    // The due instant is consumed before the runner runs, so a
    // runner may publish the same instant again: a second run.
    EventQueue events;
    int runs = 0;
    int p = -1;
    p = events.addProducer([&] {
        if (++runs < 3)
            events.setDue(p, events.now());
    });
    events.setDue(p, 4);
    events.run();
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(events.now(), 4);
    EXPECT_EQ(events.executed(), 3u);
}

TEST(EventQueue, ClearDueAndRejections)
{
    EventQueue events;
    int runs = 0;
    int p = events.addProducer([&] { runs++; });
    events.setDue(p, 10);
    events.clearDue(p);
    events.clearDue(p); // nothing due: a no-op
    events.run();
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(events.executed(), 0u);

    events.schedule(10, [] {});
    events.run();
    EXPECT_THROW(events.setDue(p, 5), RuntimeError);     // past
    EXPECT_THROW(events.setDue(p, 5, 1), RuntimeError);
    EXPECT_THROW(events.setDue(p + 1, 20), RuntimeError); // unknown
    EXPECT_THROW(events.setDue(-1, 20), RuntimeError);
    EXPECT_THROW(events.clearDue(p + 1), RuntimeError);
    EXPECT_THROW(events.addProducer(nullptr), RuntimeError);
}

TEST(EventQueue, DueProducersCountAsEntries)
{
    EventQueue events;
    int p = events.addProducer([] {});
    EXPECT_TRUE(events.empty()); // registered, not due
    EXPECT_EQ(events.heapEntries(), 0u);
    events.setDue(p, 50);
    EXPECT_FALSE(events.empty());
    EXPECT_EQ(events.heapEntries(), 1u);
    // Moving a due instant is a sift in place: no second entry, no
    // tombstone, no callback slot.
    for (TimeNs t = 49; t > 0; t--)
        events.setDue(p, t);
    EXPECT_EQ(events.heapEntries(), 1u);
    EXPECT_EQ(events.poolSlots(), 0u);
    events.clearDue(p);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(events.heapEntries(), 0u);
    events.setDue(p, 3);
    events.run();
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(events.heapEntries(), 0u);
}

TEST(IndexedHeap, MatchesOrderedSetOracle)
{
    // Seeded random set / erase / pop traffic over a small id space
    // (so ids are moved, re-inserted and erased often), checked
    // after every operation against a std::set of (when, id).
    for (std::uint64_t seed : { 1ULL, 2ULL, 0x5eedULL }) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        IndexedHeap heap;
        std::set<std::pair<std::int64_t, int>> oracle;
        std::vector<std::int64_t> whenOf(40, -1);
        for (int step = 0; step < 20000; step++) {
            int id = static_cast<int>(rng.nextBelow(whenOf.size()));
            std::uint64_t op = rng.nextBelow(10);
            if (op < 6) {
                // Narrow instant range: plenty of equal-key ties.
                std::int64_t when = rng.nextRange(0, 30);
                if (whenOf[id] >= 0)
                    oracle.erase({ whenOf[id], id });
                heap.set(id, when);
                oracle.insert({ when, id });
                whenOf[id] = when;
            } else if (op < 8) {
                heap.erase(id);
                if (whenOf[id] >= 0)
                    oracle.erase({ whenOf[id], id });
                whenOf[id] = -1;
            } else if (!oracle.empty()) {
                auto first = *oracle.begin();
                ASSERT_EQ(heap.pop(), first.second);
                oracle.erase(oracle.begin());
                whenOf[first.second] = -1;
            }
            ASSERT_EQ(heap.size(), oracle.size());
            ASSERT_EQ(heap.empty(), oracle.empty());
            ASSERT_EQ(heap.contains(id), whenOf[id] >= 0);
            if (whenOf[id] >= 0) {
                ASSERT_EQ(heap.when(id), whenOf[id]);
            }
            if (!oracle.empty()) {
                ASSERT_EQ(heap.topWhen(), oracle.begin()->first);
                ASSERT_EQ(heap.topId(), oracle.begin()->second);
            }
        }
        // Drain: pops come out in oracle order.
        while (!oracle.empty()) {
            ASSERT_EQ(heap.pop(), oracle.begin()->second);
            oracle.erase(oracle.begin());
        }
        EXPECT_TRUE(heap.empty());
    }
}

// ------------------------------------------------------------------

/** One-resource topology with capacity 10 GB/s. */
Topology
tinyFabric(double cap_gbps = 10.0)
{
    MachineParams params;
    params.nvlinkGpuBwGBps = cap_gbps;
    return makeGeneric(1, 2, params);
}

TEST(FlowNetwork, SingleFlowRunsAtCap)
{
    Topology topo = tinyFabric();
    EventQueue events;
    FlowNetwork net(topo, events);
    TimeNs done = -1;
    // 10 GB/s cap on the route, flow capped at 4 GB/s -> 1000 bytes
    // take 250 ns.
    net.startFlow(topo.route(0, 1).resources, 4.0, 1000.0,
                  [&] { done = events.now(); });
    events.run();
    EXPECT_NEAR(static_cast<double>(done), 250.0, 2.0);
    EXPECT_NEAR(net.deliveredBytes(), 1000.0, 1e-3);
}

TEST(FlowNetwork, ResourceCapSharedFairly)
{
    Topology topo = tinyFabric(10.0);
    EventQueue events;
    FlowNetwork net(topo, events);
    TimeNs done_a = -1, done_b = -1;
    // Two 1000-byte flows on the same egress, each individually able
    // to do 10 GB/s: they share 5/5 and finish together at 200ns.
    auto route = topo.route(0, 1).resources;
    net.startFlow(route, 100.0, 1000.0, [&] { done_a = events.now(); });
    net.startFlow(route, 100.0, 1000.0, [&] { done_b = events.now(); });
    events.run();
    EXPECT_NEAR(static_cast<double>(done_a), 200.0, 3.0);
    EXPECT_NEAR(static_cast<double>(done_b), 200.0, 3.0);
}

TEST(FlowNetwork, MaxMinRedistributesUnusedShare)
{
    Topology topo = tinyFabric(10.0);
    EventQueue events;
    FlowNetwork net(topo, events);
    // Flow A capped at 2 GB/s; flow B uncapped: B should get the
    // remaining 8 GB/s (not the naive 5).
    auto route = topo.route(0, 1).resources;
    FlowId a = net.startFlow(route, 2.0, 1e6, [] {});
    FlowId b = net.startFlow(route, 100.0, 1e6, [] {});
    // Drive one recompute.
    events.runOne();
    EXPECT_NEAR(net.currentRateGBps(a), 2.0, 1e-6);
    EXPECT_NEAR(net.currentRateGBps(b), 8.0, 1e-6);
    EXPECT_EQ(net.activeFlows(), 2);
}

TEST(FlowNetwork, DisjointRoutesDoNotInterfere)
{
    MachineParams params;
    params.nvlinkGpuBwGBps = 10.0;
    Topology topo = makeGeneric(1, 4, params);
    EventQueue events;
    FlowNetwork net(topo, events);
    FlowId a = net.startFlow(topo.route(0, 1).resources, 100.0, 1e6,
                             [] {});
    FlowId b = net.startFlow(topo.route(2, 3).resources, 100.0, 1e6,
                             [] {});
    events.runOne();
    EXPECT_NEAR(net.currentRateGBps(a), 10.0, 1e-6);
    EXPECT_NEAR(net.currentRateGBps(b), 10.0, 1e-6);
}

TEST(FlowNetwork, RatesReadjustWhenFlowsFinish)
{
    Topology topo = tinyFabric(10.0);
    EventQueue events;
    FlowNetwork net(topo, events);
    auto route = topo.route(0, 1).resources;
    TimeNs done_small = -1, done_big = -1;
    net.startFlow(route, 100.0, 500.0,
                  [&] { done_small = events.now(); });
    net.startFlow(route, 100.0, 1500.0,
                  [&] { done_big = events.now(); });
    events.run();
    // Shared 5/5 until the small one drains at t=100; the big one
    // then runs at 10: 1500 = 5*100 + 10*(t-100) -> t = 200.
    EXPECT_NEAR(static_cast<double>(done_small), 100.0, 3.0);
    EXPECT_NEAR(static_cast<double>(done_big), 200.0, 5.0);
    EXPECT_NEAR(net.deliveredBytes(), 2000.0, 1e-2);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately)
{
    Topology topo = tinyFabric();
    EventQueue events;
    FlowNetwork net(topo, events);
    bool done = false;
    net.startFlow(topo.route(0, 1).resources, 1.0, 0.0,
                  [&] { done = true; });
    events.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(events.now(), 0);
}

TEST(FlowNetwork, RejectsBadFlows)
{
    Topology topo = tinyFabric();
    EventQueue events;
    FlowNetwork net(topo, events);
    EXPECT_THROW(
        net.startFlow(topo.route(0, 1).resources, 0.0, 10.0, [] {}),
        RuntimeError);
    EXPECT_THROW(
        net.startFlow(topo.route(0, 1).resources, 1.0, -1.0, [] {}),
        RuntimeError);
}

TEST(FlowNetwork, ManyFlowsConserveBytes)
{
    MachineParams params;
    params.nvlinkGpuBwGBps = 7.0;
    Topology topo = makeGeneric(1, 8, params);
    EventQueue events;
    FlowNetwork net(topo, events);
    double total = 0.0;
    int completed = 0;
    for (int i = 0; i < 64; i++) {
        int src = i % 8, dst = (i + 1 + i / 8) % 8;
        if (src == dst)
            dst = (dst + 1) % 8;
        double bytes = 100.0 * (i + 1);
        total += bytes;
        net.startFlow(topo.route(src, dst).resources, 2.5, bytes,
                      [&] { completed++; });
    }
    events.run();
    EXPECT_EQ(completed, 64);
    EXPECT_NEAR(net.deliveredBytes(), total, 1.0);
    EXPECT_EQ(net.activeFlows(), 0);
}

TEST(FlowNetwork, BurstyStartsConservePerResourceBytes)
{
    // Exercises the incremental bookkeeping (membership counts,
    // lazily compacted touched set, usage decrements) under waves of
    // flows that start from completion callbacks, so starts and
    // finishes interleave and resources repeatedly drain to zero
    // flows and refill.
    MachineParams params;
    params.nvlinkGpuBwGBps = 5.0;
    Topology topo = makeGeneric(1, 6, params);
    EventQueue events;
    FlowNetwork net(topo, events);
    std::vector<double> expected(topo.numResources(), 0.0);
    double total = 0.0;
    int completed = 0;
    std::function<void(int)> burst = [&](int wave) {
        if (wave >= 3)
            return;
        for (int i = 0; i < 12; i++) {
            int src = (i + wave) % 6;
            int dst = (src + 1 + i % 3) % 6;
            double bytes = 50.0 * (i + 1 + wave);
            const std::vector<ResourceId> &resources =
                topo.route(src, dst).resources;
            for (ResourceId r : resources)
                expected[r] += bytes;
            total += bytes;
            bool leader = i == 0;
            net.startFlow(resources, 1.5, bytes,
                          [&, leader, wave] {
                              completed++;
                              if (leader)
                                  burst(wave + 1);
                          });
        }
    };
    burst(0);
    events.run();
    EXPECT_EQ(completed, 36);
    EXPECT_NEAR(net.deliveredBytes(), total, 1e-2);
    for (ResourceId r = 0; r < topo.numResources(); r++)
        EXPECT_NEAR(net.resourceBytes(r), expected[r], 1e-2);
    EXPECT_EQ(net.activeFlows(), 0);
}

TEST(FlowNetwork, ResourcesLeftIdleStayClean)
{
    // A resource whose flows all finish must drop out of the touched
    // set and come back correctly when used again later.
    Topology topo = tinyFabric(10.0);
    EventQueue events;
    FlowNetwork net(topo, events);
    auto route01 = topo.route(0, 1).resources;
    auto route10 = topo.route(1, 0).resources;
    TimeNs second_done = -1;
    net.startFlow(route01, 100.0, 1000.0, [&] {
        // Re-use the reverse direction after the fabric went idle.
        net.startFlow(route10, 100.0, 1000.0,
                      [&] { second_done = events.now(); });
    });
    events.run();
    // Each leg runs alone at the 10 GB/s resource cap: 100ns each.
    EXPECT_NEAR(static_cast<double>(second_done), 200.0, 4.0);
    EXPECT_NEAR(net.deliveredBytes(), 2000.0, 1e-2);
}

TEST(FlowNetwork, HoldsOneQueueEntry)
{
    // Four disjoint shards, each with its own completion instant:
    // the network publishes only the earliest, so the queue holds a
    // single entry for all of them throughout the run.
    Topology topo = makeGeneric(1, 8, MachineParams{});
    EventQueue events;
    FlowNetwork net(topo, events);
    std::vector<TimeNs> done;
    for (int pair = 0; pair < 4; pair++) {
        net.startFlow(topo.route(2 * pair, 2 * pair + 1).resources, 5.0,
                      1000.0 * (pair + 1),
                      [&] { done.push_back(events.now()); });
    }
    EXPECT_EQ(net.activeShards(), 4);
    EXPECT_EQ(events.heapEntries(), 1u);
    while (events.runOne())
        EXPECT_LE(events.heapEntries(), 1u);
    ASSERT_EQ(done.size(), 4u);
    for (size_t i = 1; i < done.size(); i++)
        EXPECT_LT(done[i - 1], done[i]);
    EXPECT_EQ(events.heapEntries(), 0u);
}

} // namespace
} // namespace mscclang
