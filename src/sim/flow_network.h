/**
 * @file
 * Flow-level network model. Concurrent transfers ("flows") share the
 * topology's capacity resources (per-GPU NVLink egress/ingress, IB
 * NIC send/recv, point-to-point bundles) max-min fairly, with a
 * per-flow rate cap modelling the bandwidth a single thread block can
 * drive. This is the substrate on which the paper's optimizations
 * act: parallelization adds flows to raise a link's utilization,
 * aggregation amortizes per-message latency (paid by the caller),
 * pipelining overlaps flows on disjoint resources.
 *
 * Sharded layout (DESIGN.md §11): active flows are partitioned into
 * *shards* — the connected components of the flow/resource sharing
 * graph, maintained incrementally. Each shard owns its member flows,
 * the resources they draw from, a private settle clock, and at most
 * one due instant for its next update. A rate-relevant change (flow
 * start or completion, fault capacity change) settles and
 * recomputes only the shard it lands in; a flow whose route spans
 * several shards merges them ("crossing the cut"), and a shard that
 * lost flows is re-partitioned at its next update so independent
 * components split apart again. Max-min progressive filling inside a
 * shard is the exact algorithm the pre-sharding network ran globally,
 * restricted to the shard — mathematically the same fixed point,
 * since components share no resources.
 *
 * Self-scheduling: the network is the event queue's producer 0. It
 * keeps its shards' due instants in its own indexed heap, ordered by
 * (when, shard), and publishes only the earliest to the queue, with
 * the stamp of the lowest-id shard due then; a shard is stamped from
 * the queue's counter whenever its instant moves earlier. A run
 * takes every shard due at now and handles each in ascending shard
 * order in one pass — settle, completion detection, recompute, fold
 * the totals, free completed flows, re-partition, requeue — and
 * finally fires the completion callbacks in shard-then-start order.
 */

#ifndef MSCCLANG_SIM_FLOW_NETWORK_H_
#define MSCCLANG_SIM_FLOW_NETWORK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/indexed_heap.h"
#include "topology/topology.h"

namespace mscclang {

struct SimProfile;

/** Identifier of an in-flight transfer. */
using FlowId = std::int64_t;

/** The shared-fabric model. One instance per simulated machine. */
class FlowNetwork
{
  public:
    FlowNetwork(const Topology &topology, EventQueue &events);
    ~FlowNetwork();

    /** Installs wall-clock phase accounting (null disables). */
    void setProfile(SimProfile *profile) { profile_ = profile; }

    /**
     * Starts a transfer of @p bytes across @p resources with a
     * per-flow cap of @p cap_gbps; @p on_done fires when the last
     * byte has drained. Fixed per-message latency is the caller's to
     * add (it depends on protocol and link type).
     */
    FlowId startFlow(const std::vector<ResourceId> &resources,
                     double cap_gbps, double bytes,
                     std::function<void()> on_done);

    /**
     * Arms @p schedule: each event is scheduled on the event queue at
     * its activation time and mutates the effective capacity of its
     * resource (degrade multiplies, stall/link-down zero it; stalls
     * and bounded degrades recover after their duration). Flows
     * crossing a zeroed resource freeze at rate 0 instead of
     * triggering the starvation error — a wedged execution is then
     * the watchdog's to detect. Call at most once, before running.
     */
    void injectFaults(const FaultSchedule &schedule);

    /** Number of fault events that have activated so far. */
    int faultsFired() const
    {
        return static_cast<int>(firedFaults_.size());
    }

    /** Indices (into the armed schedule) of activated events. */
    const std::vector<int> &firedFaults() const { return firedFaults_; }

    /** True if any resource is currently zeroed by a fault. */
    bool faultActive() const { return zeroedResources_ > 0; }

    /** Instantaneous rate of a flow in GB/s (0 if finished). */
    double currentRateGBps(FlowId id) const;

    int activeFlows() const { return activeFlows_; }

    /** Live shards (diagnostics: the batching grain). */
    int activeShards() const { return activeShards_; }

    /** Total bytes delivered so far (conservation checks in tests). */
    double deliveredBytes() const { return delivered_; }

    /**
     * Wire bytes that have crossed @p resource so far. Dividing by
     * the elapsed time and the resource capacity gives utilization —
     * the quantity Figure 6's pipelining argument is about.
     */
    double resourceBytes(ResourceId resource) const;

  private:
    struct Flow
    {
        FlowId id = 0;
        std::vector<ResourceId> resources;
        double capGBps = 0.0;
        double remaining = 0.0; // bytes
        double rateGBps = 0.0;
        std::function<void()> onDone;
        bool live = false;
        int nextFree = -1;
    };

    /** One shard: a connected component of the flow/resource graph. */
    struct Shard
    {
        /** Member flows (arena indices) in ascending FlowId order —
         *  the completion-callback order within the shard. */
        std::vector<int> flows;
        /** Resources owned by this shard (lazily swept). */
        std::vector<ResourceId> touched;
        /** Orders the shard's due instant against serial events. */
        std::uint64_t stamp = 0;
        /** Private settle clock: progress is booked shard-locally. */
        TimeNs lastSettled = 0;
        bool live = false;
        /** Lost flows since the last partition check. */
        bool membershipDirty = false;
        /** Recompute outputs: next completion delay (-1: none)
         *  and whether a flow starved with no fault in sight. */
        TimeNs nextDelayNs = -1;
        bool starved = false;
        /** Recompute scratch (kept warm per shard). */
        std::vector<Flow *> unfrozen;
    };

    int allocFlow();
    void freeFlow(int index);
    int allocShard();
    void freeShard(int shard);

    /** Books progress since the shard's last settle. */
    void settleShard(Shard &shard);

    /** Moves every flow and resource of @p from into @p into. */
    void mergeShardInto(int from, int into);

    /**
     * Splits a shard that lost flows back into connected components;
     * reschedules each component's next update.
     */
    void partitionShard(int shard);

    /** Moves the shard's due instant to @p when if that is earlier. */
    void scheduleShardUpdate(int shard, TimeNs when);

    /** Publishes the earliest due shard to the event queue. */
    void publish();

    /** Settles, completes, recomputes and requeues one due shard. */
    void runShard(int shard);
    /** Producer runner: every shard due at now, ascending. */
    void runDue();

    /** Max-min progressive filling over one shard's flows. */
    void recomputeShard(Shard &shard);

    /** Schedules the shard's next completion from current rates. */
    void scheduleCompletion(int shard, const std::vector<int> &flows);

    /** Applies one armed fault event (and schedules its recovery). */
    void activateFault(int index);

    /** Recomputes a resource's effective capacity from fault state. */
    void refreshCapacity(ResourceId resource);

    const Topology &topology_;
    EventQueue &events_;

    /** Flow arena with an embedded free list. */
    std::vector<Flow> flowArena_;
    int freeFlows_ = -1;
    int activeFlows_ = 0;
    FlowId nextId_ = 1;

    /** Shard pool with a free list. */
    std::vector<Shard> shards_;
    std::vector<int> freeShards_;
    int activeShards_ = 0;

    /** The network's producer id and its due shards, (when, shard). */
    int producer_ = -1;
    IndexedHeap due_;
    /** Shards taken by the current run. */
    std::vector<int> batch_;

    SimProfile *profile_ = nullptr;

    double delivered_ = 0.0;
    std::vector<double> resourceBytes_;

    /** Effective resource capacities (base x active fault effects). */
    std::vector<double> capacity_;
    /** Pristine capacities, copied once (the topology is immutable). */
    std::vector<double> baseCapacity_;
    /** Product of active degrade factors per resource. */
    std::vector<double> degradeFactor_;
    /** Count of active zeroing faults (stall/link-down) per resource. */
    std::vector<int> zeroCount_;
    /** Number of resources with zeroCount_ > 0. */
    int zeroedResources_ = 0;
    /** Armed fault script (copied) and the indices already fired. */
    std::vector<FaultEvent> faultEvents_;
    std::vector<int> firedFaults_;
    bool faultsArmed_ = false;

    /** Number of active flows crossing each resource. */
    std::vector<int> flowCount_;
    /** Owning shard per resource (-1 when unowned). */
    std::vector<int> resourceShard_;
    /** Whether a resource is in its shard's touched list. */
    std::vector<char> inTouched_;

    // Recompute scratch, indexed by resource. Shards write disjoint
    // entries (each resource has one owner).
    std::vector<double> remCap_;
    std::vector<int> usage_;

    // Partition scratch.
    std::vector<std::uint32_t> resEpoch_;
    std::vector<int> resOwner_;
    std::uint32_t epoch_ = 0;
    std::vector<int> ufParent_;
    std::vector<int> mergeScratch_;
    std::vector<int> flowMergeScratch_;
    std::vector<std::function<void()>> batchCallbacks_;
};

} // namespace mscclang

#endif // MSCCLANG_SIM_FLOW_NETWORK_H_
