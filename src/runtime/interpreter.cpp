#include "runtime/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "common/log.h"
#include "common/error.h"
#include "common/strings.h"
#include "sim/profile.h"

namespace mscclang {

void
DataStore::configure(const IrProgram &ir, std::uint64_t bytes_per_rank)
{
    size_t ranks = static_cast<size_t>(ir.numRanks);
    if (input_.size() < ranks) {
        input_.resize(ranks);
        output_.resize(ranks);
        scratch_.resize(ranks);
    }
    for (const IrGpu &gpu : ir.gpus) {
        std::uint64_t elems = bytes_per_rank / sizeof(float);
        if (elems * sizeof(float) != bytes_per_rank)
            throw RuntimeError("DataStore: bytes must be element-sized");
        if (gpu.inputChunks > 0 && elems % gpu.inputChunks != 0) {
            throw RuntimeError(strprintf(
                "DataStore: %llu elements do not divide into %d chunks",
                static_cast<unsigned long long>(elems),
                gpu.inputChunks));
        }
        std::uint64_t chunk_elems =
            gpu.inputChunks > 0 ? elems / gpu.inputChunks : 0;
        auto grow = [](std::vector<float> &buf, std::uint64_t n) {
            if (buf.size() < n)
                buf.resize(n, 0.0f);
        };
        grow(input_[gpu.rank], elems);
        if (!ir.inPlace)
            grow(output_[gpu.rank], chunk_elems * gpu.outputChunks);
        grow(scratch_[gpu.rank], chunk_elems * gpu.scratchChunks);
    }
}

DataStore::Snapshot
DataStore::snapshot() const
{
    return Snapshot{ input_, output_, scratch_ };
}

void
DataStore::restore(const Snapshot &snap)
{
    input_ = snap.input;
    output_ = snap.output;
    scratch_ = snap.scratch;
}

std::vector<float> &
DataStore::buffer(Rank rank, BufferKind kind, bool in_place)
{
    if (in_place && kind == BufferKind::Output)
        kind = BufferKind::Input;
    switch (kind) {
      case BufferKind::Input: return input_.at(rank);
      case BufferKind::Output: return output_.at(rank);
      case BufferKind::Scratch: return scratch_.at(rank);
    }
    throw RuntimeError("DataStore: bad buffer kind");
}

namespace {

float
applyReduce(ReduceOp op, float a, float b)
{
    switch (op) {
      case ReduceOp::Sum: return a + b;
      case ReduceOp::Prod: return a * b;
      case ReduceOp::Max: return a > b ? a : b;
      case ReduceOp::Min: return a < b ? a : b;
    }
    return a;
}

} // namespace

/** One executed instruction interval for the tracing timeline. */
struct TraceEvent
{
    Rank rank;
    int tb;
    int tile;
    int step;
    IrOp op;
    TimeNs startNs;
    TimeNs endNs;
};

/** A tile-sized message in flight on a connection. */
struct Message
{
    std::uint64_t bytes = 0;
    std::vector<float> data; // data mode only
};

struct IrExecution::Impl
{
    struct TbState
    {
        const IrThreadBlock *tb = nullptr;
        Rank rank = 0;
        int flatId = 0;
        int tile = 0;
        int step = 0;
        int numSteps = 0;
        bool busy = false;
        bool finished = false;
        TimeNs busyStartNs = 0;
        /** Completed (tile, step) units, published to waiters. */
        long units = 0;
        /** Memoized payloadBytes for the current (tile, step) — a
         *  blocked thread block recomputes its step on every wake. */
        std::uint64_t cachedPayload = 0;
        int cachedTile = -1;
        int cachedStep = -1;

        // Dense plan, resolved once at construction.
        int recvConn = -1; ///< index into conns (receive side)
        int sendConn = -1; ///< index into conns (send side)
        bool sendRouted = false;
        /** Route resources (owned by the Topology, stable). */
        const std::vector<ResourceId> *sendResources = nullptr;
        double sendCapGBps = 0.0;
        /** Per-message NIC occupancy folded into wire bytes (IB). */
        double sendPerMessageWireBytes = 0.0;
        /** Delivery latency after the wire drains: first tile pays
         *  the full protocol alpha, later tiles the slot pipeline. */
        TimeNs sendAlpha0Ns = 0;
        TimeNs sendAlphaNNs = 0;
    };

    /**
     * One FIFO connection. The inbox is a fixed ring sized by the
     * protocol's slot count: `occupied` (sent, not yet consumed)
     * never exceeds the slot count, and the inbox never exceeds
     * `occupied`.
     */
    struct ConnState
    {
        std::vector<Message> ring;
        int head = 0;
        int count = 0;
        int occupied = 0; // FIFO slots in use (sent, not yet consumed)
        int waitingSender = -1;   // flat tb id blocked on a slot
        int waitingReceiver = -1; // flat tb id blocked on data
    };

    /** An in-flight send, pooled so callbacks capture only {this,
     *  index} — small enough for std::function's inline storage. */
    struct SendOp
    {
        Message msg;
        int flat = 0;
        int conn = 0;
        bool receives = false;
        TimeNs alphaNs = 0;
        double wireBytes = 0.0;
        double capGBps = 0.0;
        const std::vector<ResourceId> *resources = nullptr;
        int nextFree = -1;
    };

    // ------------------------------------------------------------------
    // Per-instant buckets (DESIGN.md §13): interpreter steps are
    // *actions* queued in the bucket of the instant they are due,
    // in staging order, and the execution, an event-queue producer,
    // is due at its earliest instant. A batch sorts its
    // bucket stably by rank and runs a per-rank phase (ranks advance
    // independently: ConnState fields are ownership-partitioned —
    // ring/head/count/waitingReceiver belong to the destination rank,
    // occupied/waitingSender to the source — and dependencies and
    // semaphores are same-rank by construction) followed by a merge
    // phase that applies the FIFO slot releases, the only cross-rank
    // effect, in rank order.

    enum ActionKind : std::uint8_t
    {
        kActAdvance = 0,  ///< tryAdvance(flat)
        kActComplete = 1, ///< completeInstr(flat, received)
        kActDeliver = 2,  ///< deliver(send-op index)
        kActLaunch = 3,   ///< launch(send-op index): flow enters wire
    };

    struct Action
    {
        Rank rank;
        int arg;
        ActionKind kind;
        bool received;
    };

    /** One pending instant: its actions in staging order. */
    struct Instant
    {
        TimeNs at;
        std::vector<Action> actions;
    };

    /** Buckets up to this size sort by insertion, larger ones by a
     *  counting sort over ranks. */
    static constexpr size_t kInsertionSortMax = 32;

    const Topology &topology;
    /** The execution's own copy: it shares the caller's body and
     *  keeps it alive while aborted flows still call back. */
    const IrProgram ir;
    EventQueue &events;
    FlowNetwork &network;
    ExecOptions options;
    DataStore *data;
    ProtocolParams proto;

    /** Per thread block, by the body's flat block id. */
    std::vector<TbState> tbs;
    /** Per connection, by the body's connection id. */
    std::vector<ConnState> conns;
    std::vector<SendOp> sendPool;
    int freeSend = -1;

    /** The execution's producer id in the event queue. */
    int producer = -1;
    /** Pending instants, latest first: the earliest is at the back. */
    std::vector<Instant> instants;
    /** Recycled bucket storage (cleared, capacity kept). */
    std::vector<std::vector<Action>> spareBuckets;
    /** Counting-sort scratch: per-rank offsets and the output. */
    std::vector<int> rankStart;
    std::vector<Action> sortScratch;
    /** Wire bytes of the rank the per-rank phase is on, folded into
     *  stats per (batch, rank): the goldens pin the bits of that
     *  summation order. */
    double rankWireBytes = 0.0;
    /** Connections whose FIFO slot this batch's receives freed. */
    std::vector<int> slotFreed;
    /** semaphore waiters per flat tb: (threshold units, waiter). */
    std::vector<std::vector<std::pair<long, int>>> semWaiters;

    std::uint64_t chunkBytes = 0;
    int numTiles = 1;
    std::uint64_t chunkElems = 0;

    int finishedTbs = 0;
    bool traceEnabled = false;
    bool debugLog = false;
    std::vector<TraceEvent> trace;
    ExecStats stats;
    std::function<void(const ExecStats &)> onComplete;

    // Watchdog state: `progress` counts completed instructions and
    // delivered messages; the no-progress tick compares it against
    // the previous tick's snapshot.
    bool done = false;
    std::uint64_t progress = 0;
    std::uint64_t lastProgress = 0;
    EventId watchdogAbsEvent = 0;
    EventId watchdogTickEvent = 0;

    Impl(const Topology &topo, const IrProgram &program, EventQueue &eq,
         FlowNetwork &net, ExecOptions opts, DataStore *store)
        : topology(topo), ir(program), events(eq), network(net),
          options(opts), data(store), proto(protocolParams(ir.protocol))
    {
        if (topo.numRanks() != ir.numRanks)
            throw RuntimeError("interpreter: topology/program rank "
                               "mismatch");
        if (options.dataMode && data == nullptr)
            throw RuntimeError("interpreter: data mode needs a store");
        traceEnabled = !options.traceFile.empty();
        debugLog = Log::enabled(LogLevel::Debug);

        int input_chunks = 1;
        int max_split = 1;
        for (const IrGpu &gpu : ir.gpus)
            input_chunks = std::max(input_chunks, gpu.inputChunks);
        for (const IrInstruction &instr : ir.gpus.steps())
            max_split = std::max(max_split, instr.splitCount);
        chunkBytes =
            (options.bytesPerRank + input_chunks - 1) / input_chunks;
        // Pipeline depth (paper §6.2): a chunk larger than a FIFO
        // slot is split into tiles so phases overlap (Figure 6). The
        // relevant unit is the per-instance fragment (instances
        // already subdivide chunks), and the tile count is capped by
        // the user-configurable maxTilesPerChunk — the paper's
        // "users may configure MSCCLang's tile size".
        std::uint64_t fragment =
            std::max<std::uint64_t>(chunkBytes / max_split, 1);
        numTiles = static_cast<int>(std::clamp<std::uint64_t>(
            (fragment + proto.slotBytes - 1) / proto.slotBytes, 1,
            static_cast<std::uint64_t>(
                std::max(1, options.maxTilesPerChunk))));
        if (options.dataMode) {
            chunkElems = (options.bytesPerRank / sizeof(float)) /
                std::max(1, input_chunks);
        }

        // Count the send connections sharing each NIC: the
        // per-message proxy cost grows with queue-pair pressure.
        std::span<const IrThreadBlock> blocks = ir.gpus.blocks();
        std::vector<int> nic_connections(topo.numResources(), 0);
        for (const IrThreadBlock &tb : blocks) {
            if (tb.sendPeer < 0 || !topo.connected(tb.rank, tb.sendPeer))
                continue;
            const Route &route = topo.route(tb.rank, tb.sendPeer);
            if (route.type == LinkType::InfiniBand &&
                !route.resources.empty()) {
                nic_connections[route.resources.front()]++;
            }
        }

        // The dense execution plan: the body's flat block and
        // connection ids, plus flattened send-path constants per
        // thread block.
        tbs.resize(blocks.size());
        semWaiters.resize(tbs.size());
        conns.resize(ir.gpus.connections().size());
        for (ConnState &conn : conns)
            conn.ring.resize(std::max(proto.slots, 1));
        const MachineParams &params = topo.params();
        for (size_t flat = 0; flat < blocks.size(); flat++) {
            const IrThreadBlock &tb = blocks[flat];
            TbState &state = tbs[flat];
            state.tb = &tb;
            state.rank = tb.rank;
            state.flatId = static_cast<int>(flat);
            state.numSteps = tb.numSteps;
            state.recvConn = tb.recvConn;
            state.sendConn = tb.sendConn;
            if (tb.sendPeer < 0)
                continue;
            if (!topo.connected(tb.rank, tb.sendPeer))
                continue; // route() throws at first send
            state.sendRouted = true;
            const Route &route = topo.route(tb.rank, tb.sendPeer);
            state.sendResources = &route.resources;
            double scale = params.protocolAlphaScale;
            state.sendAlpha0Ns = usToNs(
                route.extraLatencyUs +
                scale * protocolAlphaUs(proto, route.type));
            state.sendAlphaNNs = usToNs(
                route.extraLatencyUs +
                scale * proto.perSlotOverheadUs);
            if (route.type == LinkType::InfiniBand) {
                state.sendCapGBps = params.ibNicBwGBps;
                // Per-message NIC occupancy: a message ties up
                // the NIC pipeline independent of its size, and
                // the cost grows with the number of connections
                // contending for the NIC's queue pairs
                // (1 GB/s == 1 byte/ns == 1000 bytes/us).
                int nic_conns = 1;
                if (!route.resources.empty()) {
                    nic_conns = std::max(
                        1, nic_connections[route.resources.front()]);
                }
                double per_message = params.ibPerMessageUs +
                    params.ibQpPenaltyUs * (nic_conns - 1);
                state.sendPerMessageWireBytes =
                    per_message * params.ibNicBwGBps * 1000.0;
            } else {
                state.sendCapGBps = params.tbNvlinkBwGBps;
            }
        }

        producer = events.addProducer([this] { runBatch(); });
    }

    int
    flatOf(Rank rank, int tb_id) const
    {
        return ir.gpus[rank].firstBlock + tb_id;
    }

    /** The instruction @p tb is at. */
    const IrInstruction &
    instrOf(const TbState &tb) const
    {
        return ir.gpus.steps()[tb.tb->firstStep + tb.step];
    }

    // ------------------------------------------------------------------
    // Ring inboxes and the pooled send arena.

    Message
    popInbox(ConnState &conn)
    {
        Message msg = std::move(conn.ring[conn.head]);
        conn.head++;
        if (conn.head == static_cast<int>(conn.ring.size()))
            conn.head = 0;
        conn.count--;
        return msg;
    }

    void
    pushInbox(ConnState &conn, Message &&msg)
    {
        if (conn.count == static_cast<int>(conn.ring.size()))
            throw RuntimeError("interpreter: inbox ring overflow "
                               "(FIFO accounting bug)");
        int pos = conn.head + conn.count;
        if (pos >= static_cast<int>(conn.ring.size()))
            pos -= static_cast<int>(conn.ring.size());
        conn.ring[pos] = std::move(msg);
        conn.count++;
    }

    int
    allocSendOp()
    {
        if (freeSend >= 0) {
            int idx = freeSend;
            freeSend = sendPool[idx].nextFree;
            return idx;
        }
        sendPool.emplace_back();
        return static_cast<int>(sendPool.size()) - 1;
    }

    void
    freeSendOp(int idx)
    {
        SendOp &op = sendPool[idx];
        op.msg.bytes = 0;
        op.msg.data.clear(); // keeps capacity warm for data mode
        op.nextFree = freeSend;
        freeSend = idx;
    }

    // ------------------------------------------------------------------
    // Instant buckets and the batch runner.

    /** Queues an action at @p at, after everything already staged
     *  there. The caller syncs the due instant (syncDue). */
    void
    stage(TimeNs at, Rank rank, ActionKind kind, int arg,
          bool received = false)
    {
        auto it = std::lower_bound(
            instants.begin(), instants.end(), at,
            [](const Instant &inst, TimeNs t) { return inst.at > t; });
        if (it == instants.end() || it->at != at) {
            std::vector<Action> bucket;
            if (!spareBuckets.empty()) {
                bucket = std::move(spareBuckets.back());
                spareBuckets.pop_back();
            }
            it = instants.insert(it, Instant{ at, std::move(bucket) });
        }
        it->actions.push_back(Action{ rank, arg, kind, received });
    }

    /** Keeps the producer due at the earliest instant (a fresh
     *  stamp only when that instant moves). */
    void
    syncDue()
    {
        if (instants.empty())
            events.clearDue(producer);
        else
            events.setDue(producer, instants.back().at);
    }

    /** Stable sort by rank: insertion for small buckets, counting
     *  sort for large ones (a 512-rank instant holds thousands). */
    void
    sortByRank(std::vector<Action> &acts)
    {
        size_t n = acts.size();
        if (n <= kInsertionSortMax) {
            for (size_t i = 1; i < n; i++) {
                Action act = acts[i];
                size_t j = i;
                for (; j > 0 && acts[j - 1].rank > act.rank; j--)
                    acts[j] = acts[j - 1];
                acts[j] = act;
            }
            return;
        }
        rankStart.assign(ir.numRanks + 1, 0);
        for (const Action &act : acts)
            rankStart[act.rank + 1]++;
        for (int r = 0; r < ir.numRanks; r++)
            rankStart[r + 1] += rankStart[r];
        sortScratch.resize(n);
        for (const Action &act : acts)
            sortScratch[rankStart[act.rank]++] = act;
        acts.swap(sortScratch);
    }

    /**
     * Frees every queued action, the send arena and their storage
     * once the run is over (an execution may outlive its run by a
     * long way: the workload replayer keeps every attempt until the
     * shared fabric drains). Flows an abort left on the wire still
     * call flowDrained, which then touches nothing.
     */
    void
    releaseRunState()
    {
        events.clearDue(producer);
        std::vector<Instant>().swap(instants);
        std::vector<std::vector<Action>>().swap(spareBuckets);
        std::vector<int>().swap(rankStart);
        std::vector<Action>().swap(sortScratch);
        std::vector<int>().swap(slotFreed);
        std::vector<SendOp>().swap(sendPool);
        freeSend = -1;
    }

    /**
     * The producer's runner: runs the earliest instant's bucket.
     * The per-rank phase takes the ranks in ascending order and each
     * rank's actions in staging order; the merge then releases the
     * FIFO slots the receives freed and restages their blocked
     * (cross-rank) senders at this instant, as a new batch.
     */
    void
    runBatch()
    {
        std::vector<Action> batch = std::move(instants.back().actions);
        instants.pop_back();
        SimProfile *prof = options.profile;
        if (prof)
            prof->interpBatches++;
        {
            SimProfileTimer timer(prof ? &prof->interpParallelNs
                                       : nullptr);
            sortByRank(batch);
            for (size_t i = 0; i < batch.size();) {
                Rank rank = batch[i].rank;
                rankWireBytes = 0.0;
                for (; i < batch.size() && batch[i].rank == rank; i++)
                    runAction(batch[i]);
                stats.wireBytes += rankWireBytes;
            }
        }
        SimProfileTimer timer(prof ? &prof->interpMergeNs : nullptr);
        TimeNs now = events.now();
        for (int conn : slotFreed) {
            ConnState &in = conns[conn];
            in.occupied--;
            int waiter = in.waitingSender;
            in.waitingSender = -1;
            if (waiter >= 0)
                stage(now, tbs[waiter].rank, kActAdvance, waiter);
        }
        slotFreed.clear();
        batch.clear();
        spareBuckets.push_back(std::move(batch));
        // Completion is detected here, not inside tryAdvance, so a
        // finished run never sees another action.
        if (finishedTbs == static_cast<int>(tbs.size()))
            finishAll();
        else
            syncDue();
    }

    void
    runAction(const Action &act)
    {
        switch (act.kind) {
          case kActAdvance:
            tryAdvance(act.arg);
            break;
          case kActComplete:
            completeInstr(act.arg, act.received);
            break;
          case kActDeliver:
            deliver(act.arg);
            break;
          case kActLaunch:
            launch(act.arg);
            break;
        }
    }

    /**
     * The range of (instance, tile) within a chunk of @p chunk units
     * (bytes, or elements in data mode). The instance owns
     * [i/n, (i+1)/n) of the chunk; the pipeline loop then walks that
     * range in numTiles sub-ranges.
     */
    std::pair<std::uint64_t, std::uint64_t>
    tileRange(std::uint64_t chunk, const IrInstruction &instr,
              int tile) const
    {
        std::uint64_t ilo = chunk * instr.splitIdx / instr.splitCount;
        std::uint64_t ihi = chunk * (instr.splitIdx + 1) / instr.splitCount;
        std::uint64_t span = ihi - ilo;
        return { ilo + span * tile / numTiles,
                 ilo + span * (tile + 1) / numTiles };
    }

    std::uint64_t
    payloadBytes(const IrInstruction &instr, int tile) const
    {
        auto [lo, hi] = tileRange(chunkBytes, instr, tile);
        return (hi - lo) * static_cast<std::uint64_t>(instr.count);
    }

    // ------------------------------------------------------------------
    // Data-mode helpers.

    std::vector<float> &
    bufferOf(Rank rank, BufferKind kind)
    {
        return data->buffer(rank, kind, ir.inPlace);
    }

    std::vector<float>
    readSpan(Rank rank, BufferKind buf, int off,
             const IrInstruction &instr, int tile)
    {
        auto [lo, hi] = tileRange(chunkElems, instr, tile);
        std::vector<float> out;
        out.reserve((hi - lo) * instr.count);
        std::vector<float> &storage = bufferOf(rank, buf);
        for (int k = 0; k < instr.count; k++) {
            std::uint64_t base =
                static_cast<std::uint64_t>(off + k) * chunkElems;
            if (base + hi > storage.size())
                throw RuntimeError(strprintf(
                    "interpreter: rank %d %s read out of bounds", rank,
                    bufferKindName(buf)));
            out.insert(out.end(), storage.begin() + base + lo,
                       storage.begin() + base + hi);
        }
        return out;
    }

    void
    writeSpan(Rank rank, BufferKind buf, int off,
              const IrInstruction &instr, int tile,
              const std::vector<float> &values)
    {
        auto [lo, hi] = tileRange(chunkElems, instr, tile);
        std::uint64_t per_chunk = hi - lo;
        if (values.size() != per_chunk * instr.count)
            throw RuntimeError("interpreter: message size mismatch");
        std::vector<float> &storage = bufferOf(rank, buf);
        for (int k = 0; k < instr.count; k++) {
            std::uint64_t base =
                static_cast<std::uint64_t>(off + k) * chunkElems;
            if (base + hi > storage.size())
                throw RuntimeError(strprintf(
                    "interpreter: rank %d %s write out of bounds", rank,
                    bufferKindName(buf)));
            std::copy(values.begin() + k * per_chunk,
                      values.begin() + (k + 1) * per_chunk,
                      storage.begin() + base + lo);
        }
    }

    // ------------------------------------------------------------------
    // Cost model.

    double
    localCostUs(const IrInstruction &instr, std::uint64_t payload,
                int tile) const
    {
        if (payload == 0)
            return 0.01; // skipped tile: decode only
        const MachineParams &params = topology.params();
        // Steady-state tiles ride the warp pipeline; only the first
        // pays full instruction issue.
        double us = tile == 0 ? params.instrOverheadUs
                              : proto.perSlotOverheadUs;
        if (instr.hasDep)
            us += 0.2; // __threadfence + semaphore publish
        double gb = static_cast<double>(payload);
        switch (instr.op) {
          case IrOp::Copy:
          case IrOp::Recv:
          case IrOp::RecvCopySend:
            us += gb / params.tbCopyBwGBps / 1000.0;
            break;
          case IrOp::Reduce:
          case IrOp::RecvReduceCopy:
            us += gb / params.tbReduceBwGBps / 1000.0;
            break;
          default:
            break;
        }
        return us;
    }

    // ------------------------------------------------------------------
    // Executor state machine.

    void
    start(std::function<void(const ExecStats &)> cb)
    {
        onComplete = std::move(cb);
        stats.startNs = events.now();
        TimeNs launch = usToNs(options.launchOverheadUs);
        if (options.watchdogTimeoutUs > 0.0) {
            watchdogAbsEvent = events.scheduleAfter(
                launch + usToNs(options.watchdogTimeoutUs), [this] {
                    watchdogAbsEvent = 0;
                    abort(strprintf("watchdog: kernel exceeded %.1fus",
                                    options.watchdogTimeoutUs));
                });
        }
        if (options.watchdogNoProgressUs > 0.0) {
            watchdogTickEvent = events.scheduleAfter(
                launch + usToNs(options.watchdogNoProgressUs),
                [this] { watchdogTick(); });
        }
        events.scheduleAfter(launch, [this] {
            if (tbs.empty()) {
                finishAll();
                return;
            }
            TimeNs now = events.now();
            for (TbState &tb : tbs)
                stage(now, tb.rank, kActAdvance, tb.flatId);
            syncDue();
        });
    }

    void
    watchdogTick()
    {
        watchdogTickEvent = 0;
        if (done)
            return;
        if (progress == lastProgress) {
            abort(strprintf("watchdog: no progress for %.1fus",
                            options.watchdogNoProgressUs));
            return;
        }
        lastProgress = progress;
        watchdogTickEvent = events.scheduleAfter(
            usToNs(options.watchdogNoProgressUs),
            [this] { watchdogTick(); });
    }

    /**
     * Clean watchdog abort: no further instruction makes progress,
     * queued actions and the send arena are freed at once, the trace
     * file is flushed, and the completion callback
     * receives aborted stats carrying the blocked-set diagnosis.
     * DataStore contents are whatever the executed prefix wrote —
     * rollback is the caller's policy (see Communicator::run).
     */
    void
    abort(const std::string &why)
    {
        if (done)
            return;
        stats.aborted = true;
        stats.abortReason = why + ":\n" + blockedReport();
        stats.blockedLinks = blockedLinks();
        finishAll();
    }

    /**
     * Attributes every unfinished thread block to the connection's
     * link it is waiting on (the same conditions blockedReport
     * prints, minus the dependency-only waits, which have no link).
     */
    std::vector<Link>
    blockedLinks() const
    {
        std::vector<Link> links;
        for (const TbState &tb : tbs) {
            if (tb.finished || tb.numSteps == 0)
                continue;
            const IrInstruction &instr = instrOf(tb);
            if (tb.busy) {
                if (irOpSends(instr.op))
                    links.push_back(Link{ tb.rank, tb.tb->sendPeer });
            } else if (irOpReceives(instr.op) &&
                       conns[tb.recvConn].count == 0) {
                links.push_back(Link{ tb.tb->recvPeer, tb.rank });
            } else if (irOpSends(instr.op) &&
                       conns[tb.sendConn].occupied >= proto.slots) {
                links.push_back(Link{ tb.rank, tb.tb->sendPeer });
            }
        }
        std::sort(links.begin(), links.end());
        links.erase(std::unique(links.begin(), links.end()),
                    links.end());
        return links;
    }

    /** The runtime twin of the verifier's deadlock report. */
    std::string
    blockedReport() const
    {
        std::string report;
        for (const TbState &tb : tbs) {
            if (tb.finished || tb.numSteps == 0)
                continue;
            const IrInstruction &instr = instrOf(tb);
            std::string reason;
            if (tb.busy) {
                if (irOpSends(instr.op)) {
                    reason = strprintf(
                        "send to rank %d ch %d to drain (in flight, "
                        "occupied=%d)", tb.tb->sendPeer,
                        tb.tb->channel, conns[tb.sendConn].occupied);
                } else {
                    reason = "local work to complete (in flight)";
                }
            } else if (irOpReceives(instr.op) &&
                       conns[tb.recvConn].count == 0) {
                reason = strprintf(
                    "data from rank %d ch %d (inbox empty)",
                    tb.tb->recvPeer, tb.tb->channel);
            } else if (irOpSends(instr.op) &&
                       conns[tb.sendConn].occupied >= proto.slots) {
                reason = strprintf(
                    "FIFO slot to rank %d ch %d (occupied=%d)",
                    tb.tb->sendPeer, tb.tb->channel,
                    conns[tb.sendConn].occupied);
            } else {
                reason = "dependency";
                for (const IrDep &dep : ir.gpus.deps(instr)) {
                    int dep_flat = flatOf(tb.rank, dep.tb);
                    long needed = static_cast<long>(tb.tile) *
                        static_cast<long>(tbs[dep_flat].numSteps) +
                        dep.step + 1;
                    if (tbs[dep_flat].units < needed) {
                        reason = strprintf(
                            "tb %d step %d (units=%ld, needed=%ld)",
                            dep.tb, dep.step, tbs[dep_flat].units,
                            needed);
                        break;
                    }
                }
            }
            report += formatBlockedThreadBlock(
                tb.rank, tb.tb->id, tb.step,
                instr.toString(ir.gpus.deps(instr)), reason);
        }
        return report;
    }

    void
    finishAll()
    {
        done = true;
        if (watchdogAbsEvent != 0) {
            events.cancel(watchdogAbsEvent);
            watchdogAbsEvent = 0;
        }
        if (watchdogTickEvent != 0) {
            events.cancel(watchdogTickEvent);
            watchdogTickEvent = 0;
        }
        stats.endNs = events.now();
        stats.faultsSeen = network.faultsFired();
        stats.firedFaults = network.firedFaults();
        if (!options.traceFile.empty())
            writeTrace();
        releaseRunState();
        if (onComplete)
            onComplete(stats);
    }

    /**
     * Emits the chrome://tracing JSON timeline. Rows are sorted into
     * canonical (rank, tb, tile, step) order so the file content is
     * a pure function of the simulated schedule — same-time
     * completion callbacks may execute in different orders across
     * simulator versions without perturbing the trace.
     */
    void
    writeTrace()
    {
        std::sort(trace.begin(), trace.end(),
                  [](const TraceEvent &a, const TraceEvent &b) {
                      return std::tie(a.rank, a.tb, a.tile, a.step) <
                          std::tie(b.rank, b.tb, b.tile, b.step);
                  });
        std::FILE *file = std::fopen(options.traceFile.c_str(), "w");
        if (file == nullptr) {
            throw RuntimeError("interpreter: cannot write trace to " +
                               options.traceFile);
        }
        std::fputs("[\n", file);
        for (size_t i = 0; i < trace.size(); i++) {
            const TraceEvent &ev = trace[i];
            double ts = static_cast<double>(ev.startNs) / 1000.0;
            double dur =
                static_cast<double>(ev.endNs - ev.startNs) / 1000.0;
            std::fprintf(file,
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"tile\":%d,\"step\":%d}}%s\n",
                irOpName(ev.op), ev.rank, ev.tb, ts, dur, ev.tile,
                ev.step, i + 1 < trace.size() ? "," : "");
        }
        std::fputs("]\n", file);
        std::fclose(file);
    }

    /** Same-rank wake: the waiter's rank owns the waiting slot, so
     *  the per-rank phase may advance it inline. */
    void
    wake(int &slot_ref)
    {
        int id = slot_ref;
        slot_ref = -1;
        if (id >= 0)
            tryAdvance(id);
    }

    /** Semaphore waiters are same-rank by construction (IrDep names
     *  a thread block on the publishing rank). */
    void
    bumpUnits(TbState &tb)
    {
        tb.units++;
        std::vector<std::pair<long, int>> &waiters =
            semWaiters[tb.flatId];
        for (size_t i = 0; i < waiters.size();) {
            if (waiters[i].first <= tb.units) {
                int waiter = waiters[i].second;
                waiters[i] = waiters.back();
                waiters.pop_back();
                tryAdvance(waiter);
            } else {
                i++;
            }
        }
    }

    void
    tryAdvance(int flat)
    {
        TbState &tb = tbs[flat];
        if (tb.busy || tb.finished)
            return;
        if (tb.numSteps == 0 || tb.tile >= numTiles) {
            tb.finished = true;
            finishedTbs++; // runBatch detects completion

            return;
        }
        const IrInstruction &instr = instrOf(tb);

        // Cross thread block dependencies (same rank).
        for (const IrDep &dep : ir.gpus.deps(instr)) {
            int dep_flat = flatOf(tb.rank, dep.tb);
            long needed = static_cast<long>(tb.tile) *
                static_cast<long>(tbs[dep_flat].numSteps) +
                dep.step + 1;
            if (tbs[dep_flat].units < needed) {
                semWaiters[dep_flat].emplace_back(needed, flat);
                return;
            }
        }

        std::uint64_t payload;
        if (tb.cachedTile == tb.tile && tb.cachedStep == tb.step) {
            payload = tb.cachedPayload;
        } else {
            payload = payloadBytes(instr, tb.tile);
            tb.cachedPayload = payload;
            tb.cachedTile = tb.tile;
            tb.cachedStep = tb.step;
        }
        bool receives = irOpReceives(instr.op) && payload > 0;
        bool sends = irOpSends(instr.op) && payload > 0;

        if (receives) {
            ConnState &in = conns[tb.recvConn];
            if (in.count == 0) {
                in.waitingReceiver = flat;
                return;
            }
        }
        if (sends) {
            ConnState &out = conns[tb.sendConn];
            if (out.occupied >= proto.slots) {
                out.waitingSender = flat;
                return;
            }
        }

        execute(tb, instr, payload, receives, sends);
    }

    void
    execute(TbState &tb, const IrInstruction &instr,
            std::uint64_t payload, bool receives, bool sends)
    {
        tb.busy = true;
        tb.busyStartNs = events.now();

        Message incoming;
        if (receives) {
            incoming = popInbox(conns[tb.recvConn]);
            if (incoming.bytes != payload) {
                throw RuntimeError(strprintf(
                    "interpreter: rank %d tb %d: message of %llu bytes "
                    "does not match expected %llu (FIFO mismatch)",
                    tb.rank, tb.tb->id,
                    static_cast<unsigned long long>(incoming.bytes),
                    static_cast<unsigned long long>(payload)));
            }
        }

        // Functional effect (data mode) happens atomically here; the
        // event schedule below models when it becomes visible.
        Message outgoing;
        outgoing.bytes = payload;
        if (options.dataMode)
            applyData(tb, instr, incoming, outgoing);

        if (sends) {
            if (!tb.sendRouted) {
                // Throws the canonical "no route" error.
                topology.route(tb.rank, tb.tb->sendPeer);
            }
            conns[tb.sendConn].occupied++;
            // Time the thread block itself is occupied before the
            // data starts streaming: instruction issue, semaphore
            // publication, and the per-slot flag synchronization for
            // tiles spanning multiple FIFO slots (tile-count capping,
            // see ExecOptions).
            double issue_us = tb.tile == 0
                ? topology.params().instrOverheadUs
                : proto.perSlotOverheadUs;
            if (instr.hasDep)
                issue_us += 0.2;
            std::uint64_t slot_crossings =
                (payload + proto.slotBytes - 1) / proto.slotBytes;
            if (slot_crossings > 1)
                issue_us += proto.perSlotOverheadUs *
                    static_cast<double>(slot_crossings - 1);

            double wire_bytes =
                static_cast<double>(payload) / proto.efficiency;
            wire_bytes += tb.sendPerMessageWireBytes;
            // Link latency is NOT thread block occupancy: the sender
            // moves on once its last byte is in the FIFO, while the
            // message only becomes visible to the receiver a
            // protocol+link alpha later. Protocols stream: only the
            // first tile of a chunk pays the full protocol alpha;
            // later tiles ride the established slot pipeline.
            TimeNs alpha_ns =
                tb.tile == 0 ? tb.sendAlpha0Ns : tb.sendAlphaNNs;

            int idx = allocSendOp();
            SendOp &op = sendPool[idx];
            op.msg = std::move(outgoing);
            op.flat = tb.flatId;
            op.conn = tb.sendConn;
            op.receives = receives;
            op.alphaNs = alpha_ns;
            op.wireBytes = wire_bytes;
            op.capGBps = tb.sendCapGBps;
            op.resources = tb.sendResources;
            stats.messages++;
            rankWireBytes += wire_bytes;
            // Only launches touch the network, so a launch commutes
            // with its rank's other actions at its instant: staging
            // it here instead of in the merge keeps the order of
            // network calls (ranks ascending, then staging order).
            stage(events.now() + usToNs(issue_us), tb.rank, kActLaunch,
                  idx);
        } else {
            // All local costs are strictly positive, so the
            // completion lands in a strictly later batch — no
            // same-instant self-cascade inside the per-rank phase.
            double cost_us = localCostUs(instr, payload, tb.tile);
            stage(events.now() + usToNs(cost_us), tb.rank,
                  kActComplete, tb.flatId, receives);
        }
    }

    /** Issue done: the send's flow enters the network. */
    void
    launch(int idx)
    {
        const SendOp &op = sendPool[idx];
        network.startFlow(*op.resources, op.capGBps, op.wireBytes,
                          [this, idx] { flowDrained(idx); });
    }

    /**
     * The wire drained: the sender's completion is its rank's work at
     * this instant, the delivery is the destination rank's an alpha
     * later.
     */
    void
    flowDrained(int idx)
    {
        if (done)
            return; // aborted: releaseRunState freed the arena
        const SendOp &op = sendPool[idx];
        TimeNs now = events.now();
        stage(now, tbs[op.flat].rank, kActComplete, op.flat, op.receives);
        stage(now + op.alphaNs, ir.gpus.connections()[op.conn].dst,
              kActDeliver, idx);
        syncDue();
    }

    /** A sent tile arrived at the destination rank. */
    void
    deliver(int idx)
    {
        ConnState &conn = conns[sendPool[idx].conn];
        pushInbox(conn, std::move(sendPool[idx].msg));
        freeSendOp(idx);
        progress++;
        wake(conn.waitingReceiver);
    }

    /** Wraps up the current instruction of a thread block. */
    void
    completeInstr(int flat, bool received)
    {
        progress++;
        TbState &tb = tbs[flat];
        if (traceEnabled) {
            // writeTrace's canonical sort makes the file bytes
            // independent of the append order.
            trace.push_back(TraceEvent{
                tb.rank, tb.tb->id, tb.tile, tb.step,
                instrOf(tb).op, tb.busyStartNs,
                events.now() });
        }
        if (debugLog) {
            logDebug(strprintf(
                "t=%8.2fus rank %d tb %d tile %d step %d done: %s",
                static_cast<double>(events.now()) / 1000.0, tb.rank,
                tb.tb->id, tb.tile, tb.step,
                instrOf(tb).toString(ir.gpus.deps(instrOf(tb))).c_str()));
        }
        if (received) {
            // Consuming the message frees the sender's FIFO slot —
            // sender-side state, owned by the peer rank: the merge
            // phase applies it and restages the blocked sender.
            slotFreed.push_back(tb.recvConn);
        }
        bumpUnits(tb);
        tb.busy = false;
        tb.step++;
        if (tb.step >= tb.numSteps) {
            tb.step = 0;
            tb.tile++;
        }
        tryAdvance(flat);
    }

    /** Applies the instruction's data transformation (data mode). */
    void
    applyData(TbState &tb, const IrInstruction &instr,
              Message &incoming, Message &outgoing)
    {
        switch (instr.op) {
          case IrOp::Nop:
            break;
          case IrOp::Send:
            outgoing.data = readSpan(tb.rank, instr.srcBuf,
                                     instr.srcOff, instr, tb.tile);
            break;
          case IrOp::Recv:
            writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                      tb.tile, incoming.data);
            break;
          case IrOp::Copy: {
            std::vector<float> values = readSpan(
                tb.rank, instr.srcBuf, instr.srcOff, instr, tb.tile);
            writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                      tb.tile, values);
            break;
          }
          case IrOp::Reduce: {
            std::vector<float> src = readSpan(
                tb.rank, instr.srcBuf, instr.srcOff, instr, tb.tile);
            std::vector<float> dst = readSpan(
                tb.rank, instr.dstBuf, instr.dstOff, instr, tb.tile);
            for (size_t i = 0; i < dst.size(); i++)
                dst[i] = applyReduce(ir.reduceOp, src[i], dst[i]);
            writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                      tb.tile, dst);
            break;
          }
          case IrOp::RecvReduceCopy:
          case IrOp::RecvReduceSend:
          case IrOp::RecvReduceCopySend: {
            std::vector<float> local = readSpan(
                tb.rank, instr.srcBuf, instr.srcOff, instr, tb.tile);
            if (incoming.data.size() != local.size())
                throw RuntimeError("interpreter: rrc size mismatch");
            for (size_t i = 0; i < local.size(); i++) {
                local[i] = applyReduce(ir.reduceOp, local[i],
                                       incoming.data[i]);
            }
            if (irOpWritesDst(instr.op)) {
                writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                          tb.tile, local);
            }
            if (irOpSends(instr.op))
                outgoing.data = std::move(local);
            break;
          }
          case IrOp::RecvCopySend:
            writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                      tb.tile, incoming.data);
            outgoing.data = std::move(incoming.data);
            break;
        }
    }
};

IrExecution::IrExecution(const Topology &topology, const IrProgram &ir,
                         EventQueue &events, FlowNetwork &network,
                         ExecOptions options, DataStore *data)
    : impl_(std::make_unique<Impl>(topology, ir, events, network,
                                   options, data))
{
}

IrExecution::~IrExecution() = default;

void
IrExecution::start(std::function<void(const ExecStats &)> on_complete)
{
    impl_->start(std::move(on_complete));
}

std::string
IrExecution::blockedReport() const
{
    return impl_->blockedReport();
}

ExecStats
runIr(const Topology &topology, const IrProgram &ir,
      const ExecOptions &options, DataStore *data)
{
    EventQueue events;
    FlowNetwork network(topology, events);
    events.setProfile(options.profile);
    network.setProfile(options.profile);
    const FaultSchedule &faults =
        options.faults != nullptr ? *options.faults
                                  : topology.faultSchedule();
    if (!faults.empty())
        network.injectFaults(faults);
    if (options.dataMode && data != nullptr)
        data->configure(ir, options.bytesPerRank);
    IrExecution exec(topology, ir, events, network, options, data);
    ExecStats result;
    bool done = false;
    exec.start([&](const ExecStats &stats) {
        result = stats;
        done = true;
    });
    events.run();
    if (!done)
        throw RuntimeError(
            "interpreter: execution wedged (runtime deadlock):\n" +
            exec.blockedReport());
    return result;
}

} // namespace mscclang
