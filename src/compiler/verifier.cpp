#include "compiler/verifier.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/frac.h"
#include "compiler/unionfind.h"

namespace mscclang {

namespace {

/** A value id meaning "never written". */
constexpr int kUninit = -1;
/** A cell value meaning "split: read the cell's segment list". */
constexpr int kSplit = -2;

/**
 * The values of one verification run, interned: buffer cells, FIFO
 * parts and reductions carry int ids into this append-only table,
 * so moving a value costs one word and no allocation. Ids are not
 * canonical — two reductions with equal results get different ids —
 * so equality compares ids first and falls back to the values.
 */
class ValueTable
{
  public:
    int
    intern(ChunkValue value)
    {
        values_.push_back(std::move(value));
        return static_cast<int>(values_.size()) - 1;
    }

    const ChunkValue &operator[](int id) const { return values_[id]; }

    bool
    same(int a, int b) const
    {
        return a == b || values_[a] == values_[b];
    }

  private:
    std::vector<ChunkValue> values_;
};

/** One byte fraction of a split cell and the value it holds. */
struct Segment
{
    FracInterval range;
    int value;
};

/**
 * A buffer location. Parallelized instances write disjoint fractions
 * that later whole-chunk reads see as one value once every instance
 * has landed. A cell whose last write covered the whole chunk holds
 * that value's id inline; only a split write moves it to a segment
 * list (sorted by lo, disjoint), which the cell keeps for reuse.
 */
struct Cell
{
    int value = kUninit; // value id, kUninit or kSplit
    int segments = -1;   // index of the cell's segment list, or -1
};

bool
isWholeChunk(const FracInterval &range)
{
    return range.lo == Frac{ 0, 1 } && range.hi == Frac{ 1, 1 };
}

/**
 * A FIFO ring buffer that only allocates when it grows past its
 * largest size so far.
 */
template <typename T>
class Ring
{
  public:
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const T &front() const { return buf_[head_]; }

    void
    push_back(const T &item)
    {
        if (count_ == buf_.size()) {
            std::vector<T> grown;
            grown.reserve(std::max<size_t>(4, 2 * buf_.size()));
            for (size_t i = 0; i < count_; i++)
                grown.push_back(buf_[(head_ + i) % buf_.size()]);
            grown.resize(grown.capacity());
            buf_.swap(grown);
            head_ = 0;
        }
        buf_[(head_ + count_) % buf_.size()] = item;
        count_++;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) % buf_.size();
        count_--;
    }

  private:
    std::vector<T> buf_;
    size_t head_ = 0;
    size_t count_ = 0;
};

/**
 * One message in flight: instr.count parts, part k carrying chunk
 * k of the sender's slice, all over the sender's byte fraction.
 */
struct MessageHeader
{
    int parts = 0;
    FracInterval range;
};

/** One connection's FIFO: message headers and their parts' values. */
struct Connection
{
    Ring<MessageHeader> messages;
    Ring<int> parts;
};

/**
 * Connection identity (src, dst, channel) packed into one integer.
 * Fields are packed most-significant-first, so sorting packed keys
 * reproduces tuple order for the deadlock report.
 */
using ConnKey = std::uint64_t;

ConnKey
connKeyOf(int src, int dst, int channel)
{
    return (std::uint64_t(src) << 43) | (std::uint64_t(dst) << 22) |
        std::uint64_t(channel);
}

/** Abstract machine state for one verification run. */
class AbstractMachine
{
  public:
    AbstractMachine(const IrProgram &ir, const Collective &collective,
                    const VerifyOptions &options)
        : ir_(ir), collective_(collective), options_(options)
    {
        buffers_.resize(ir.numRanks);
        cursors_.resize(ir.numRanks);
        for (const IrGpu &gpu : ir.gpus) {
            if (gpu.rank < 0 || gpu.rank >= ir.numRanks)
                throw VerificationError("IR names an out-of-range rank");
            RankBuffers &bufs = buffers_[gpu.rank];
            bufs.input.assign(gpu.inputChunks, Cell{});
            if (!ir.inPlace)
                bufs.output.assign(gpu.outputChunks, Cell{});
            bufs.scratch.assign(gpu.scratchChunks, Cell{});
            for (int i = 0; i < gpu.inputChunks; i++) {
                bufs.input[i].value =
                    values_.intern(ChunkValue::input(gpu.rank, i));
            }
            cursors_[gpu.rank].assign(gpu.threadBlocks.size(), 0);
        }
        indexConnections();
    }

    /** Runs to completion; throws on deadlock or semantic error. */
    void
    run()
    {
        bool progress = true;
        while (progress) {
            progress = false;
            const TbConns *conns = tbConns_.data();
            for (const IrGpu &gpu : ir_.gpus) {
                for (const IrThreadBlock &tb : gpu.threadBlocks) {
                    while (tryStep(gpu, tb, *conns))
                        progress = true;
                    conns++;
                }
            }
        }
        std::string blocked = blockedReport();
        if (!blocked.empty()) {
            // Report undelivered connections in (src, dst, channel)
            // order: dense indexes follow sorted packed keys.
            std::string conns;
            for (size_t c = 0; c < connections_.size(); c++) {
                size_t count = connections_[c].messages.size();
                if (count == 0)
                    continue;
                ConnKey key = connKeys_[c];
                conns += strprintf(
                    "  conn %d -> %d ch %d: %zu undelivered\n",
                    static_cast<int>(key >> 43),
                    static_cast<int>((key >> 22) & 0x1FFFFF),
                    static_cast<int>(key & 0x3FFFFF), count);
            }
            throw VerificationError("deadlock detected:\n" + blocked +
                                    conns);
        }
        if (options_.checkPostcondition)
            checkPostcondition();
    }

  private:
    struct RankBuffers
    {
        std::vector<Cell> input;
        std::vector<Cell> output;
        std::vector<Cell> scratch;
    };

    /** Dense connection indexes of one thread block (-1: none). */
    struct TbConns
    {
        int send = -1;
        int recv = -1;
    };

    /**
     * Maps every (src, dst, channel) a thread block names to a dense
     * index, once: indexes follow sorted packed keys.
     */
    void
    indexConnections()
    {
        for (const IrGpu &gpu : ir_.gpus) {
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                if (tb.sendPeer >= 0)
                    connKeys_.push_back(
                        connKeyOf(gpu.rank, tb.sendPeer, tb.channel));
                if (tb.recvPeer >= 0)
                    connKeys_.push_back(
                        connKeyOf(tb.recvPeer, gpu.rank, tb.channel));
            }
        }
        std::sort(connKeys_.begin(), connKeys_.end());
        connKeys_.erase(std::unique(connKeys_.begin(), connKeys_.end()),
                        connKeys_.end());
        connections_.resize(connKeys_.size());
        auto index_of = [&](ConnKey key) {
            return static_cast<int>(
                std::lower_bound(connKeys_.begin(), connKeys_.end(),
                                 key) -
                connKeys_.begin());
        };
        for (const IrGpu &gpu : ir_.gpus) {
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                TbConns conns;
                if (tb.sendPeer >= 0)
                    conns.send = index_of(
                        connKeyOf(gpu.rank, tb.sendPeer, tb.channel));
                if (tb.recvPeer >= 0)
                    conns.recv = index_of(
                        connKeyOf(tb.recvPeer, gpu.rank, tb.channel));
                tbConns_.push_back(conns);
            }
        }
    }

    std::vector<Cell> &
    bufferOf(int rank, BufferKind kind)
    {
        RankBuffers &bufs = buffers_[rank];
        BufferKind canonical = kind;
        if (ir_.inPlace && kind == BufferKind::Output)
            canonical = BufferKind::Input;
        switch (canonical) {
          case BufferKind::Input: return bufs.input;
          case BufferKind::Output: return bufs.output;
          case BufferKind::Scratch: return bufs.scratch;
        }
        throw VerificationError("bad buffer kind");
    }

    Cell &
    cellAt(int rank, BufferKind buf, int index, const char *what)
    {
        std::vector<Cell> &cells = bufferOf(rank, buf);
        if (index < 0 || static_cast<size_t>(index) >= cells.size()) {
            throw VerificationError(strprintf(
                "%s: rank %d %s[%d] out of bounds (%zu chunks)", what,
                rank, bufferKindName(buf), index, cells.size()));
        }
        return cells[index];
    }

    /** Writes value @p id over @p range of @p cell. */
    void
    writeCell(Cell &cell, const FracInterval &range, int id)
    {
        if (isWholeChunk(range)) {
            cell.value = id;
            return;
        }
        if (cell.segments < 0) {
            cell.segments = static_cast<int>(segmentLists_.size());
            segmentLists_.emplace_back();
        }
        std::vector<Segment> &segs = segmentLists_[cell.segments];
        if (cell.value >= 0)
            segs.assign(1, Segment{ { Frac{ 0, 1 }, Frac{ 1, 1 } },
                                    cell.value });
        else if (cell.value == kUninit)
            segs.clear();
        cell.value = kSplit;

        // Trim the segments the write overlaps, then insert it. The
        // pieces are disjoint and non-empty, so their lo bounds are
        // distinct and the sort is deterministic.
        scratchSegments_.clear();
        for (const Segment &seg : segs) {
            if (!seg.range.overlaps(range)) {
                scratchSegments_.push_back(seg);
                continue;
            }
            if (seg.range.lo < range.lo) {
                scratchSegments_.push_back(
                    Segment{ { seg.range.lo, range.lo }, seg.value });
            }
            if (range.hi < seg.range.hi) {
                scratchSegments_.push_back(
                    Segment{ { range.hi, seg.range.hi }, seg.value });
            }
        }
        scratchSegments_.push_back(Segment{ range, id });
        std::sort(scratchSegments_.begin(), scratchSegments_.end(),
                  [](const Segment &a, const Segment &b) {
                      return a.range.lo < b.range.lo;
                  });
        segs.assign(scratchSegments_.begin(), scratchSegments_.end());
    }

    /**
     * Reads @p range of @p cell; every byte must be initialized and
     * hold the same value. Returns the value's id, or kUninit with
     * @p why set.
     */
    int
    readCell(const Cell &cell, const FracInterval &range,
             std::string &why) const
    {
        if (cell.value >= 0)
            return cell.value;
        if (cell.value == kUninit) {
            why = "uninitialized bytes at fraction " + range.lo.toString();
            return kUninit;
        }
        int value = kUninit;
        Frac cursor = range.lo;
        for (const Segment &seg : segmentLists_[cell.segments]) {
            if (!seg.range.overlaps(range))
                continue;
            if (cursor < seg.range.lo) {
                why = "uninitialized bytes at fraction " +
                    cursor.toString();
                return kUninit;
            }
            if (value >= 0 && !values_.same(value, seg.value)) {
                why = "torn read: fractions hold different values (" +
                    values_[value].toString() + " vs " +
                    values_[seg.value].toString() + ")";
                return kUninit;
            }
            value = seg.value;
            if (cursor < seg.range.hi)
                cursor = seg.range.hi;
        }
        if (cursor < range.hi) {
            why = "uninitialized bytes at fraction " + cursor.toString();
            return kUninit;
        }
        if (value < 0)
            why = "empty read range";
        return value;
    }

    int
    readPart(int rank, BufferKind buf, int index,
             const FracInterval &range, const char *what)
    {
        const Cell &cell = cellAt(rank, buf, index, what);
        std::string why;
        int value = readCell(cell, range, why);
        if (value < 0) {
            throw VerificationError(strprintf(
                "%s: rank %d %s[%d]: %s", what, rank,
                bufferKindName(buf), index, why.c_str()));
        }
        return value;
    }

    void
    writePart(int rank, BufferKind buf, int index,
              const FracInterval &range, int value, const char *what)
    {
        writeCell(cellAt(rank, buf, index, what), range, value);
    }

    int
    reduce(int a, int b)
    {
        return values_.intern(ChunkValue::reduce(values_[a], values_[b]));
    }

    bool
    depsSatisfied(const IrGpu &gpu, const IrInstruction &instr) const
    {
        for (const IrDep &dep : instr.deps) {
            if (dep.tb < 0 ||
                static_cast<size_t>(dep.tb) >=
                    cursors_[gpu.rank].size()) {
                throw VerificationError(strprintf(
                    "rank %d: dependency names unknown thread block %d",
                    gpu.rank, dep.tb));
            }
            if (cursors_[gpu.rank][dep.tb] <= dep.step)
                return false;
        }
        return true;
    }

    /** Attempts the thread block's next instruction. */
    bool
    tryStep(const IrGpu &gpu, const IrThreadBlock &tb,
            const TbConns &conns)
    {
        size_t tb_idx = static_cast<size_t>(tb.id);
        int &cursor = cursors_[gpu.rank][tb_idx];
        if (cursor >= static_cast<int>(tb.steps.size()))
            return false;
        const IrInstruction &instr = tb.steps[cursor];
        if (!depsSatisfied(gpu, instr))
            return false;

        bool receives = irOpReceives(instr.op);
        bool sends = irOpSends(instr.op);

        if (receives && tb.recvPeer < 0)
            throw VerificationError(strprintf(
                "rank %d tb %d: %s without a receive peer", gpu.rank,
                tb.id, irOpName(instr.op)));
        if (sends && tb.sendPeer < 0)
            throw VerificationError(strprintf(
                "rank %d tb %d: %s without a send peer", gpu.rank,
                tb.id, irOpName(instr.op)));

        Connection *inbox = nullptr;
        if (receives) {
            inbox = &connections_[conns.recv];
            if (inbox->messages.empty())
                return false; // waiting for data
        }
        Connection *outbox = nullptr;
        if (sends) {
            outbox = &connections_[conns.send];
            if (static_cast<int>(outbox->messages.size()) >=
                options_.slots)
                return false; // waiting for a FIFO slot
        }

        // The instruction can execute; compute its effect. Every part
        // k covers chunk instr.*Off + k over the same byte fraction.
        FracInterval range =
            splitFraction(instr.splitIdx, instr.splitCount);
        size_t count = static_cast<size_t>(instr.count);

        // Incoming part values are copied out before any outgoing
        // part is queued: a connection may loop back to its sender.
        incoming_.clear();
        if (receives) {
            MessageHeader header = inbox->messages.front();
            inbox->messages.pop_front();
            for (int k = 0; k < header.parts; k++) {
                incoming_.push_back(inbox->parts.front());
                inbox->parts.pop_front();
            }
            // Shape check: FIFO pairing must deliver exactly the
            // fractions this receive expects.
            if (incoming_.size() != count) {
                throw VerificationError(strprintf(
                    "rank %d tb %d step %d: FIFO mismatch (message has "
                    "%zu parts, receive expects %zu)", gpu.rank, tb.id,
                    cursor, incoming_.size(), count));
            }
            if (count > 0 && !(header.range == range)) {
                throw VerificationError(strprintf(
                    "rank %d tb %d step %d: FIFO mismatch (part %zu "
                    "shape differs from the matched send)",
                    gpu.rank, tb.id, cursor, size_t{ 0 }));
            }
        }

        outgoing_.clear();
        switch (instr.op) {
          case IrOp::Nop:
            break;
          case IrOp::Send:
            for (int rel = 0; rel < instr.count; rel++) {
                outgoing_.push_back(readPart(gpu.rank, instr.srcBuf,
                                             instr.srcOff + rel, range,
                                             "send"));
            }
            break;
          case IrOp::Recv:
            for (size_t i = 0; i < count; i++) {
                writePart(gpu.rank, instr.dstBuf,
                          instr.dstOff + static_cast<int>(i),
                          range, incoming_[i], "recv");
            }
            break;
          case IrOp::Copy:
            for (int rel = 0; rel < instr.count; rel++) {
                int value = readPart(gpu.rank, instr.srcBuf,
                                     instr.srcOff + rel, range, "copy");
                writePart(gpu.rank, instr.dstBuf, instr.dstOff + rel,
                          range, value, "copy");
            }
            break;
          case IrOp::Reduce:
            for (int rel = 0; rel < instr.count; rel++) {
                int a = readPart(gpu.rank, instr.srcBuf,
                                 instr.srcOff + rel, range, "reduce");
                int b = readPart(gpu.rank, instr.dstBuf,
                                 instr.dstOff + rel, range, "reduce");
                writePart(gpu.rank, instr.dstBuf, instr.dstOff + rel,
                          range, reduce(a, b), "reduce");
            }
            break;
          case IrOp::RecvReduceCopy:
          case IrOp::RecvReduceSend:
          case IrOp::RecvReduceCopySend:
            for (size_t i = 0; i < count; i++) {
                int rel = static_cast<int>(i);
                int local = readPart(gpu.rank, instr.srcBuf,
                                     instr.srcOff + rel, range,
                                     irOpName(instr.op));
                int combined = reduce(local, incoming_[i]);
                if (irOpWritesDst(instr.op)) {
                    writePart(gpu.rank, instr.dstBuf,
                              instr.dstOff + rel, range, combined,
                              irOpName(instr.op));
                }
                if (sends)
                    outgoing_.push_back(combined);
            }
            break;
          case IrOp::RecvCopySend:
            for (size_t i = 0; i < count; i++) {
                int rel = static_cast<int>(i);
                writePart(gpu.rank, instr.dstBuf, instr.dstOff + rel,
                          range, incoming_[i], "rcs");
                outgoing_.push_back(incoming_[i]);
            }
            break;
        }

        if (sends) {
            outbox->messages.push_back(MessageHeader{
                static_cast<int>(outgoing_.size()), range });
            for (int value : outgoing_)
                outbox->parts.push_back(value);
        }

        cursor++;
        return true;
    }

    std::string
    blockedReport() const
    {
        std::string report;
        const TbConns *conns = tbConns_.data();
        for (const IrGpu &gpu : ir_.gpus) {
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                const TbConns &tb_conns = *conns++;
                int cursor = cursors_[gpu.rank][tb.id];
                if (cursor >= static_cast<int>(tb.steps.size()))
                    continue;
                const IrInstruction &instr = tb.steps[cursor];
                std::string reason = "dependency";
                if (irOpReceives(instr.op)) {
                    reason = strprintf("data from %d (inbox=%zu) or "
                                       "dependency", tb.recvPeer,
                                       queued(tb_conns.recv));
                } else if (irOpSends(instr.op)) {
                    reason = strprintf("FIFO slot to %d (queued=%zu) or "
                                       "dependency", tb.sendPeer,
                                       queued(tb_conns.send));
                }
                report += formatBlockedThreadBlock(gpu.rank, tb.id,
                                                   cursor, instr,
                                                   reason);
            }
        }
        return report;
    }

    /** Messages queued on connection @p conn (0 for none). */
    size_t
    queued(int conn) const
    {
        return conn < 0 ? 0 : connections_[conn].messages.size();
    }

    void
    checkPostcondition()
    {
        for (const IrGpu &gpu : ir_.gpus) {
            for (int i = 0; i < gpu.outputChunks; i++) {
                auto expected =
                    collective_.expectedOutput(gpu.rank, i);
                if (!expected.has_value())
                    continue;
                std::vector<Cell> &cells =
                    bufferOf(gpu.rank, BufferKind::Output);
                if (static_cast<size_t>(i) >= cells.size()) {
                    throw VerificationError(strprintf(
                        "rank %d: output chunk %d missing", gpu.rank,
                        i));
                }
                std::string why;
                int actual = readCell(
                    cells[i],
                    FracInterval{ Frac::of(0, 1), Frac::of(1, 1) }, why);
                if (actual < 0) {
                    throw VerificationError(strprintf(
                        "postcondition: rank %d output[%d]: %s",
                        gpu.rank, i, why.c_str()));
                }
                if (!(values_[actual] == *expected)) {
                    throw VerificationError(strprintf(
                        "postcondition violated at rank %d output[%d]: "
                        "expected %s, got %s", gpu.rank, i,
                        expected->toString().c_str(),
                        values_[actual].toString().c_str()));
                }
            }
        }
    }

    const IrProgram &ir_;
    const Collective &collective_;
    VerifyOptions options_;
    ValueTable values_;
    std::vector<RankBuffers> buffers_;
    std::vector<std::vector<Segment>> segmentLists_;
    std::vector<std::vector<int>> cursors_;
    std::vector<ConnKey> connKeys_; // sorted; index = connection id
    std::vector<Connection> connections_;
    std::vector<TbConns> tbConns_; // per thread block, in IR order
    // Per-step scratch, reused so a step allocates nothing.
    std::vector<int> incoming_;
    std::vector<int> outgoing_;
    std::vector<Segment> scratchSegments_;
};

} // namespace

void
verifyIr(const IrProgram &ir, const Collective &collective,
         const VerifyOptions &options)
{
    VerifyOptions resolved = options;
    if (resolved.slots == 0)
        resolved.slots = kFifoSlotsPerConnection;
    if (resolved.slots < 1)
        throw VerificationError("verifier: slots must be >= 1");
    AbstractMachine machine(ir, collective, resolved);
    machine.run();
}

namespace {

/** Flat instruction identity for the happens-before analysis. */
struct HbNode
{
    Rank rank;
    int tb;
    int step;
    const IrInstruction *instr;
    const IrThreadBlock *block;
};

/**
 * The happens-before graph of an IR program in CSR form: thread
 * block program order, cross-thread-block dependencies, and
 * FIFO-matched communication edges. Nodes are instructions with a
 * stable global index, densely addressed by (rank, tb, step).
 */
struct HbGraph
{
    std::vector<HbNode> nodes;
    int numRanks = 0;
    std::vector<int> succOff; // successors of v: succ[succOff[v]..succOff[v+1])
    std::vector<int> succ;
    std::vector<int> indeg;

    int n() const { return static_cast<int>(nodes.size()); }
    int outdeg(int v) const { return succOff[v + 1] - succOff[v]; }
};

HbGraph
buildHbGraph(const IrProgram &ir)
{
    HbGraph g;
    int num_ranks = ir.numRanks;
    for (const IrGpu &gpu : ir.gpus) {
        if (gpu.rank < 0)
            throw VerificationError(
                "race check: IR names a negative rank");
        num_ranks = std::max(num_ranks, gpu.rank + 1);
    }
    g.numRanks = num_ranks;
    std::vector<std::vector<int>> tb_base(num_ranks);
    std::vector<std::vector<int>> tb_len(num_ranks);
    for (const IrGpu &gpu : ir.gpus) {
        std::vector<int> &base = tb_base[gpu.rank];
        std::vector<int> &len = tb_len[gpu.rank];
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            if (tb.id < 0)
                throw VerificationError(
                    "race check: IR names a negative thread block id");
            if (tb.id >= static_cast<int>(base.size())) {
                base.resize(tb.id + 1, -1);
                len.resize(tb.id + 1, 0);
            }
            base[tb.id] = static_cast<int>(g.nodes.size());
            len[tb.id] = static_cast<int>(tb.steps.size());
            for (size_t s = 0; s < tb.steps.size(); s++) {
                g.nodes.push_back(HbNode{ gpu.rank, tb.id,
                                          static_cast<int>(s),
                                          &tb.steps[s], &tb });
            }
        }
    }
    int n = g.n();
    auto lookup = [&](Rank rank, int tb, int step) {
        if (rank < 0 || rank >= num_ranks)
            return -1;
        const std::vector<int> &base = tb_base[rank];
        if (tb < 0 || tb >= static_cast<int>(base.size()) ||
            base[tb] < 0) {
            return -1;
        }
        if (step < 0 || step >= tb_len[rank][tb])
            return -1;
        return base[tb] + step;
    };

    std::vector<std::pair<int, int>> edges;
    // (a) thread block program order
    for (int i = 0; i < n; i++) {
        if (g.nodes[i].step + 1 < static_cast<int>(
                g.nodes[i].block->steps.size())) {
            edges.push_back({ i, lookup(g.nodes[i].rank, g.nodes[i].tb,
                                        g.nodes[i].step + 1) });
        }
    }
    // (b) cross thread block dependencies
    for (int i = 0; i < n; i++) {
        for (const IrDep &dep : g.nodes[i].instr->deps) {
            int from = lookup(g.nodes[i].rank, dep.tb, dep.step);
            if (from < 0)
                throw VerificationError(
                    "race check: dependency on unknown instruction");
            edges.push_back({ from, i });
        }
    }
    // (c) communication edges: the k-th send on a connection
    //     happens-before the k-th receive (FIFO pairing). Every send
    //     must have a matched receive and vice versa — an imbalance
    //     would leave the surplus operations with no happens-before
    //     edge and silently weaken the analysis, so it is rejected.
    //     Sort-based pairing: connection keys pack (src, dst,
    //     channel) most-significant-first, so sorted key order is the
    //     tuple order the ordered-map implementation reported in.
    struct ConnEnd
    {
        ConnKey key;
        int node;
    };
    std::vector<ConnEnd> sends, recvs;
    for (int i = 0; i < n; i++) {
        if (irOpSends(g.nodes[i].instr->op)) {
            sends.push_back(ConnEnd{
                connKeyOf(g.nodes[i].rank, g.nodes[i].block->sendPeer,
                          g.nodes[i].block->channel), i });
        }
        if (irOpReceives(g.nodes[i].instr->op)) {
            recvs.push_back(ConnEnd{
                connKeyOf(g.nodes[i].block->recvPeer, g.nodes[i].rank,
                          g.nodes[i].block->channel), i });
        }
    }
    auto by_key_node = [](const ConnEnd &a, const ConnEnd &b) {
        return std::tie(a.key, a.node) < std::tie(b.key, b.node);
    };
    std::sort(sends.begin(), sends.end(), by_key_node);
    std::sort(recvs.begin(), recvs.end(), by_key_node);
    size_t si = 0, ri = 0;
    while (si < sends.size() || ri < recvs.size()) {
        ConnKey key;
        if (ri >= recvs.size() ||
            (si < sends.size() && sends[si].key <= recvs[ri].key)) {
            key = sends[si].key;
        } else {
            key = recvs[ri].key;
        }
        size_t se = si, re = ri;
        while (se < sends.size() && sends[se].key == key)
            se++;
        while (re < recvs.size() && recvs[re].key == key)
            re++;
        if (se - si != re - ri) {
            throw VerificationError(strprintf(
                "race check: connection %d -> %d channel %d has %zu "
                "sends but %zu receives; FIFO pairing requires equal "
                "counts", static_cast<int>(key >> 43),
                static_cast<int>((key >> 22) & 0x1FFFFF),
                static_cast<int>(key & 0x3FFFFF), se - si, re - ri));
        }
        for (size_t k = 0; si + k < se; k++)
            edges.push_back({ sends[si + k].node, recvs[ri + k].node });
        si = se;
        ri = re;
    }

    g.succOff.assign(n + 1, 0);
    g.indeg.assign(n, 0);
    for (const auto &[from, to] : edges) {
        g.succOff[from + 1]++;
        g.indeg[to]++;
    }
    for (int v = 0; v < n; v++)
        g.succOff[v + 1] += g.succOff[v];
    g.succ.resize(edges.size());
    std::vector<int> cursor(g.succOff.begin(), g.succOff.end() - 1);
    for (const auto &[from, to] : edges)
        g.succ[cursor[from]++] = to;
    return g;
}

/** Kahn topological order; doubles as the cycle check. */
std::vector<int>
topoOrderOf(const HbGraph &g)
{
    int n = g.n();
    std::vector<int> order;
    order.reserve(n);
    std::vector<int> degree = g.indeg;
    std::vector<int> ready;
    for (int i = 0; i < n; i++) {
        if (degree[i] == 0)
            ready.push_back(i);
    }
    while (!ready.empty()) {
        int v = ready.back();
        ready.pop_back();
        order.push_back(v);
        for (int e = g.succOff[v]; e < g.succOff[v + 1]; e++) {
            if (--degree[g.succ[e]] == 0)
                ready.push_back(g.succ[e]);
        }
    }
    if (static_cast<int>(order.size()) != n)
        throw VerificationError(
            "race check: happens-before relation has a cycle");
    return order;
}

/** One recorded buffer access of one instruction. */
struct LocEntry
{
    int buffer; // canonical BufferKind as int
    int chunk;
    int node;
    bool isWrite;
    FracInterval range;
};

/**
 * Every buffer access, partitioned by rank: conflicts always live on
 * one rank, so each rank's accesses are checked independently.
 */
std::vector<std::vector<LocEntry>>
recordAccesses(const HbGraph &g, const IrProgram &ir)
{
    std::vector<std::vector<LocEntry>> rank_accesses(g.numRanks);
    auto record = [&](int node, BufferKind buf, int off, bool write) {
        const IrInstruction &instr = *g.nodes[node].instr;
        FracInterval range =
            splitFraction(instr.splitIdx, instr.splitCount);
        BufferKind canonical = buf;
        if (ir.inPlace && buf == BufferKind::Output)
            canonical = BufferKind::Input;
        for (int k = 0; k < instr.count; k++) {
            rank_accesses[g.nodes[node].rank].push_back(
                LocEntry{ static_cast<int>(canonical), off + k, node,
                          write, range });
        }
    };
    for (int i = 0; i < g.n(); i++) {
        const IrInstruction &instr = *g.nodes[i].instr;
        if (irOpReadsSrc(instr.op))
            record(i, instr.srcBuf, instr.srcOff, false);
        if (instr.op == IrOp::Reduce ||
            instr.op == IrOp::RecvReduceCopy) {
            record(i, instr.dstBuf, instr.dstOff, false);
        }
        if (irOpWritesDst(instr.op))
            record(i, instr.dstBuf, instr.dstOff, true);
    }
    return rank_accesses;
}

/** A conflicting access pair whose ordering must be proven. */
struct ConflictPair
{
    int a, b;
    int buffer, chunk;
};

/**
 * Enumerates one rank's conflict pairs — same location, overlapping
 * fractions, at least one write, different thread blocks — in
 * (buffer, chunk, first access, second access) order. Both engines
 * derive candidates from this list in identical order, which is what
 * keeps their verdicts and error messages interchangeable.
 */
std::vector<ConflictPair>
conflictPairs(const HbGraph &g, std::vector<LocEntry> &entries)
{
    // Group by location, keeping node order within each group
    // (entries were recorded in ascending node order).
    std::stable_sort(entries.begin(), entries.end(),
                     [](const LocEntry &a, const LocEntry &b) {
                         return std::tie(a.buffer, a.chunk) <
                             std::tie(b.buffer, b.chunk);
                     });
    std::vector<ConflictPair> pairs;
    for (size_t lo = 0; lo < entries.size();) {
        size_t hi = lo;
        while (hi < entries.size() &&
               entries[hi].buffer == entries[lo].buffer &&
               entries[hi].chunk == entries[lo].chunk) {
            hi++;
        }
        for (size_t a = lo; a < hi; a++) {
            for (size_t b = a + 1; b < hi; b++) {
                if (entries[a].node == entries[b].node)
                    continue;
                if (!entries[a].isWrite && !entries[b].isWrite)
                    continue;
                if (!entries[a].range.overlaps(entries[b].range))
                    continue;
                if (g.nodes[entries[a].node].tb ==
                    g.nodes[entries[b].node].tb) {
                    continue; // ordered by program order
                }
                pairs.push_back(ConflictPair{ entries[a].node,
                                              entries[b].node,
                                              entries[a].buffer,
                                              entries[a].chunk });
            }
        }
        lo = hi;
    }
    return pairs;
}

std::string
raceMessage(const HbGraph &g, const ConflictPair &pair)
{
    const HbNode &na = g.nodes[pair.a];
    const HbNode &nb = g.nodes[pair.b];
    return strprintf(
        "data race: rank %d tb %d step %d and tb %d "
        "step %d access %s[%d] unordered",
        na.rank, na.tb, na.step, nb.tb, nb.step,
        bufferKindName(static_cast<BufferKind>(pair.buffer)),
        pair.chunk);
}

/**
 * The happens-before graph condensed to chains: runs of nodes linked
 * by edges (u, v) with outdeg(u) == 1 and indeg(v) == 1 (program
 * order, dependency and communication edges alike) collapse into one
 * class. The contraction criterion makes every class a path, and it
 * confines cross-class edges to chain endpoints — a cross edge
 * leaves only a chain's last node (any node with another outgoing
 * edge was never merged with a successor) and enters only a chain's
 * first node. Two exactness consequences the verifier relies on:
 * nodes sharing a chain are totally ordered, and for a != b in
 * different chains, a reaches b iff a's chain reaches b's chain in
 * the condensed DAG. Compiled collectives are dominated by long
 * dependency chains, so the condensed graph is typically orders of
 * magnitude smaller than the instruction graph.
 */
struct ChainGraph
{
    int numChains = 0;
    std::vector<int> chainOf; // node -> chain id, ids in topo order
    std::vector<int> succOff; // condensed CSR, deduplicated
    std::vector<int> succ;
};

ChainGraph
condenseChains(const HbGraph &g, const std::vector<int> &order,
               int threads)
{
    int n = g.n();
    ConcurrentUnionFind uf(static_cast<size_t>(n));
    // The contraction is a single scan over nodes: each worker takes
    // a static slice and unions its contractible out-edges. The final
    // partition depends only on the edge set, not the interleaving,
    // so any thread count produces the same chains.
    auto contract = [&](int lo, int hi) {
        for (int u = lo; u < hi; u++) {
            if (g.outdeg(u) != 1)
                continue;
            int v = g.succ[g.succOff[u]];
            if (g.indeg[v] == 1)
                uf.unite(static_cast<size_t>(u),
                         static_cast<size_t>(v));
        }
    };
    if (threads > 1 && n >= 1 << 16) {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        int stride = (n + threads - 1) / threads;
        for (int t = 0; t < threads; t++) {
            int lo = t * stride;
            pool.emplace_back(contract, lo,
                              std::min(n, lo + stride));
        }
        for (std::thread &t : pool)
            t.join();
    } else {
        contract(0, n);
    }

    ChainGraph c;
    c.chainOf.assign(n, -1);
    // Number chains by the topological position of their first node:
    // every other member is a descendant, so the first member of a
    // chain reached in topo order is its head, and ascending chain
    // ids are automatically a topological order of the condensed DAG.
    std::vector<int> id_of_root(n, -1);
    for (int v : order) {
        int root = static_cast<int>(uf.find(static_cast<size_t>(v)));
        if (id_of_root[root] < 0)
            id_of_root[root] = c.numChains++;
        c.chainOf[v] = id_of_root[root];
    }

    std::vector<std::pair<int, int>> cedges;
    for (int u = 0; u < n; u++) {
        for (int e = g.succOff[u]; e < g.succOff[u + 1]; e++) {
            int cu = c.chainOf[u], cv = c.chainOf[g.succ[e]];
            if (cu != cv)
                cedges.push_back({ cu, cv });
        }
    }
    std::sort(cedges.begin(), cedges.end());
    cedges.erase(std::unique(cedges.begin(), cedges.end()),
                 cedges.end());
    c.succOff.assign(c.numChains + 1, 0);
    for (const auto &[from, to] : cedges)
        c.succOff[from + 1]++;
    for (int v = 0; v < c.numChains; v++)
        c.succOff[v + 1] += c.succOff[v];
    c.succ.resize(cedges.size());
    std::vector<int> cursor(c.succOff.begin(), c.succOff.end() - 1);
    for (const auto &[from, to] : cedges)
        c.succ[cursor[from]++] = to;
    return c;
}

/**
 * Chain-condensed per-rank check: candidate columns are chains, and
 * ancestor bits propagate over the condensed DAG (chain ids are
 * already a topological order). Same-chain pairs are ordered by
 * construction.
 */
std::string
checkRankChains(const HbGraph &g, const ChainGraph &c,
                std::vector<LocEntry> &entries)
{
    std::vector<ConflictPair> pairs = conflictPairs(g, entries);
    if (pairs.empty())
        return std::string();

    std::vector<int> cols(c.numChains, -1);
    std::vector<int> cand;
    for (const ConflictPair &pair : pairs) {
        for (int v : { pair.a, pair.b }) {
            int chain = c.chainOf[v];
            if (cols[chain] < 0) {
                cols[chain] = static_cast<int>(cand.size());
                cand.push_back(chain);
            }
        }
    }

    size_t words = (cand.size() + 63) / 64;
    std::vector<std::uint64_t> anc(
        static_cast<size_t>(c.numChains) * words, 0);
    for (int v = 0; v < c.numChains; v++) {
        const std::uint64_t *src = &anc[v * words];
        int vcol = cols[v];
        for (int e = c.succOff[v]; e < c.succOff[v + 1]; e++) {
            std::uint64_t *dst =
                &anc[static_cast<size_t>(c.succ[e]) * words];
            for (size_t w = 0; w < words; w++)
                dst[w] |= src[w];
            if (vcol >= 0) {
                dst[static_cast<size_t>(vcol) / 64] |= 1ULL
                    << (static_cast<size_t>(vcol) % 64);
            }
        }
    }
    auto bit = [&](int of_chain, int anc_chain) {
        int col = cols[anc_chain];
        return (anc[static_cast<size_t>(of_chain) * words +
                    static_cast<size_t>(col) / 64] >>
                    (static_cast<size_t>(col) % 64) &
                1) != 0;
    };
    for (const ConflictPair &pair : pairs) {
        int ca = c.chainOf[pair.a], cb = c.chainOf[pair.b];
        if (ca == cb)
            continue; // a chain is a path: totally ordered
        if (bit(cb, ca) || bit(ca, cb))
            continue;
        return raceMessage(g, pair);
    }
    return std::string();
}

/**
 * Reference per-rank check: candidate columns are instructions and
 * ancestor bits propagate over the full graph — the engine the
 * chain-condensed one must agree with verdict-for-verdict.
 */
std::string
checkRankReference(const HbGraph &g, const std::vector<int> &order,
                   std::vector<LocEntry> &entries)
{
    std::vector<ConflictPair> pairs = conflictPairs(g, entries);
    if (pairs.empty())
        return std::string();

    int n = g.n();
    std::vector<int> cols(n, -1);
    std::vector<int> cand;
    for (const ConflictPair &pair : pairs) {
        for (int v : { pair.a, pair.b }) {
            if (cols[v] < 0) {
                cols[v] = static_cast<int>(cand.size());
                cand.push_back(v);
            }
        }
    }

    size_t words = (cand.size() + 63) / 64;
    std::vector<std::uint64_t> anc(static_cast<size_t>(n) * words, 0);
    for (int v : order) {
        const std::uint64_t *src = &anc[v * words];
        int vcol = cols[v];
        for (int e = g.succOff[v]; e < g.succOff[v + 1]; e++) {
            std::uint64_t *dst =
                &anc[static_cast<size_t>(g.succ[e]) * words];
            for (size_t w = 0; w < words; w++)
                dst[w] |= src[w];
            if (vcol >= 0) {
                dst[static_cast<size_t>(vcol) / 64] |= 1ULL
                    << (static_cast<size_t>(vcol) % 64);
            }
        }
    }
    auto bit = [&](int of, int ancestor) {
        int col = cols[ancestor];
        return (anc[static_cast<size_t>(of) * words +
                    static_cast<size_t>(col) / 64] >>
                    (static_cast<size_t>(col) % 64) &
                1) != 0;
    };
    for (const ConflictPair &pair : pairs) {
        if (bit(pair.b, pair.a) || bit(pair.a, pair.b))
            continue;
        return raceMessage(g, pair);
    }
    return std::string();
}

/** Worker-count resolution shared by both engines. */
int
resolveThreads(int threads)
{
    if (threads > 0)
        return threads;
    return static_cast<int>(std::min(
        16u, std::max(1u, std::thread::hardware_concurrency())));
}

/**
 * Per-rank parallel driver: ranks with conflict candidates drain
 * from a shared work list, and the lowest failing rank's message
 * wins, matching the serial whole-map sweep that visited locations
 * in (rank, buffer, chunk) order.
 */
template <typename CheckRank>
void
driveRankChecks(const HbGraph &g,
                std::vector<std::vector<LocEntry>> &rank_accesses,
                int resolved, const CheckRank &check_rank)
{
    std::vector<int> work;
    for (int r = 0; r < g.numRanks; r++) {
        if (rank_accesses[r].size() > 1)
            work.push_back(r);
    }
    std::vector<std::string> errors(g.numRanks);
    resolved = std::min<int>(resolved, static_cast<int>(work.size()));
    // Small programs aren't worth the thread spawns.
    if (g.n() < 4096)
        resolved = 1;

    std::atomic<size_t> next{ 0 };
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto drain = [&]() {
        for (;;) {
            size_t w = next.fetch_add(1);
            if (w >= work.size())
                return;
            try {
                errors[work[w]] = check_rank(rank_accesses[work[w]]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
                return;
            }
        }
    };
    if (resolved > 1) {
        std::vector<std::thread> pool;
        pool.reserve(resolved);
        for (int t = 0; t < resolved; t++)
            pool.emplace_back(drain);
        for (std::thread &t : pool)
            t.join();
    } else {
        drain();
    }
    if (first_error)
        std::rethrow_exception(first_error);
    for (int r = 0; r < g.numRanks; r++) {
        if (!errors[r].empty())
            throw VerificationError(errors[r]);
    }
}

} // namespace

void
verifyRaceFree(const IrProgram &ir, int threads)
{
    HbGraph g = buildHbGraph(ir);
    std::vector<int> order = topoOrderOf(g);
    int resolved = resolveThreads(threads);
    ChainGraph chains = condenseChains(g, order, resolved);
    std::vector<std::vector<LocEntry>> rank_accesses =
        recordAccesses(g, ir);
    driveRankChecks(g, rank_accesses, resolved,
                    [&](std::vector<LocEntry> &entries) {
                        return checkRankChains(g, chains, entries);
                    });
}

void
verifyRaceFreeReference(const IrProgram &ir, int threads)
{
    HbGraph g = buildHbGraph(ir);
    std::vector<int> order = topoOrderOf(g);
    std::vector<std::vector<LocEntry>> rank_accesses =
        recordAccesses(g, ir);
    driveRankChecks(g, rank_accesses, resolveThreads(threads),
                    [&](std::vector<LocEntry> &entries) {
                        return checkRankReference(g, order, entries);
                    });
}

} // namespace mscclang
