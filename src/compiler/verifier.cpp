#include "compiler/verifier.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/access_history.h"
#include "compiler/frac.h"

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

/**
 * Numbers connections densely in key order — keys pack (src, dst,
 * channel) most-significant-first, so that is tuple order. Returns
 * the distinct keys, sorted; @p ids[i] becomes the number of
 * @p keys[i].
 */
std::vector<ConnKey>
numberConnections(const std::vector<ConnKey> &keys, std::vector<int> &ids)
{
    std::vector<ConnKey> sorted(keys);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    ids.resize(keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
        ids[i] = static_cast<int>(
            std::lower_bound(sorted.begin(), sorted.end(), keys[i]) -
            sorted.begin());
    }
    return sorted;
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
        std::vector<ConnKey> ends; // send, then recv, of every block
        for (const IrGpu &gpu : ir_.gpus) {
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                ends.push_back(
                    connKeyOf(gpu.rank, tb.sendPeer, tb.channel));
                ends.push_back(
                    connKeyOf(tb.recvPeer, gpu.rank, tb.channel));
            }
        }
        std::vector<int> ids;
        connKeys_ = numberConnections(ends, ids);
        connections_.resize(connKeys_.size());
        size_t end = 0;
        for (const IrGpu &gpu : ir_.gpus) {
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                TbConns conns;
                if (tb.sendPeer >= 0)
                    conns.send = ids[end];
                if (tb.recvPeer >= 0)
                    conns.recv = ids[end + 1];
                tbConns_.push_back(conns);
                end += 2;
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
    int tbIdx; // dense thread block index over the whole program
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
    int numTbs = 0;
    std::vector<int> succOff; // successors of v: succ[succOff[v]..succOff[v+1])
    std::vector<int> succ;
    std::vector<int> indeg;
    std::vector<std::vector<int>> tbBase; // [rank][tb id] -> step 0's node
    std::vector<std::vector<int>> tbLen;

    int n() const { return static_cast<int>(nodes.size()); }

    /** The node of (rank, tb, step), or -1 if there is none. */
    int
    lookup(Rank rank, int tb, int step) const
    {
        if (rank < 0 || rank >= numRanks)
            return -1;
        const std::vector<int> &base = tbBase[rank];
        if (tb < 0 || tb >= static_cast<int>(base.size()) ||
            base[tb] < 0) {
            return -1;
        }
        if (step < 0 || step >= tbLen[rank][tb])
            return -1;
        return base[tb] + step;
    }
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
    g.tbBase.resize(num_ranks);
    g.tbLen.resize(num_ranks);
    std::vector<ConnKey> ends; // send, then recv, of every block
    for (const IrGpu &gpu : ir.gpus) {
        std::vector<int> &base = g.tbBase[gpu.rank];
        std::vector<int> &len = g.tbLen[gpu.rank];
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
                                          static_cast<int>(s), g.numTbs,
                                          &tb.steps[s], &tb });
            }
            ends.push_back(connKeyOf(gpu.rank, tb.sendPeer, tb.channel));
            ends.push_back(connKeyOf(tb.recvPeer, gpu.rank, tb.channel));
            g.numTbs++;
        }
    }
    int n = g.n();

    std::vector<std::pair<int, int>> edges;
    // (a) thread block program order
    for (int i = 0; i < n; i++) {
        if (g.nodes[i].step + 1 < static_cast<int>(
                g.nodes[i].block->steps.size())) {
            edges.push_back({ i, g.lookup(g.nodes[i].rank, g.nodes[i].tb,
                                          g.nodes[i].step + 1) });
        }
    }
    // (b) cross thread block dependencies
    for (int i = 0; i < n; i++) {
        for (const IrDep &dep : g.nodes[i].instr->deps) {
            int from = g.lookup(g.nodes[i].rank, dep.tb, dep.step);
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
    //     A thread block has one send and one receive connection, so
    //     connections are numbered per block, in (src, dst, channel)
    //     order, and each connection's ends are bucketed in node
    //     order.
    std::vector<int> conn; // block t: send 2t, recv 2t + 1
    std::vector<ConnKey> keys = numberConnections(ends, conn);
    size_t num_conns = keys.size();
    std::vector<int> send_off(num_conns + 1, 0);
    std::vector<int> recv_off(num_conns + 1, 0);
    for (const HbNode &node : g.nodes) {
        if (irOpSends(node.instr->op))
            send_off[conn[2 * node.tbIdx] + 1]++;
        if (irOpReceives(node.instr->op))
            recv_off[conn[2 * node.tbIdx + 1] + 1]++;
    }
    for (size_t c = 0; c < num_conns; c++) {
        send_off[c + 1] += send_off[c];
        recv_off[c + 1] += recv_off[c];
    }
    std::vector<int> sends(send_off[num_conns]);
    std::vector<int> recvs(recv_off[num_conns]);
    {
        std::vector<int> send_at(send_off.begin(), send_off.end() - 1);
        std::vector<int> recv_at(recv_off.begin(), recv_off.end() - 1);
        for (int i = 0; i < n; i++) {
            const HbNode &node = g.nodes[i];
            if (irOpSends(node.instr->op))
                sends[send_at[conn[2 * node.tbIdx]]++] = i;
            if (irOpReceives(node.instr->op))
                recvs[recv_at[conn[2 * node.tbIdx + 1]]++] = i;
        }
    }
    for (size_t c = 0; c < num_conns; c++) {
        int num_sends = send_off[c + 1] - send_off[c];
        int num_recvs = recv_off[c + 1] - recv_off[c];
        if (num_sends != num_recvs) {
            ConnKey key = keys[c];
            throw VerificationError(strprintf(
                "race check: connection %d -> %d channel %d has %d "
                "sends but %d receives; FIFO pairing requires equal "
                "counts", static_cast<int>(key >> 43),
                static_cast<int>((key >> 22) & 0x1FFFFF),
                static_cast<int>(key & 0x3FFFFF), num_sends, num_recvs));
        }
        for (int k = 0; k < num_sends; k++)
            edges.push_back(
                { sends[send_off[c] + k], recvs[recv_off[c] + k] });
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

/**
 * The latest step of each thread block that each other thread block
 * of its rank has waited on so far, through one direct cross-TB
 * dependency: the race walk's local happens-before facts. Stored as
 * one slot per distinct (waiter, source) thread block pair that some
 * dependency names, so its size follows the dependency count.
 */
class DepFrontier
{
  public:
    explicit DepFrontier(const HbGraph &g) : off_(g.numTbs + 1, 0)
    {
        std::vector<std::pair<int, int>> pairs; // (waiter, source)
        for (const HbNode &node : g.nodes) {
            for (const IrDep &dep : node.instr->deps) {
                int from = g.lookup(node.rank, dep.tb, dep.step);
                pairs.push_back({ node.tbIdx, g.nodes[from].tbIdx });
            }
        }
        std::sort(pairs.begin(), pairs.end());
        pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
        for (const auto &[waiter, source] : pairs) {
            off_[waiter + 1]++;
            source_.push_back(source);
        }
        for (int t = 0; t < g.numTbs; t++)
            off_[t + 1] += off_[t];
        latest_.assign(source_.size(), -1);
    }

    /** Latest step of @p source that @p waiter has waited on, or -1. */
    int
    latest(int waiter, int source) const
    {
        int slot = slotOf(waiter, source);
        return slot < 0 ? -1 : latest_[slot];
    }

    /** Records that @p waiter now waits on step @p step of @p source. */
    void
    wait(int waiter, int source, int step)
    {
        int &latest = latest_[slotOf(waiter, source)];
        latest = std::max(latest, step);
    }

  private:
    int
    slotOf(int waiter, int source) const
    {
        auto lo = source_.begin() + off_[waiter];
        auto hi = source_.begin() + off_[waiter + 1];
        auto it = std::lower_bound(lo, hi, source);
        if (it == hi || *it != source)
            return -1;
        return static_cast<int>(it - source_.begin());
    }

    std::vector<int> off_;    // sources of waiter t: [off_[t], off_[t+1])
    std::vector<int> source_; // ascending within each waiter
    std::vector<int> latest_;
};

/**
 * The race check proper: a last-writer walk over the accesses of
 * every rank, in ascending rank order, each rank's instructions in
 * the order of one linear extension of happens-before. Each access is
 * checked only against its location's AccessHistory list — the last
 * whole-chunk writer and the accesses since — and a conflict with an
 * entry must be ordered after it. Transitivity through the shadowing
 * writer orders every older conflicting access too, and the linear
 * extension rules out the reverse order, so the first unordered pair
 * the walk meets is a real race, on the lowest racy rank.
 */
class RaceWalk
{
  public:
    RaceWalk(const HbGraph &g, const IrProgram &ir,
             const std::vector<int> &order)
        : g_(g), order_(order), inPlace_(ir.inPlace), frontier_(g),
          history_(chunkCounts(g, ir)), pos_(g.n())
    {
        for (int i = 0; i < g.n(); i++)
            pos_[order[i]] = i;
    }

    /** @throws VerificationError naming the first unordered pair. */
    void
    run()
    {
        // Stable counting sort of the linear extension by rank.
        std::vector<int> start(g_.numRanks + 1, 0);
        for (const HbNode &node : g_.nodes)
            start[node.rank + 1]++;
        for (int r = 0; r < g_.numRanks; r++)
            start[r + 1] += start[r];
        std::vector<int> by_rank(g_.n());
        for (int v : order_)
            by_rank[start[g_.nodes[v].rank]++] = v;
        for (int v : by_rank)
            visit(v);
    }

  private:
    /**
     * Per-(rank, buffer) chunk counts in AccessHistory's layout; a
     * negative declared count holds no chunks.
     */
    static std::vector<int>
    chunkCounts(const HbGraph &g, const IrProgram &ir)
    {
        std::vector<int> counts(static_cast<size_t>(g.numRanks) * 3, 0);
        for (const IrGpu &gpu : ir.gpus) {
            int *rank_counts = &counts[static_cast<size_t>(gpu.rank) * 3];
            rank_counts[0] = std::max(0, gpu.inputChunks);
            rank_counts[1] = ir.inPlace ? 0 : std::max(0, gpu.outputChunks);
            rank_counts[2] = std::max(0, gpu.scratchChunks);
        }
        return counts;
    }

    void
    visit(int b)
    {
        const HbNode &nb = g_.nodes[b];
        const IrInstruction &instr = *nb.instr;
        for (const IrDep &dep : instr.deps) {
            int from = g_.lookup(nb.rank, dep.tb, dep.step);
            frontier_.wait(nb.tbIdx, g_.nodes[from].tbIdx, dep.step);
        }
        if (irOpReadsSrc(instr.op))
            access(b, instr.srcBuf, instr.srcOff, false);
        if (instr.op == IrOp::Reduce || instr.op == IrOp::RecvReduceCopy)
            access(b, instr.dstBuf, instr.dstOff, false);
        if (irOpWritesDst(instr.op))
            access(b, instr.dstBuf, instr.dstOff, true);
    }

    /** Checks and records one buffer access of node @p b. */
    void
    access(int b, BufferKind buf, int off, bool is_write)
    {
        const HbNode &nb = g_.nodes[b];
        const IrInstruction &instr = *nb.instr;
        BufferKind canonical = buf;
        if (inPlace_ && buf == BufferKind::Output)
            canonical = BufferKind::Input;
        int chunks = history_.chunks(nb.rank, canonical);
        for (int k = 0; k < instr.count; k++) {
            int index = off + k;
            if (index < 0 || index >= chunks) {
                throw VerificationError(strprintf(
                    "race check: rank %d %s[%d] out of bounds (%d chunks)",
                    nb.rank, bufferKindName(buf), index, chunks));
            }
            for (int e = history_.head(nb.rank, canonical, index);
                 e >= 0;) {
                const AccessHistory::Entry &prev = history_.entry(e);
                e = prev.next;
                if (!(is_write || prev.isWrite) || prev.node == b)
                    continue;
                if (!splitsOverlap(prev.splitIdx, prev.splitCount,
                                   instr.splitIdx, instr.splitCount))
                    continue;
                if (!happensBefore(prev.node, b)) {
                    throw VerificationError(
                        raceMessage(prev.node, b, canonical, index));
                }
            }
            history_.record(nb.rank, canonical, index, b,
                            instr.splitIdx, instr.splitCount, is_write);
        }
    }

    /**
     * Whether @p a, earlier in the linear extension, happens before
     * @p b, the node being visited, from local facts: both in one
     * thread block (so a is at an earlier step), or b's thread block
     * has waited, at or before b's step, on a's at or after a's step.
     */
    bool
    locallyBefore(int a, int b) const
    {
        const HbNode &na = g_.nodes[a];
        const HbNode &nb = g_.nodes[b];
        return na.tbIdx == nb.tbIdx ||
            frontier_.latest(nb.tbIdx, na.tbIdx) >= na.step;
    }

    /**
     * Whether @p a happens before @p b, which follows it in the linear
     * extension. A local miss falls back to a search of the graph from
     * a, pruned to nodes before b in the linear extension (no later
     * node reaches b) and cut short by any node locally before b.
     */
    bool
    happensBefore(int a, int b)
    {
        if (locallyBefore(a, b))
            return true;
        if (stamp_.empty())
            stamp_.assign(g_.n(), 0);
        epoch_++;
        stamp_[a] = epoch_;
        stack_.assign(1, a);
        while (!stack_.empty()) {
            int v = stack_.back();
            stack_.pop_back();
            for (int e = g_.succOff[v]; e < g_.succOff[v + 1]; e++) {
                int w = g_.succ[e];
                if (w == b)
                    return true;
                if (stamp_[w] == epoch_ || pos_[w] > pos_[b])
                    continue;
                stamp_[w] = epoch_;
                if (locallyBefore(w, b))
                    return true;
                stack_.push_back(w);
            }
        }
        return false;
    }

    /** Names the pair with the lower node index first. */
    std::string
    raceMessage(int a, int b, BufferKind buffer, int chunk) const
    {
        const HbNode &na = g_.nodes[std::min(a, b)];
        const HbNode &nb = g_.nodes[std::max(a, b)];
        return strprintf(
            "data race: rank %d tb %d step %d and tb %d "
            "step %d access %s[%d] unordered",
            na.rank, na.tb, na.step, nb.tb, nb.step,
            bufferKindName(buffer), chunk);
    }

    const HbGraph &g_;
    const std::vector<int> &order_;
    bool inPlace_;
    DepFrontier frontier_;
    AccessHistory history_;
    std::vector<int> pos_; // node -> position in the linear extension
    std::vector<int> stamp_; // search visit marks, allocated on demand
    int epoch_ = 0;
    std::vector<int> stack_;
};

} // namespace

void
verifyRaceFree(const IrProgram &ir)
{
    HbGraph g = buildHbGraph(ir);
    std::vector<int> order = topoOrderOf(g);
    RaceWalk(g, ir, order).run();
}

} // namespace mscclang
