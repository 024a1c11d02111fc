#include "compiler/verifier.h"

#include <algorithm>
#include <cstdint>
#include <limits>
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
 * The values of one verification run: buffer cells, FIFO parts and
 * reductions carry int ids, so moving a value costs one word and no
 * allocation. The ids below numInputs() are the input chunks,
 * rank-major, and decode to (rank, index) without being stored; the
 * reductions are interned above them in an append-only table. Ids
 * are not canonical — two reductions with equal results get
 * different ids — so equality compares ids first and falls back to
 * the values.
 */
class ValueTable
{
  public:
    explicit ValueTable(const IrGpus &body) : inputBase_(body.size() + 1, 0)
    {
        for (const IrGpu &gpu : body)
            inputBase_[gpu.rank + 1] = inputBase_[gpu.rank] + gpu.inputChunks;
        size_t reductions = 0;
        for (const IrInstruction &instr : body.steps()) {
            if (irOpReduces(instr.op))
                reductions += static_cast<size_t>(instr.count);
        }
        reduced_.reserve(reductions); // one value per reduced part
    }

    int numInputs() const { return inputBase_.back(); }

    /** The id of input chunk @p index of @p rank. */
    int input(Rank rank, int index) const { return inputBase_[rank] + index; }

    int
    intern(ChunkValue value)
    {
        reduced_.push_back(std::move(value));
        return numInputs() + static_cast<int>(reduced_.size()) - 1;
    }

    /** Value @p id; an input chunk is made in @p spare. */
    const ChunkValue &
    get(int id, ChunkValue &spare) const
    {
        if (id >= numInputs())
            return reduced_[id - numInputs()];
        int rank = static_cast<int>(std::upper_bound(inputBase_.begin(),
                                                     inputBase_.end(), id) -
                                    inputBase_.begin()) - 1;
        spare = ChunkValue::input(rank, id - inputBase_[rank]);
        return spare;
    }

    std::string
    toString(int id) const
    {
        ChunkValue spare;
        return get(id, spare).toString();
    }

    /** A pure input equals only itself: every reduction combines at
     *  least two parts. */
    bool
    same(int a, int b) const
    {
        if (a == b)
            return true;
        if (a < numInputs() || b < numInputs())
            return false;
        return reduced_[a - numInputs()] == reduced_[b - numInputs()];
    }

  private:
    std::vector<int> inputBase_; // rank -> id of its input chunk 0
    std::vector<ChunkValue> reduced_;
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
 * largest size so far. Its capacity is a power of two, so wrapping
 * an index is a mask.
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
                grown.push_back(buf_[(head_ + i) & (buf_.size() - 1)]);
            grown.resize(grown.capacity());
            buf_.swap(grown);
            head_ = 0;
        }
        buf_[(head_ + count_) & (buf_.size() - 1)] = item;
        count_++;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        count_--;
    }

  private:
    std::vector<T> buf_;
    size_t head_ = 0;
    size_t count_ = 0;
};

/**
 * The one walk of an IR program that both checks run on. Thread
 * blocks execute their steps in order; a step waits for its cross
 * thread block dependencies, a receive for a message queued on its
 * connection and a send for a free slot on its; the k-th receive on a
 * connection takes the k-th send (FIFO pairing). The walk reads the
 * body's own index — flat block ids, node ids (a step's index in the
 * instruction array), connection ids — and run() steps the thread
 * blocks round-robin, each as far as it can go, until none can move.
 * The steps taken, in order, form a linear extension of
 * happens-before (program order, dependencies, FIFO pairs).
 */
class IrWalk
{
  public:
    /** The slot count under which no send ever waits. */
    static constexpr int kUnbounded = std::numeric_limits<int>::max();

    explicit IrWalk(const IrProgram &ir)
        : body_(ir.gpus), queues_(body_.connections().size()),
          cursor_(body_.blocks().size(), 0)
    {
    }

    int numNodes() const { return static_cast<int>(body_.steps().size()); }

    /**
     * Runs the walk with @p slots FIFO slots per connection, calling
     * @p on_step(block, node, send) for every step taken, where
     * @p send is the node of a receive's matched send (-1 for any
     * other step). Returns whether every thread block finished.
     */
    template <typename OnStep>
    bool
    run(int slots, OnStep &&on_step)
    {
        int num_blocks = static_cast<int>(cursor_.size());
        bool progress = true;
        while (progress) {
            progress = false;
            for (int t = 0; t < num_blocks; t++) {
                while (tryStep(t, slots, on_step))
                    progress = true;
            }
        }
        return taken_ == numNodes();
    }

    /**
     * The report of a wedged run: the blocked thread blocks, then the
     * connections with undelivered messages in (src, dst, channel)
     * order.
     */
    std::string
    deadlockReport() const
    {
        std::string report = "deadlock detected:\n";
        std::span<const IrThreadBlock> blocks = body_.blocks();
        for (size_t t = 0; t < blocks.size(); t++) {
            const IrThreadBlock &tb = blocks[t];
            int cursor = cursor_[t];
            if (cursor >= tb.numSteps)
                continue;
            const IrInstruction &instr = body_.steps(tb)[cursor];
            std::string reason = "dependency";
            if (irOpReceives(instr.op)) {
                reason = strprintf("data from %d (inbox=%zu) or "
                                   "dependency", tb.recvPeer,
                                   queues_[tb.recvConn].size());
            } else if (irOpSends(instr.op)) {
                reason = strprintf("FIFO slot to %d (queued=%zu) or "
                                   "dependency", tb.sendPeer,
                                   queues_[tb.sendConn].size());
            }
            report += formatBlockedThreadBlock(
                tb.rank, tb.id, cursor,
                instr.toString(body_.deps(instr)), reason);
        }
        std::span<const IrConnection> conns = body_.connections();
        for (size_t c = 0; c < conns.size(); c++) {
            size_t count = queues_[c].size();
            if (count == 0)
                continue;
            report += strprintf("  conn %d -> %d ch %d: %zu undelivered\n",
                                conns[c].src, conns[c].dst,
                                conns[c].channel, count);
        }
        return report;
    }

  private:
    /** Attempts block @p t's next step. */
    template <typename OnStep>
    bool
    tryStep(int t, int slots, OnStep &on_step)
    {
        const IrThreadBlock &tb = body_.blocks()[t];
        int &cursor = cursor_[t];
        if (cursor >= tb.numSteps)
            return false;
        int node = tb.firstStep + cursor;
        const IrInstruction &instr = body_.steps()[node];
        int rank_base = body_[tb.rank].firstBlock;
        for (const IrDep &dep : body_.deps(instr)) {
            if (cursor_[rank_base + dep.tb] <= dep.step)
                return false;
        }

        bool receives = irOpReceives(instr.op);
        bool sends = irOpSends(instr.op);
        if (receives && queues_[tb.recvConn].empty())
            return false; // waiting for data
        if (sends && static_cast<int>(queues_[tb.sendConn].size()) >= slots)
            return false; // waiting for a FIFO slot

        int send = -1;
        if (receives) {
            send = queues_[tb.recvConn].front();
            queues_[tb.recvConn].pop_front();
        }
        on_step(t, node, send);
        if (sends)
            queues_[tb.sendConn].push_back(node);
        cursor++;
        taken_++;
        return true;
    }

    const IrGpus &body_;
    std::vector<Ring<int>> queues_; // per connection: queued send nodes
    std::vector<int> cursor_;       // per block: its next step
    int taken_ = 0;
};

/**
 * Writes the order a walk takes the steps in into a WalkOrder: each
 * step's position, a receive's matched send, and the step in its
 * rank's bucket of byRank (a stable counting sort by rank, filled as
 * the walk goes). Each step's block does not depend on the order, so
 * it is filled up front, block by block.
 */
class OrderRecorder
{
  public:
    OrderRecorder(const IrGpus &body, WalkOrder &order)
        : body_(body), order_(order), next_(body.size() + 1, 0)
    {
        size_t nodes = body.steps().size();
        order.pos.resize(nodes);
        order.send.resize(nodes);
        order.block.resize(nodes);
        order.byRank.resize(nodes);
        std::span<const IrThreadBlock> blocks = body.blocks();
        for (size_t t = 0; t < blocks.size(); t++) {
            std::fill_n(order.block.begin() + blocks[t].firstStep,
                        blocks[t].numSteps, static_cast<int>(t));
            next_[blocks[t].rank + 1] += blocks[t].numSteps;
        }
        for (size_t r = 0; r + 1 < next_.size(); r++)
            next_[r + 1] += next_[r];
    }

    void
    operator()(int t, int node, int send)
    {
        order_.pos[node] = position_++;
        order_.send[node] = send;
        order_.byRank[next_[body_.blocks()[t].rank]++] = node;
    }

  private:
    const IrGpus &body_;
    WalkOrder &order_;
    std::vector<int> next_; // per rank: the next free slot of its bucket
    int position_ = 0;
};

/** Abstract machine state for one verification run. */
class AbstractMachine
{
  public:
    AbstractMachine(const IrProgram &ir, const Collective &collective,
                    const VerifyOptions &options)
        : ir_(ir), collective_(collective), options_(options), walk_(ir),
          values_(ir.gpus)
    {
        buffers_.resize(ir.gpus.size());
        for (const IrGpu &gpu : ir.gpus) {
            RankBuffers &bufs = buffers_[gpu.rank];
            bufs.input.resize(gpu.inputChunks);
            if (!ir.inPlace)
                bufs.output.assign(gpu.outputChunks, Cell{});
            bufs.scratch.assign(gpu.scratchChunks, Cell{});
            for (int i = 0; i < gpu.inputChunks; i++)
                bufs.input[i].value = values_.input(gpu.rank, i);
        }
        parts_.resize(ir.gpus.connections().size());
    }

    /**
     * Runs to completion, telling @p on_step (if set) of every step
     * taken; throws on deadlock or semantic error.
     */
    void
    run(OrderRecorder *on_step)
    {
        bool done = walk_.run(options_.slots,
                              [&](int t, int node, int send) {
                                  step(t, node, send);
                                  if (on_step != nullptr)
                                      (*on_step)(t, node, send);
                              });
        if (!done)
            throw VerificationError(walk_.deadlockReport());
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

    /** IrBuilder::build() keeps every access inside its buffer. */
    Cell &
    cellAt(int rank, BufferKind buf, int index)
    {
        return bufferOf(rank, buf)[index];
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
                    values_.toString(value) + " vs " +
                    values_.toString(seg.value) + ")";
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
        const Cell &cell = cellAt(rank, buf, index);
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
              const FracInterval &range, int value)
    {
        writeCell(cellAt(rank, buf, index), range, value);
    }

    int
    reduce(int a, int b)
    {
        ChunkValue spare_a, spare_b;
        return values_.intern(ChunkValue::reduce(values_.get(a, spare_a),
                                                 values_.get(b, spare_b)));
    }

    /**
     * The effect of one step: node @p node of block @p t, whose
     * receive (if any) takes the message of send node @p send. A
     * message carries the send's instr.count parts, part k being
     * chunk k of its slice, all over the send's byte fraction.
     */
    void
    step(int t, int node, int send)
    {
        std::span<const IrInstruction> steps = ir_.gpus.steps();
        const IrThreadBlock &tb = ir_.gpus.blocks()[t];
        const IrInstruction &instr = steps[node];
        Rank rank = tb.rank;
        bool receives = irOpReceives(instr.op);
        bool sends = irOpSends(instr.op);
        FracInterval range =
            splitFraction(instr.splitIdx, instr.splitCount);
        size_t count = static_cast<size_t>(instr.count);

        // Incoming part values are copied out before any outgoing
        // part is queued: a connection may loop back to its sender.
        incoming_.clear();
        if (receives) {
            const IrInstruction &sent = steps[send];
            Ring<int> &inbox = parts_[tb.recvConn];
            for (int k = 0; k < sent.count; k++) {
                incoming_.push_back(inbox.front());
                inbox.pop_front();
            }
            // Shape check: FIFO pairing must deliver exactly the
            // fractions this receive expects (equal split indexes need
            // no fraction arithmetic).
            int cursor = node - tb.firstStep;
            if (incoming_.size() != count) {
                throw VerificationError(strprintf(
                    "rank %d tb %d step %d: FIFO mismatch (message has "
                    "%zu parts, receive expects %zu)", rank, tb.id,
                    cursor, incoming_.size(), count));
            }
            bool same_split = sent.splitIdx == instr.splitIdx &&
                sent.splitCount == instr.splitCount;
            if (count > 0 && !same_split &&
                !(splitFraction(sent.splitIdx, sent.splitCount) == range)) {
                throw VerificationError(strprintf(
                    "rank %d tb %d step %d: FIFO mismatch (part %zu "
                    "shape differs from the matched send)",
                    rank, tb.id, cursor, size_t{ 0 }));
            }
        }

        outgoing_.clear();
        switch (instr.op) {
          case IrOp::Nop:
            break;
          case IrOp::Send:
            for (int rel = 0; rel < instr.count; rel++) {
                outgoing_.push_back(readPart(rank, instr.srcBuf,
                                             instr.srcOff + rel, range,
                                             "send"));
            }
            break;
          case IrOp::Recv:
            for (size_t i = 0; i < count; i++) {
                writePart(rank, instr.dstBuf,
                          instr.dstOff + static_cast<int>(i),
                          range, incoming_[i]);
            }
            break;
          case IrOp::Copy:
            for (int rel = 0; rel < instr.count; rel++) {
                int value = readPart(rank, instr.srcBuf,
                                     instr.srcOff + rel, range, "copy");
                writePart(rank, instr.dstBuf, instr.dstOff + rel,
                          range, value);
            }
            break;
          case IrOp::Reduce:
            for (int rel = 0; rel < instr.count; rel++) {
                int a = readPart(rank, instr.srcBuf,
                                 instr.srcOff + rel, range, "reduce");
                int b = readPart(rank, instr.dstBuf,
                                 instr.dstOff + rel, range, "reduce");
                writePart(rank, instr.dstBuf, instr.dstOff + rel,
                          range, reduce(a, b));
            }
            break;
          case IrOp::RecvReduceCopy:
          case IrOp::RecvReduceSend:
          case IrOp::RecvReduceCopySend:
            for (size_t i = 0; i < count; i++) {
                int rel = static_cast<int>(i);
                int local = readPart(rank, instr.srcBuf,
                                     instr.srcOff + rel, range,
                                     irOpName(instr.op));
                int combined = reduce(local, incoming_[i]);
                if (irOpWritesDst(instr.op)) {
                    writePart(rank, instr.dstBuf,
                              instr.dstOff + rel, range, combined);
                }
                if (sends)
                    outgoing_.push_back(combined);
            }
            break;
          case IrOp::RecvCopySend:
            for (size_t i = 0; i < count; i++) {
                int rel = static_cast<int>(i);
                writePart(rank, instr.dstBuf, instr.dstOff + rel,
                          range, incoming_[i]);
                outgoing_.push_back(incoming_[i]);
            }
            break;
        }

        if (sends) {
            Ring<int> &outbox = parts_[tb.sendConn];
            for (int value : outgoing_)
                outbox.push_back(value);
        }
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
                ChunkValue spare;
                const ChunkValue &value = values_.get(actual, spare);
                if (!(value == *expected)) {
                    throw VerificationError(strprintf(
                        "postcondition violated at rank %d output[%d]: "
                        "expected %s, got %s", gpu.rank, i,
                        expected->toString().c_str(),
                        value.toString().c_str()));
                }
            }
        }
    }

    const IrProgram &ir_;
    const Collective &collective_;
    VerifyOptions options_;
    IrWalk walk_;
    ValueTable values_;
    std::vector<RankBuffers> buffers_;
    std::vector<std::vector<Segment>> segmentLists_;
    std::vector<Ring<int>> parts_; // per connection: queued part values
    // Per-step scratch, reused so a step allocates nothing.
    std::vector<int> incoming_;
    std::vector<int> outgoing_;
    std::vector<Segment> scratchSegments_;
};

} // namespace

void
verifyIr(const IrProgram &ir, const Collective &collective,
         const VerifyOptions &options, WalkOrder *order)
{
    VerifyOptions resolved = options;
    if (resolved.slots == 0)
        resolved.slots = kFifoSlotsPerConnection;
    if (resolved.slots < 1)
        throw VerificationError("verifier: slots must be >= 1");
    AbstractMachine machine(ir, collective, resolved);
    if (order == nullptr) {
        machine.run(nullptr);
        return;
    }
    OrderRecorder recorder(ir.gpus, *order);
    machine.run(&recorder);
}

namespace {

/**
 * The latest step of each thread block that each other thread block
 * of its rank has waited on so far, through one direct cross-TB
 * dependency: the race walk's local happens-before facts. Stored as
 * one slot per distinct (waiter, source) block pair that some
 * dependency names, so its size follows the dependency count.
 */
class DepFrontier
{
  public:
    explicit DepFrontier(const IrGpus &body)
        : off_(body.blocks().size() + 1, 0)
    {
        std::vector<std::pair<int, int>> pairs; // (waiter, source)
        std::span<const IrThreadBlock> blocks = body.blocks();
        for (size_t t = 0; t < blocks.size(); t++) {
            int rank_base = body[blocks[t].rank].firstBlock;
            for (const IrInstruction &instr : body.steps(blocks[t])) {
                for (const IrDep &dep : body.deps(instr))
                    pairs.push_back({ static_cast<int>(t),
                                      rank_base + dep.tb });
            }
        }
        std::sort(pairs.begin(), pairs.end());
        pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
        for (const auto &[waiter, source] : pairs) {
            off_[waiter + 1]++;
            source_.push_back(source);
        }
        for (size_t t = 0; t < blocks.size(); t++)
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
 * The race check's FIFO check: every connection carries as many
 * sends as receives — a surplus operation would have no FIFO partner,
 * so happens-before would silently lose its edge.
 */
void
checkFifoBalance(const IrGpus &body)
{
    std::vector<int> sends(body.connections().size(), 0);
    std::vector<int> recvs(body.connections().size(), 0);
    for (const IrThreadBlock &tb : body.blocks()) {
        for (const IrInstruction &instr : body.steps(tb)) {
            if (irOpSends(instr.op))
                sends[tb.sendConn]++;
            if (irOpReceives(instr.op))
                recvs[tb.recvConn]++;
        }
    }
    for (size_t c = 0; c < sends.size(); c++) {
        if (sends[c] != recvs[c]) {
            const IrConnection &conn = body.connections()[c];
            throw VerificationError(strprintf(
                "race check: connection %d -> %d channel %d has %d "
                "sends but %d receives; FIFO pairing requires equal "
                "counts", conn.src, conn.dst, conn.channel, sends[c],
                recvs[c]));
        }
    }
}

/**
 * The race check proper: a last-writer walk over the accesses of
 * every rank, in ascending rank order, each rank's instructions in
 * the order the IR walk took them — a linear extension of
 * happens-before. Each access is checked only against its location's
 * AccessHistory list — the last whole-chunk writer and the accesses
 * since — and a conflict with an entry must be ordered after it.
 * Transitivity through the shadowing writer orders every older
 * conflicting access too, and the linear extension rules out the
 * reverse order, so the first unordered pair the walk meets is a real
 * race, on the lowest racy rank.
 */
class RaceWalk
{
  public:
    RaceWalk(const IrProgram &ir, const WalkOrder &order)
        : body_(ir.gpus), inPlace_(ir.inPlace), frontier_(body_),
          history_(chunkCounts(ir)), pos_(order.pos), send_(order.send),
          block_(order.block), byRank_(order.byRank)
    {
    }

    /** @throws VerificationError naming the first unordered pair. */
    void
    run()
    {
        for (int v : byRank_)
            visit(v);
    }

  private:
    /** Per-(rank, buffer) chunk counts in AccessHistory's layout. */
    static std::vector<int>
    chunkCounts(const IrProgram &ir)
    {
        std::vector<int> counts(ir.gpus.size() * 3, 0);
        for (const IrGpu &gpu : ir.gpus) {
            int *rank_counts = &counts[static_cast<size_t>(gpu.rank) * 3];
            rank_counts[0] = gpu.inputChunks;
            rank_counts[1] = ir.inPlace ? 0 : gpu.outputChunks;
            rank_counts[2] = gpu.scratchChunks;
        }
        return counts;
    }

    const IrThreadBlock &blockOf(int node) const
    {
        return body_.blocks()[block_[node]];
    }

    int stepOf(int node) const { return node - blockOf(node).firstStep; }

    void
    visit(int b)
    {
        int t = block_[b];
        const IrInstruction &instr = body_.steps()[b];
        int rank_base = body_[blockOf(b).rank].firstBlock;
        for (const IrDep &dep : body_.deps(instr))
            frontier_.wait(t, rank_base + dep.tb, dep.step);
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
        Rank rank = blockOf(b).rank;
        const IrInstruction &instr = body_.steps()[b];
        BufferKind canonical = buf;
        if (inPlace_ && buf == BufferKind::Output)
            canonical = BufferKind::Input;
        for (int k = 0; k < instr.count; k++) {
            int index = off + k;
            for (int e = history_.head(rank, canonical, index); e >= 0;) {
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
            history_.record(rank, canonical, index, b, instr.splitIdx,
                            instr.splitCount, is_write);
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
        return block_[a] == block_[b] ||
            frontier_.latest(block_[b], block_[a]) >= stepOf(a);
    }

    /**
     * Whether @p a happens before @p b, which follows it in the linear
     * extension. A local miss falls back to a search backward from b
     * over its implicit predecessors — the previous step, the
     * dependencies, a receive's matched send — pruned to nodes after
     * a in the linear extension (no earlier node is reached from a)
     * and ended by any node of a's thread block.
     */
    bool
    happensBefore(int a, int b)
    {
        if (locallyBefore(a, b))
            return true;
        if (stamp_.empty())
            stamp_.assign(body_.steps().size(), 0);
        epoch_++;
        int block_a = block_[a];
        int pos_a = pos_[a];
        // Whether predecessor w ends the search; else queues it.
        auto reached = [&](int w) {
            if (pos_[w] < pos_a || stamp_[w] == epoch_)
                return false;
            if (block_[w] == block_a)
                return true;
            stamp_[w] = epoch_;
            stack_.push_back(w);
            return false;
        };
        stack_.assign(1, b);
        while (!stack_.empty()) {
            int v = stack_.back();
            stack_.pop_back();
            const IrThreadBlock &tb = blockOf(v);
            if (v > tb.firstStep && reached(v - 1))
                return true;
            for (const IrDep &dep : body_.deps(body_.steps()[v])) {
                const IrThreadBlock &from = body_.block(tb.rank, dep.tb);
                if (reached(from.firstStep + dep.step))
                    return true;
            }
            if (send_[v] >= 0 && reached(send_[v]))
                return true;
        }
        return false;
    }

    /** Names the pair with the lower node index first. */
    std::string
    raceMessage(int a, int b, BufferKind buffer, int chunk) const
    {
        int first = std::min(a, b);
        int second = std::max(a, b);
        return strprintf(
            "data race: rank %d tb %d step %d and tb %d "
            "step %d access %s[%d] unordered",
            blockOf(first).rank, blockOf(first).id, stepOf(first),
            blockOf(second).id, stepOf(second), bufferKindName(buffer),
            chunk);
    }

    const IrGpus &body_;
    bool inPlace_;
    DepFrontier frontier_;
    AccessHistory history_;
    const std::vector<int> &pos_;    // node -> position in the extension
    const std::vector<int> &send_;   // receive node -> matched send, or -1
    const std::vector<int> &block_;  // node -> flat id of its thread block
    const std::vector<int> &byRank_; // the extension, bucketed by rank
    std::vector<int> stamp_; // search visit marks, allocated on demand
    int epoch_ = 0;
    std::vector<int> stack_;
};

} // namespace

void
verifyRaceFree(const IrProgram &ir)
{
    checkFifoBalance(ir.gpus);
    // Happens-before does not depend on FIFO depth, so the walk runs
    // unbounded: it wedges only on a cycle.
    WalkOrder order;
    OrderRecorder recorder(ir.gpus, order);
    if (!IrWalk(ir).run(IrWalk::kUnbounded, recorder))
        throw VerificationError(
            "race check: happens-before relation has a cycle");
    RaceWalk(ir, order).run();
}

void
verifyRaceFree(const IrProgram &ir, const WalkOrder &order)
{
    if (order.pos.size() != ir.gpus.steps().size())
        throw VerificationError(
            "race check: the walk order is not of this program");
    checkFifoBalance(ir.gpus);
    RaceWalk(ir, order).run();
}

} // namespace mscclang
