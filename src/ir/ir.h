/**
 * @file
 * MSCCL-IR: the executable form of a compiled MSCCLang program
 * (paper §5, Figure 4): per GPU, thread blocks, each a sequential
 * instruction list plus at most one send and one receive connection
 * (identified by peer + channel). The runtime interprets it directly;
 * it can also be serialized to an XML format in the spirit of the
 * open-source msccl runtime's.
 *
 * The per-rank body (IrGpus) is flat: rank headers, thread-block
 * headers, one instruction array, one dependency pool and one
 * connection table, read through spans. One writer, IrBuilder, makes
 * every body; its build() derives the connection table and checks the
 * structure, so every reader may index the body without checks. A
 * compiled plan is made once and then handed around: the body is
 * immutable and shared by every copy of a program, so copying an
 * IrProgram costs its header fields only.
 */

#ifndef MSCCLANG_IR_IR_H_
#define MSCCLANG_IR_IR_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace mscclang {

/**
 * Instruction opcodes (paper §4.2). The first five are the base
 * instructions; the last four are the fused forms that keep
 * intermediate values in registers instead of round-tripping global
 * memory.
 */
enum class IrOp : std::uint8_t {
    Nop = 0,
    Send,               ///< push local chunk to send peer
    Recv,               ///< pop chunk from recv peer into dst
    Copy,               ///< local copy src -> dst
    Reduce,             ///< local dst = op(dst-src pair): dst = op(src, dst)
    RecvReduceCopy,     ///< rrc: recv, reduce with src, store to dst
    RecvReduceSend,     ///< rrs: recv, reduce with src, send (no store)
    RecvReduceCopySend, ///< rrcs: recv, reduce with src, store and send
    RecvCopySend,       ///< rcs: recv, store to dst and forward
};

/** Short mnemonic ("s", "r", "rrc", ...). */
const char *irOpName(IrOp op);

/** Parses the mnemonic back; throws mscclang::Error on junk. */
IrOp irOpFromName(const std::string &name);

/** True if the op consumes data from the thread block's recv peer. */
bool irOpReceives(IrOp op);
/** True if the op pushes data to the thread block's send peer. */
bool irOpSends(IrOp op);
/** True if the op reads a local source slice. */
bool irOpReadsSrc(IrOp op);
/** True if the op writes a local destination slice. */
bool irOpWritesDst(IrOp op);
/** True if the op applies the program's reduction. */
bool irOpReduces(IrOp op);

/** A cross thread block dependency: wait until tb finished step. */
struct IrDep
{
    int tb = -1;
    int step = -1;

    bool operator==(const IrDep &) const = default;
};

/**
 * One interpreter instruction (paper Figure 5). Offsets are chunk
 * indices; count is the number of contiguous chunks the instruction
 * covers (aggregation, §5.1). splitIdx/splitCount narrow the
 * instruction to a fraction of its chunks' bytes — the compiler's
 * encoding of chunk parallelization: instance i of n moves bytes
 * [i/n, (i+1)/n) of the covered span.
 */
struct IrInstruction
{
    IrOp op = IrOp::Nop;
    BufferKind srcBuf = BufferKind::Input;
    BufferKind dstBuf = BufferKind::Input;
    /** True if some other thread block waits on this instruction, so
     *  the interpreter must publish its completion to the semaphore. */
    bool hasDep = false;
    int srcOff = 0;
    int dstOff = 0;
    int count = 1;
    int splitIdx = 0;
    int splitCount = 1;
    /** The cross thread block dependencies that must complete first:
     *  [depFirst, depFirst + depCount) of the body's dependency pool
     *  (IrGpus::deps). Set by IrBuilder. */
    int depFirst = 0;
    int depCount = 0;

    bool operator==(const IrInstruction &) const = default;

    /** "op src -> dst cnt=..." with @p deps, this step's
     *  dependencies, as dump() and the deadlock reports print it. */
    std::string toString(std::span<const IrDep> deps) const;
};

/**
 * The canonical one-line description of a wedged thread block, shared
 * by the verifier's deadlock report and the runtime watchdog's abort
 * report so both tools speak the same language:
 * "  rank R tb T blocked at step S (instr) waiting for <reason>\n",
 * where @p instr is IrInstruction::toString's text.
 */
std::string formatBlockedThreadBlock(Rank rank, int tb, int step,
                                     const std::string &instr,
                                     const std::string &reason);

/** Per-GPU header: buffer sizes and the rank's thread blocks. */
struct IrGpu
{
    int rank = 0;
    int inputChunks = 0;
    int outputChunks = 0;
    int scratchChunks = 0;
    /** The rank's thread blocks: [firstBlock, firstBlock + numBlocks)
     *  of IrGpus::blocks(), in id order. */
    int firstBlock = 0;
    int numBlocks = 0;

    bool operator==(const IrGpu &) const = default;
};

/** A thread block: sequential instructions + up to two connections. */
struct IrThreadBlock
{
    /** Index within its rank: 0..numBlocks-1. */
    int id = 0;
    int rank = 0;
    /** Rank this block sends to, or -1. */
    int sendPeer = -1;
    /** Rank this block receives from, or -1. */
    int recvPeer = -1;
    /** Channel distinguishing redundant connections (paper §5). */
    int channel = 0;
    /** Its steps: [firstStep, firstStep + numSteps) of
     *  IrGpus::steps(); a step's global index is its node id. */
    int firstStep = 0;
    int numSteps = 0;
    /** Index of (rank, sendPeer, channel) and (recvPeer, rank,
     *  channel) in IrGpus::connections(), or -1 without that peer. */
    int sendConn = -1;
    int recvConn = -1;

    bool operator==(const IrThreadBlock &) const = default;
};

/** One FIFO connection, src -> dst on a channel. */
struct IrConnection
{
    int src = 0;
    int dst = 0;
    int channel = 0;

    bool operator==(const IrConnection &) const = default;
};

/**
 * The per-rank body of an IrProgram, flat: rank headers (indexed by
 * rank), thread-block headers (rank-major, id order), one instruction
 * array (block-major, step order), one dependency pool (in instruction
 * order) and the connection table, sorted by (src, dst, channel).
 * Made only by IrBuilder::build(), which guarantees:
 *   - rank headers are ranks 0..n-1 in order;
 *   - each rank's thread blocks have ids 0..k-1 in order;
 *   - peers are -1 or a rank, channels are non-negative;
 *   - a step that sends (receives) sits on a block with a send
 *     (receive) peer, so its connection id is set;
 *   - every dependency names an existing step of its own rank;
 *   - chunk counts are non-negative, every step covers count >= 1
 *     chunks and 0 <= splitIdx < splitCount, and every chunk a step
 *     reads (irOpReadsSrc: src) or writes (irOpWritesDst: dst) lies
 *     inside its rank's declared chunks of that buffer — in an
 *     in-place program, Output aliases Input and has its chunks.
 *
 * The body is immutable and shared by reference count, so copying an
 * IrProgram (a plan-cache hit, a communicator registration, a
 * PlanChoice, a replayed op) copies a pointer, not the instructions.
 * Copies may be read and dropped from any thread. To change a body,
 * copy it into an IrBuilder and build a new one.
 */
class IrGpus
{
  public:
    IrGpus() = default;

    /** Rank @p rank's header; range-for visits ranks in order. */
    const IrGpu &operator[](std::size_t rank) const
    {
        return body().gpus[rank];
    }
    std::size_t size() const { return body().gpus.size(); }
    const IrGpu *begin() const { return body().gpus.data(); }
    const IrGpu *end() const { return begin() + size(); }

    /** Every thread block, rank-major; an index is a flat block id. */
    std::span<const IrThreadBlock> blocks() const { return body().blocks; }
    /** The thread blocks of @p gpu. */
    std::span<const IrThreadBlock>
    blocks(const IrGpu &gpu) const
    {
        return blocks().subspan(gpu.firstBlock, gpu.numBlocks);
    }
    /** Thread block @p tb of rank @p rank. */
    const IrThreadBlock &
    block(int rank, int tb) const
    {
        return body().blocks[body().gpus[rank].firstBlock + tb];
    }

    /** Every instruction, block-major; an index is a node id. */
    std::span<const IrInstruction> steps() const { return body().steps; }
    /** The steps of @p tb, in order. */
    std::span<const IrInstruction>
    steps(const IrThreadBlock &tb) const
    {
        return steps().subspan(tb.firstStep, tb.numSteps);
    }
    /** The dependencies of @p instr, a step of this body. */
    std::span<const IrDep>
    deps(const IrInstruction &instr) const
    {
        return std::span<const IrDep>(body().deps)
            .subspan(instr.depFirst, instr.depCount);
    }
    /** Every connection, sorted by (src, dst, channel). */
    std::span<const IrConnection>
    connections() const
    {
        return body().connections;
    }

    /** Identifies the body: equal ids mean one shared body. */
    const void *bodyId() const { return body_.get(); }

    /** True at once when both share one body; otherwise compares
     *  contents. */
    bool operator==(const IrGpus &other) const;

  private:
    friend class IrBuilder;

    struct Body
    {
        std::vector<IrGpu> gpus;
        std::vector<IrThreadBlock> blocks;
        std::vector<IrInstruction> steps;
        std::vector<IrDep> deps;
        std::vector<IrConnection> connections;
    };

    const Body &
    body() const
    {
        static const Body empty;
        return body_ ? *body_ : empty;
    }

    std::shared_ptr<const Body> body_;
};

/**
 * The one writer of IR bodies: the scheduler, fromXml and hand-built
 * test programs append rank headers, then thread blocks in rank order,
 * each followed by its steps; build() checks the structure and
 * derives the per-rank block ranges and the connection table. A
 * builder made from a body edits a copy of it.
 */
class IrBuilder
{
  public:
    IrBuilder() = default;
    /** A builder holding a copy of @p body, to build an edited one. */
    explicit IrBuilder(const IrGpus &body);

    /** Pre-sizes the arrays for the given totals. */
    void reserve(int gpus, int blocks, int steps, int deps);

    /** Appends the header of rank @p rank (headers go in rank order). */
    void addGpu(int rank, int input_chunks, int output_chunks,
                int scratch_chunks);
    /** Appends a thread block to rank @p rank (blocks go in rank
     *  order); the steps added next are its steps. */
    void addThreadBlock(int rank, int id, int send_peer = -1,
                        int recv_peer = -1, int channel = 0);
    /** Appends a step, with dependencies @p deps, to the last thread
     *  block added. */
    void addStep(const IrInstruction &instr,
                 std::span<const IrDep> deps = {});
    void
    addStep(const IrInstruction &instr, std::initializer_list<IrDep> deps)
    {
        addStep(instr, std::span<const IrDep>(deps.begin(), deps.size()));
    }

    /** Edit access, by rank and by node id (add order). */
    IrGpu &gpu(int rank) { return gpus_[rank]; }
    IrInstruction &step(int node) { return steps_[node]; }
    int numSteps() const { return static_cast<int>(steps_.size()); }
    /** Replaces the dependencies of step @p node. */
    void setDeps(int node, std::span<const IrDep> deps);

    /**
     * The body of a @p num_ranks rank program, in place (Output
     * aliases Input) when @p in_place.
     * @throws mscclang::Error naming the first structural fault (see
     *         IrGpus for what is checked).
     */
    IrGpus build(int num_ranks, bool in_place);

  private:
    void check(int num_ranks, bool in_place);
    void packDeps();
    std::vector<IrConnection> deriveConnections();

    std::vector<IrGpu> gpus_;
    std::vector<IrThreadBlock> blocks_;
    std::vector<IrInstruction> steps_;
    std::vector<IrDep> deps_;
};

/** A complete compiled program. */
struct IrProgram
{
    std::string name;
    std::string collective;
    int numRanks = 0;
    bool inPlace = false;
    Protocol protocol = Protocol::Simple;
    ReduceOp reduceOp = ReduceOp::Sum;
    /** Output bytes / input bytes of the collective (runtime sizing). */
    double outputScale = 1.0;
    /** Immutable and shared between copies; made by IrBuilder. */
    IrGpus gpus;

    bool operator==(const IrProgram &) const = default;

    /** Highest channel index used plus one. */
    int numChannels() const;

    /** Largest thread block count of any GPU. */
    int maxThreadBlocks() const;

    /**
     * True if any instruction writes the input buffer (directly, or
     * through the in-place output alias). A program that never
     * mutates its input — the copy-only collectives: allgather,
     * broadcast, alltoall — can simply be re-executed after an
     * aborted attempt, so the runtime skips the DataStore snapshot
     * and rollback for it (progress-aware recovery).
     */
    bool mutatesInput() const;

    /** Total instruction count across all GPUs. */
    int totalInstructions() const;

    /** Serializes to the XML exchange format. */
    std::string toXml() const;

    /** Streams the same bytes into @p out, a bounded buffer at a
     *  time, so a large plan is never one string. */
    void toXml(std::ostream &out) const;

    /** Parses a program back from XML. @throws mscclang::Error. */
    static IrProgram fromXml(const std::string &xml);

    /** Multi-line human-readable dump for debugging and docs. */
    std::string dump() const;
};

} // namespace mscclang

#endif // MSCCLANG_IR_IR_H_
