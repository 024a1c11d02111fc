/**
 * @file
 * MSCCL-IR: the executable form of a compiled MSCCLang program
 * (paper §5, Figure 4). The IR is a tree: a program holds one GPU
 * program per rank, a GPU program holds thread blocks, and a thread
 * block holds a sequential instruction list plus at most one send and
 * one receive connection (identified by peer + channel). The runtime
 * interprets this structure directly; it can also be serialized to an
 * XML format in the spirit of the open-source msccl runtime's.
 *
 * A compiled plan is made once and then handed around: the per-rank
 * tree (IrGpus) is immutable and shared by every copy of a program,
 * so copying an IrProgram costs its header fields only.
 */

#ifndef MSCCLANG_IR_IR_H_
#define MSCCLANG_IR_IR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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
enum class IrOp {
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
    int srcOff = 0;
    BufferKind dstBuf = BufferKind::Input;
    int dstOff = 0;
    int count = 1;
    int splitIdx = 0;
    int splitCount = 1;
    /** Cross thread block dependencies that must complete first. */
    std::vector<IrDep> deps;
    /** True if some other thread block waits on this instruction, so
     *  the interpreter must publish its completion to the semaphore. */
    bool hasDep = false;

    bool operator==(const IrInstruction &) const = default;

    std::string toString() const;
};

/**
 * The canonical one-line description of a wedged thread block, shared
 * by the verifier's deadlock report and the runtime watchdog's abort
 * report so both tools speak the same language:
 * "  rank R tb T blocked at step S (instr) waiting for <reason>\n".
 */
std::string formatBlockedThreadBlock(Rank rank, int tb, int step,
                                     const IrInstruction &instr,
                                     const std::string &reason);

/** A thread block: sequential instructions + up to two connections. */
struct IrThreadBlock
{
    int id = 0;
    /** Rank this block sends to, or -1. */
    int sendPeer = -1;
    /** Rank this block receives from, or -1. */
    int recvPeer = -1;
    /** Channel distinguishing redundant connections (paper §5). */
    int channel = 0;
    std::vector<IrInstruction> steps;

    bool operator==(const IrThreadBlock &) const = default;
};

/** Per-GPU program. */
struct IrGpu
{
    int rank = 0;
    int inputChunks = 0;
    int outputChunks = 0;
    int scratchChunks = 0;
    std::vector<IrThreadBlock> threadBlocks;

    bool operator==(const IrGpu &) const = default;
};

/**
 * The per-rank body of an IrProgram: one IrGpu per rank, with all of
 * its thread blocks, instructions and deps. The body is immutable
 * once built and shared by reference count, so copying an IrProgram
 * (a plan-cache hit, a communicator registration, a PlanChoice, a
 * replayed op) copies a pointer, not the instructions. Copies may be
 * read and dropped from any thread.
 *
 * Reads use vector syntax: gpus[r], gpus.size(), range-for. The one
 * way to write is edit(), which first clones the body when another
 * program still shares it; the returned vector is this program's
 * alone until the program is next copied.
 */
class IrGpus
{
  public:
    IrGpus() = default;
    /** Takes over a freshly built body (the scheduler, fromXml). */
    explicit IrGpus(std::vector<IrGpu> gpus);

    const IrGpu &operator[](std::size_t rank) const
    {
        return (*body_)[rank];
    }
    std::size_t size() const { return body_ ? body_->size() : 0; }
    const IrGpu *begin() const { return body_ ? body_->data() : nullptr; }
    const IrGpu *end() const { return begin() + size(); }

    /** The body, cloned first if another program shares it. */
    std::vector<IrGpu> &edit();

    /** Identifies the body: equal ids mean one shared body. */
    const void *bodyId() const { return body_.get(); }

    /** True at once when both share one body; otherwise compares
     *  contents. */
    bool operator==(const IrGpus &other) const;

  private:
    std::shared_ptr<std::vector<IrGpu>> body_;
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
    /** Immutable and shared between copies; write via gpus.edit(). */
    IrGpus gpus;

    bool operator==(const IrProgram &) const = default;

    /** Highest channel index used plus one. */
    int numChannels() const;

    /** Largest thread block count of any GPU. */
    int maxThreadBlocks() const;

    /** True if any instruction applies the reduction operator. */
    bool carriesReduction() const;

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

    /** Parses a program back from XML. @throws mscclang::Error. */
    static IrProgram fromXml(const std::string &xml);

    /** Multi-line human-readable dump for debugging and docs. */
    std::string dump() const;
};

} // namespace mscclang

#endif // MSCCLANG_IR_IR_H_
