/**
 * @file
 * The MSCCLang DSL (paper §3): a chunk-oriented, fluent API for
 * specifying how chunks route through GPUs. The Python-embedded DSL of
 * the paper is reproduced here as a C++-embedded DSL with the same
 * three operations — chunk(), copy(), reduce() — the same reference
 * discipline (only the latest reference to a location may be used,
 * making programs data-race free by construction) and the same
 * scheduling directives (per-op channels, chunk parallelization
 * scopes, multi-count references for send aggregation).
 *
 * Executing the program (i.e. running the C++ code that calls this
 * API) IS the trace: the Program records every operation in sequence,
 * maintains the abstract chunk value of every buffer location, and
 * rejects rule violations immediately with ProgramError.
 */

#ifndef MSCCLANG_DSL_PROGRAM_H_
#define MSCCLANG_DSL_PROGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "dsl/chunk.h"
#include "dsl/collective.h"

namespace mscclang {

class Program;

/** Optional per-operation scheduling directives (paper §5.1). */
struct OpOptions
{
    /** Channel this operation's transfer uses; -1 lets the compiler
     *  pick the lowest valid channel. */
    int channel = -1;
};

/** The two chunk operations of the DSL (paper Table 1). */
enum class OpKind { Copy, Reduce };

/** One traced chunk operation. */
struct TraceOp
{
    int id = 0;
    OpKind kind = OpKind::Copy;
    /** Copy: source slice. Reduce: the second operand (c2). */
    BufferSlice src;
    /** Copy: destination slice. Reduce: the in-place target (c1). */
    BufferSlice dst;
    /** Channel directive, -1 = auto. */
    int channel = -1;
    /** Chunk-parallelization factor from enclosing parallelize(). */
    int parFactor = 1;

    std::string toString() const;
};

/**
 * A live reference to `count` contiguous chunks (paper §3.3). A
 * reference becomes stale as soon as any of its locations is
 * overwritten by a later operation; using a stale reference raises
 * ProgramError. References are cheap value types: a slice and the
 * program's version counter at creation, so making one allocates
 * nothing.
 */
class ChunkRef
{
  public:
    /**
     * Copies the referenced chunks to (rank, buffer, index) and
     * returns a reference to the copies. A cross-rank destination
     * makes this a communication operation.
     */
    ChunkRef copy(Rank rank, BufferKind buffer, int index,
                  OpOptions opts = {}) const;

    /**
     * Reduces @p other into this reference's locations (in place,
     * this = op(this, other)) and returns a fresh reference to the
     * result. A cross-rank @p other makes this a communication
     * operation that sends other's chunks here.
     */
    ChunkRef reduce(const ChunkRef &other, OpOptions opts = {}) const;

    const BufferSlice &slice() const { return slice_; }
    Rank rank() const { return slice_.rank; }
    int index() const { return slice_.index; }
    int count() const { return slice_.count; }

  private:
    friend class Program;
    ChunkRef(Program *program, BufferSlice slice, std::uint64_t stamp)
        : program_(program), slice_(slice), stamp_(stamp)
    {}

    Program *program_;
    BufferSlice slice_;
    /** Program::nextVersion_ when the reference was made: every
     *  location written since carries a version at or above it. */
    std::uint64_t stamp_;
};

/**
 * RAII chunk-parallelization scope (paper §5.1). Every copy and
 * reduce issued while a scope of factor n is alive is compiled into n
 * parallel instances on disjoint channels, each moving 1/n of the
 * data. Scopes nest multiplicatively.
 */
class ParallelizeScope
{
  public:
    ParallelizeScope(ParallelizeScope &&other) noexcept;
    ~ParallelizeScope();

    ParallelizeScope(const ParallelizeScope &) = delete;
    ParallelizeScope &operator=(const ParallelizeScope &) = delete;
    ParallelizeScope &operator=(ParallelizeScope &&) = delete;

  private:
    friend class Program;
    ParallelizeScope(Program *program, int factor);

    Program *program_;
};

/** Program-wide options fixed when the program is created. */
struct ProgramOptions
{
    /** Name recorded into the MSCCL-IR (shows up in tools). */
    std::string name = "program";
    /** Communication protocol (paper §6.1). */
    Protocol protocol = Protocol::Simple;
    /**
     * Program-wide parallelization factor — the "r" of the paper's
     * evaluation plots. Every instruction is duplicated r times onto
     * disjoint channels, each instance moving 1/r of its data.
     */
    int instances = 1;
    /** Pointwise reduction the program's reduce() applies. */
    ReduceOp reduceOp = ReduceOp::Sum;
};

/**
 * A traced MSCCLang program. Construct with the collective it
 * implements, call chunk()/copy()/reduce() to route chunks, then hand
 * it to mscclang::compile().
 */
class Program
{
  public:
    Program(std::shared_ptr<Collective> collective,
            ProgramOptions options = {});

    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    /**
     * Returns a reference to @p count contiguous chunks currently in
     * (rank, buffer, index...). Reading uninitialized chunks raises
     * ProgramError (paper §3.3).
     */
    ChunkRef chunk(Rank rank, BufferKind buffer, int index, int count = 1);

    /** Opens a chunk-parallelization scope of @p factor. */
    ParallelizeScope parallelize(int factor);

    /**
     * Presets the abstract value at a location before any operation
     * is traced. This supports multi-kernel compositions (the
     * paper's composed baselines): a later kernel's program declares
     * the state an earlier kernel left in scratch or output so that
     * chunk() reads are legal. Must be called before the first
     * operation.
     */
    void presetChunk(Rank rank, BufferKind buffer, int index,
                     const ChunkValue &value);

    const Collective &collective() const { return *collective_; }
    std::shared_ptr<Collective> collectivePtr() const { return collective_; }
    const ProgramOptions &options() const { return options_; }
    int numRanks() const { return collective_->numRanks(); }

    /** All traced operations in program order. */
    const std::vector<TraceOp> &ops() const { return ops_; }

    /** Number of scratch chunks rank uses (auto-deduced, §3.2). */
    int scratchChunkCount(Rank rank) const;

    /** Current abstract value at a location (tests, diagnostics). */
    const ChunkValue &valueAt(Rank rank, BufferKind buffer,
                              int index) const;

    /**
     * Checks the traced final state against the collective's
     * postcondition. This is the DSL-level validation of paper §3.2;
     * the compiler re-checks the same property on the compiled IR.
     * @throws VerificationError with the first mismatching location.
     */
    void checkPostcondition() const;

  private:
    friend class ChunkRef;
    friend class ParallelizeScope;
    friend std::uint64_t fingerprintProgram(const Program &program);

    /** A location's abstract value and the version of its last
     *  write (0 = never written), side by side so an operation reads
     *  one cache line per location. */
    struct Location
    {
        ChunkValue value;
        std::uint64_t version = 0;
    };
    using BufferState = std::vector<Location>;

    /** Canonical buffer: Output aliases Input for in-place programs. */
    BufferKind canonical(BufferKind buffer) const;

    BufferState &state(Rank rank, BufferKind buffer);
    const BufferState &state(Rank rank, BufferKind buffer) const;

    /** Grows scratch on demand; bounds-checks other buffers. */
    void ensureLocation(Rank rank, BufferKind buffer, int index,
                        int count);

    /** Throws unless no location of @p ref was written after it was
     *  made. Versions come from one increasing counter, so that is a
     *  version below the reference's stamp. */
    void checkFresh(const ChunkRef &ref, const char *use) const;
    /** A fresh reference to @p slice. */
    ChunkRef refTo(const BufferSlice &slice)
    {
        return ChunkRef(this, slice, nextVersion_);
    }

    ChunkRef doCopy(const ChunkRef &src, Rank rank, BufferKind buffer,
                    int index, const OpOptions &opts);
    ChunkRef doReduce(const ChunkRef &dst, const ChunkRef &src,
                      const OpOptions &opts);

    int currentParFactor() const;

    std::shared_ptr<Collective> collective_;
    ProgramOptions options_;
    std::vector<TraceOp> ops_;
    /** indexed [rank][canonical buffer kind] */
    std::vector<std::vector<BufferState>> buffers_;
    std::vector<int> parStack_;
    std::uint64_t nextVersion_ = 1;
    /**
     * Memoized fingerprintProgram() result, 0 = not yet computed.
     * Reset by every change to hashed state: a new op or scratch
     * growth (the only way a preset changes what is hashed).
     * Relaxed ordering suffices: a Program is never mutated while
     * another thread reads it, so racing readers can only store the
     * same value.
     */
    mutable std::atomic<std::uint64_t> fingerprint_{ 0 };
};

} // namespace mscclang

#endif // MSCCLANG_DSL_PROGRAM_H_
