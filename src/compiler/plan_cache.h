/**
 * @file
 * Content-addressed compiled-plan cache. Compiling and statically
 * verifying a program is the dominant cost of replanning after a
 * fault and of tuner candidate sweeps; this cache keys a finished
 * Compiled on everything the compiler can observe — the traced
 * program, the topology the options point at, and the remaining
 * CompileOptions knobs — so a byte-identical request is answered
 * without re-running a single pass.
 *
 * Key derivation (a word-at-a-time multiply-xorshift hash, one
 * 64-bit step per scalar or per pair of 32-bit ints):
 *  - program fingerprint: ProgramOptions (name, protocol, instances,
 *    reduceOp), the Collective contract (name, rank/chunk shape,
 *    in-place flag, output scale, per-rank chunk counts and the full
 *    per-index postcondition), every TraceOp (kind, src/dst slices,
 *    channel directive, parallelization factor), and each rank's
 *    scratch chunk count (presetChunk can grow scratch past what the
 *    ops touch, and the scheduler sizes IR scratch from it).
 *    AlgoConfig is not part of the key because it is already baked
 *    into the trace: tracing the same algorithm with a different
 *    config produces different TraceOps. The fingerprint is memoized
 *    in the Program and reset by every traced mutation, so keying the
 *    same Program object again is O(1); a freshly traced program,
 *    even one identical to a cached plan's, pays one full pass.
 *  - topology fingerprint: name, shape, every MachineParams constant
 *    (bitwise), resource table, and the per-pair connectivity/route
 *    matrix. The fault schedule is deliberately excluded — faults are
 *    runtime events and do not influence compilation.
 *  - options: fuse, verify, maxThreadBlocks, verifySlots, and
 *    whether a topology is attached (plus its fingerprint).
 *
 * The cache is an in-memory LRU guarded by a mutex; compilation runs
 * outside the lock so concurrent misses on distinct keys proceed in
 * parallel. An entry holds the compiled plan itself: the IR's
 * per-rank body is immutable and shared (IrGpus), so a miss hands
 * the freshly built body to the cache and a hit shares it with the
 * caller. Neither copies an instruction, and the lock covers only
 * the map lookup and the copy of a hit's header and stats. Recency is
 * a use tick per entry, not a list: a hit touches its own map node
 * only, and an insert past capacity evicts the entry with the oldest
 * tick. When MSCCLANG_PLAN_CACHE_DIR
 * names a directory, plans additionally spill to
 * `plan-<16 hex digits>.xml` in the MSCCL-IR exchange format; a
 * corrupt or mismatched on-disk entry silently falls back to a fresh
 * compile and is overwritten.
 */

#ifndef MSCCLANG_COMPILER_PLAN_CACHE_H_
#define MSCCLANG_COMPILER_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "compiler/compiler.h"

namespace mscclang {

/** Fingerprint of a traced program (options + collective + trace +
 *  scratch sizes). Two programs with equal fingerprints compile
 *  identically. Computed once per Program object and memoized until
 *  its next traced mutation. */
std::uint64_t fingerprintProgram(const Program &program);

/** Fingerprint of a topology (shape, machine constants,
 *  resources, routes). The fault schedule is excluded. */
std::uint64_t fingerprintTopology(const Topology &topology);

/** The full cache key for one (program, options) compile request. */
std::uint64_t planCacheKey(const Program &program,
                           const CompileOptions &options);

/** Thread-safe LRU cache of compiled plans. */
class PlanCache
{
  public:
    explicit PlanCache(std::size_t capacity = 128);

    /** The process-wide cache used by compileProgramCached(). */
    static PlanCache &global();

    /**
     * Returns the cached plan for (program, options) or compiles,
     * caches, and returns it. A hit's IR shares the cached body and
     * is byte-identical (same toXml()) to what compileProgram()
     * would produce; the header fields (name, ...) are the caller's
     * own, and the body is immutable (an edit builds a new one). Memory
     * hits also return the original CompileStats, while disk hits
     * reconstruct the stats fields derivable from the IR and zero
     * the trace/fusion counters and phase times.
     */
    Compiled compile(const Program &program,
                     const CompileOptions &options = {});

    /** compile() for a caller that already holds the request's key;
     *  @p key must equal planCacheKey(program, options). Spares a
     *  second fingerprint of the options' topology. */
    Compiled compile(const Program &program, const CompileOptions &options,
                     std::uint64_t key);

    std::size_t hits() const;
    std::size_t misses() const;
    /** Misses served from the on-disk spill rather than a compile. */
    std::size_t diskHits() const;

    /** Drops every in-memory entry and resets the counters. Does not
     *  touch the on-disk spill. */
    void clear();

  private:
    struct Entry
    {
        /** Held in the map node itself, so a hit reads one allocation
         *  and no reference count besides the IR body's. */
        Compiled plan;
        /** The cache's use tick at this entry's latest hit or insert. */
        std::uint64_t lastUse;
    };

    /** Copies the cached plan into @p out on a memory hit. */
    bool lookup(std::uint64_t key, Compiled &out);
    void insert(std::uint64_t key, const Compiled &plan);

    mutable std::mutex mutex_;
    std::size_t capacity_;
    std::uint64_t tick_ = 0;
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t diskHits_ = 0;
};

/** compileProgram() through the process-wide PlanCache. */
Compiled compileProgramCached(const Program &program,
                              const CompileOptions &options = {});

} // namespace mscclang

#endif // MSCCLANG_COMPILER_PLAN_CACHE_H_
