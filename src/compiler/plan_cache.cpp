#include "compiler/plan_cache.h"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

namespace {

/**
 * Word-at-a-time multiply-xorshift hash. Every scalar is folded as
 * one 64-bit word (two 32-bit ints share a word where a TraceOp or
 * slice pairs them). Each step is a bijection of the running state
 * for a fixed input word, so two equal-length streams that differ in
 * one word never collide, and the multiply plus the right shift
 * spread every input bit across all 64 bits. Stable across runs of
 * one build (not a cross-version exchange format; the on-disk spill
 * revalidates entries anyway).
 */
struct Hasher
{
    std::uint64_t h = 0x6a09e667f3bcc909ull;

    void u64(std::uint64_t v)
    {
        h = (h ^ v) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    }
    void i(int v) { u64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(v))); }
    void pair(int hi, int lo)
    {
        u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi))
                << 32 |
            static_cast<std::uint32_t>(lo));
    }
    void b(bool v) { u64(v ? 1 : 0); }
    void d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(const std::string &s)
    {
        u64(s.size());
        for (std::size_t at = 0; at < s.size(); at += 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, s.data() + at,
                        std::min<std::size_t>(8, s.size() - at));
            u64(word);
        }
    }
    void slice(const BufferSlice &s)
    {
        pair(s.rank, static_cast<int>(s.buffer));
        pair(s.index, s.count);
    }
};

std::string
planFileName(const char *dir, std::uint64_t key)
{
    return strprintf("%s/plan-%016llx.xml", dir,
                     static_cast<unsigned long long>(key));
}

/** Stats fields recoverable from an IR alone (disk hits). */
CompileStats
statsFromIr(const IrProgram &ir, const Program &program)
{
    CompileStats stats;
    stats.traceOps = static_cast<int>(program.ops().size());
    stats.channels = ir.numChannels();
    stats.maxThreadBlocks = ir.maxThreadBlocks();
    stats.totalInstructions = ir.totalInstructions();
    return stats;
}

} // namespace

std::uint64_t
fingerprintProgram(const Program &program)
{
    // The memo only helps when the same Program object is keyed again
    // (a caller may compile one traced program more than once; the
    // re-key sites, Communicator::replanProgram and searchSchedules,
    // pass their key into PlanCache::compile instead). Every other
    // request traces a new Program and pays one full pass. A computed
    // fingerprint of 0 is indistinguishable from "not yet computed"
    // and is simply recomputed.
    std::uint64_t memo =
        program.fingerprint_.load(std::memory_order_relaxed);
    if (memo != 0)
        return memo;

    Hasher f;
    const ProgramOptions &opts = program.options();
    f.str(opts.name);
    f.i(static_cast<int>(opts.protocol));
    f.i(opts.instances);
    f.i(static_cast<int>(opts.reduceOp));

    const Collective &coll = program.collective();
    f.str(coll.name());
    f.i(coll.numRanks());
    f.i(coll.chunkFactor());
    f.b(coll.inPlace());
    f.d(coll.outputScale());
    for (Rank rank = 0; rank < coll.numRanks(); rank++) {
        f.i(coll.inputChunkCount(rank));
        int outputs = coll.outputChunkCount(rank);
        f.i(outputs);
        // The postcondition defines the collective; CustomCollective
        // instances with identical shapes but different expectations
        // must not collide.
        for (int index = 0; index < outputs; index++) {
            std::optional<ChunkValue> expect =
                coll.expectedOutput(rank, index);
            if (!expect.has_value() || !expect->initialized()) {
                f.i(-1);
                continue;
            }
            // Hash the canonical run-length encoding: equal multisets
            // have equal run lists, and an AllReduce postcondition
            // hashes in O(1) instead of O(ranks).
            std::span<const PartRun> runs = expect->runs();
            f.u64(runs.size());
            for (const PartRun &run : runs) {
                f.pair(run.rank, run.index);
                f.i(run.len);
            }
        }
    }

    f.u64(program.ops().size());
    for (const TraceOp &op : program.ops()) {
        f.pair(static_cast<int>(op.kind), op.channel);
        f.slice(op.src);
        f.slice(op.dst);
        f.i(op.parFactor);
    }
    // The scheduler sizes each rank's scratch from the program, not
    // from the ops: presetChunk can grow it past what any op touches.
    for (Rank rank = 0; rank < program.numRanks(); rank++)
        f.i(program.scratchChunkCount(rank));

    program.fingerprint_.store(f.h, std::memory_order_relaxed);
    return f.h;
}

std::uint64_t
fingerprintTopology(const Topology &topology)
{
    Hasher f;
    f.str(topology.name());
    // Node and rail structure are part of the key in their own right:
    // two machines with byte-identical link matrices but different
    // node boundaries (or rail maps) compile differently, because the
    // scheduler keys channel/TB decisions on nodeOf and the
    // hierarchical factories on railOf.
    f.i(topology.numNodes());
    f.i(topology.gpusPerNode());
    f.i(static_cast<int>(topology.variant()));
    f.i(topology.numRails());
    for (int local = 0; local < topology.gpusPerNode(); local++)
        f.i(topology.railOf(local));

    const MachineParams &p = topology.params();
    f.d(p.nvlinkGpuBwGBps);
    f.d(p.tbNvlinkBwGBps);
    f.d(p.ibNicBwGBps);
    f.d(p.nvlinkLatencyUs);
    f.d(p.ibLatencyUs);
    f.d(p.ibPerMessageUs);
    f.d(p.ibQpPenaltyUs);
    f.d(p.kernelLaunchUs);
    f.d(p.localCopyBwGBps);
    f.d(p.tbReduceBwGBps);
    f.d(p.tbCopyBwGBps);
    f.d(p.instrOverheadUs);
    f.d(p.protocolAlphaScale);

    f.i(topology.numResources());
    for (int r = 0; r < topology.numResources(); r++) {
        f.str(topology.resourceName(r));
        f.d(topology.resourceCapacityGBps(r));
    }

    // Connectivity and routes; the fault schedule is a runtime
    // concern and deliberately not part of the compile key.
    int ranks = topology.numRanks();
    for (int src = 0; src < ranks; src++) {
        for (int dst = 0; dst < ranks; dst++) {
            bool linked = topology.connected(src, dst);
            f.b(linked);
            if (!linked)
                continue;
            const Route &route = topology.route(src, dst);
            f.i(static_cast<int>(route.type));
            f.u64(route.resources.size());
            for (ResourceId res : route.resources)
                f.i(res);
            f.d(route.extraLatencyUs);
        }
    }
    return f.h;
}

std::uint64_t
planCacheKey(const Program &program, const CompileOptions &options)
{
    Hasher f;
    f.u64(fingerprintProgram(program));
    f.b(options.fuse);
    f.b(options.verify);
    f.i(options.maxThreadBlocks);
    f.i(options.verifySlots);
    f.b(options.topology != nullptr);
    if (options.topology != nullptr)
        f.u64(fingerprintTopology(*options.topology));
    return f.h;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

PlanCache &
PlanCache::global()
{
    static PlanCache cache;
    return cache;
}

bool
PlanCache::lookup(std::uint64_t key, Compiled &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        misses_++;
        return false;
    }
    it->second.lastUse = ++tick_;
    hits_++;
    out = it->second.plan;
    return true;
}

void
PlanCache::insert(std::uint64_t key, const Compiled &plan)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(key) > 0)
        return; // a concurrent compile of the same key won
    entries_.emplace(key, Entry{ plan, ++tick_ });
    if (entries_.size() > capacity_) {
        auto oldest = std::min_element(
            entries_.begin(), entries_.end(),
            [](const auto &a, const auto &b) {
                return a.second.lastUse < b.second.lastUse;
            });
        entries_.erase(oldest);
    }
}

Compiled
PlanCache::compile(const Program &program, const CompileOptions &options)
{
    return compile(program, options, planCacheKey(program, options));
}

Compiled
PlanCache::compile(const Program &program, const CompileOptions &options,
                   std::uint64_t key)
{
    // Every copy below shares the IR body: a Compiled copy costs its
    // header strings and stats, never the instructions.
    Compiled hit;
    if (lookup(key, hit))
        return hit;

    // Try the on-disk spill before paying for a compile. Any parse
    // failure or shape mismatch (stale file, torn write, wrong
    // build) falls through to a fresh compile that overwrites it.
    const char *dir = std::getenv("MSCCLANG_PLAN_CACHE_DIR");
    if (dir != nullptr && dir[0] != '\0') {
        std::ifstream in(planFileName(dir, key));
        if (in) {
            std::ostringstream text;
            text << in.rdbuf();
            try {
                IrProgram ir = IrProgram::fromXml(text.str());
                if (ir.numRanks == program.numRanks() &&
                    ir.collective == program.collective().name()) {
                    Compiled plan;
                    plan.stats = statsFromIr(ir, program);
                    plan.ir = std::move(ir);
                    {
                        std::lock_guard<std::mutex> lock(mutex_);
                        diskHits_++;
                    }
                    insert(key, plan);
                    return plan;
                }
            } catch (const Error &) {
                // corrupt entry: recompile below and overwrite
            }
        }
    }

    Compiled plan = compileProgram(program, options);
    insert(key, plan);
    if (dir != nullptr && dir[0] != '\0') {
        std::ofstream out(planFileName(dir, key),
                          std::ios::binary | std::ios::trunc);
        if (out)
            plan.ir.toXml(out);
    }
    return plan;
}

std::size_t
PlanCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
PlanCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t
PlanCache::diskHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return diskHits_;
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
    diskHits_ = 0;
}

Compiled
compileProgramCached(const Program &program, const CompileOptions &options)
{
    return PlanCache::global().compile(program, options);
}

} // namespace mscclang
