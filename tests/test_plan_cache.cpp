/**
 * @file
 * The content-addressed plan cache: a warm hit must be byte-identical
 * (same toXml()) to the cold compile for every collective the repo
 * ships, keys must separate anything that can change the compiled
 * plan (algorithm config via the trace, compile options, topology),
 * and the on-disk spill must round-trip, reject corrupt or stale
 * entries by recompiling, and never change observable results.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "common/strings.h"
#include "compiler/plan_cache.h"
#include "search/search.h"
#include "topology/topology.h"

namespace mscclang {
namespace {

struct Case
{
    const char *name;
    std::function<std::unique_ptr<Program>()> make;
    /** Null topology unless the algorithm is machine-specific. */
    bool dgx1Topology = false;
};

const Topology &
dgx1()
{
    static Topology topo = makeDgx1();
    return topo;
}

/** Every collective family in src/collectives/. */
std::vector<Case>
allCollectives()
{
    AlgoConfig plain;
    AlgoConfig i2;
    i2.instances = 2;
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    ll.instances = 2;
    return {
        { "ring_allreduce",
          [=] { return makeRingAllReduce(8, 2, i2); } },
        { "ring_allreduce_oop",
          [=] { return makeRingAllReduceOutOfPlace(8, 2, i2); } },
        { "allpairs_allreduce",
          [=] { return makeAllPairsAllReduce(8, ll); } },
        { "hierarchical_allreduce",
          [=] { return makeHierarchicalAllReduce(2, 4, 2, plain); } },
        { "twostep_alltoall",
          [=] { return makeTwoStepAllToAll(2, 4, plain); } },
        { "naive_alltoall",
          [=] { return makeNaiveAllToAll(8, plain); } },
        { "alltonext",
          [=] { return makeAllToNext(2, 4, plain); } },
        { "naive_alltonext",
          [=] { return makeNaiveAllToNext(2, 4, plain); } },
        { "ring_allgather",
          [=] { return makeRingAllGather(8, 2, i2); } },
        { "ring_allreduce_over",
          [=] {
              return makeRingAllReduceOver({ 0, 2, 1, 3 }, 1, plain);
          } },
        { "ring_allgather_over",
          [=] {
              return makeRingAllGatherOver({ 3, 1, 2, 0 }, 1, plain);
          } },
        { "sccl122_allgather",
          [=] { return makeSccl122AllGather(dgx1(), plain); }, true },
        { "dbt_allreduce",
          [=] { return makeDoubleBinaryTreeAllReduce(16, ll); } },
        { "rh_reducescatter",
          [=] { return makeRecursiveHalvingReduceScatter(8, plain); } },
        { "rd_allgather",
          [=] { return makeRecursiveDoublingAllGather(8, plain); } },
        { "rabenseifner_allreduce",
          [=] { return makeRabenseifnerAllReduce(8, plain); } },
        { "ring_broadcast",
          [=] { return makeRingBroadcast(8, 0, 4, plain); } },
        { "binomial_broadcast",
          [=] { return makeBinomialBroadcast(8, 0, plain); } },
        { "hierarchical_allgather",
          [=] { return makeHierarchicalAllGather(2, 4, plain); } },
    };
}

CompileOptions
optionsFor(const Case &c)
{
    CompileOptions copts;
    if (c.dgx1Topology)
        copts.topology = &dgx1();
    return copts;
}

/** RAII MSCCLANG_PLAN_CACHE_DIR pointing at a fresh temp dir. */
class SpillDir
{
  public:
    SpillDir()
    {
        path_ = testing::TempDir() + "mscclang_plan_cache_" +
            std::to_string(::getpid());
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
        ::setenv("MSCCLANG_PLAN_CACHE_DIR", path_.c_str(), 1);
    }
    ~SpillDir()
    {
        ::unsetenv("MSCCLANG_PLAN_CACHE_DIR");
        std::filesystem::remove_all(path_);
    }
    const std::string &path() const { return path_; }

    std::string
    planFile(std::uint64_t key) const
    {
        char name[64];
        std::snprintf(name, sizeof name, "plan-%016llx.xml",
                      static_cast<unsigned long long>(key));
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::string out((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    return out;
}

TEST(PlanCache, WarmHitIsByteIdenticalForEveryCollective)
{
    for (const Case &c : allCollectives()) {
        SCOPED_TRACE(c.name);
        CompileOptions copts = optionsFor(c);
        std::string cold =
            compileProgram(*c.make(), copts).ir.toXml();

        PlanCache cache(64);
        Compiled first = cache.compile(*c.make(), copts);
        Compiled warm = cache.compile(*c.make(), copts);
        EXPECT_EQ(cache.misses(), 1u);
        EXPECT_EQ(cache.hits(), 1u);
        EXPECT_EQ(warm.ir.toXml(), cold);
        // Memory hits carry the full original stats.
        EXPECT_EQ(warm.stats.totalInstructions,
                  first.stats.totalInstructions);
        EXPECT_EQ(warm.stats.instrsAfterFusion,
                  first.stats.instrsAfterFusion);
        EXPECT_EQ(warm.stats.channels, first.stats.channels);
    }
}

TEST(PlanCache, HitReturnsAnIsolatedCopy)
{
    // baselines.cpp renames out.ir after compiling; a later hit must
    // not observe the caller's mutation.
    PlanCache cache(8);
    AlgoConfig plain;
    Compiled a = cache.compile(*makeNaiveAllToAll(4, plain));
    std::string original_name = a.ir.name;
    a.ir.name = "mutated_by_caller";
    Compiled b = cache.compile(*makeNaiveAllToAll(4, plain));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(b.ir.name, original_name);
}

TEST(PlanCache, HitSharesTheCachedBody)
{
    PlanCache cache(8);
    AlgoConfig i2;
    i2.instances = 2;
    Compiled miss = cache.compile(*makeRingAllReduce(8, 2, i2));
    Compiled hit = cache.compile(*makeRingAllReduce(8, 2, i2));
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    ASSERT_NE(hit.ir.gpus.bodyId(), nullptr);
    EXPECT_EQ(hit.ir.gpus.bodyId(), miss.ir.gpus.bodyId());
}

TEST(PlanCache, EditingAHitLeavesTheCachedPlanUnchanged)
{
    // The race and verifier tests seed bugs by editing compiled IR;
    // an edit builds a new body and must never reach the cached plan.
    PlanCache cache(8);
    AlgoConfig i2;
    i2.instances = 2;
    auto make = [&] { return makeHierarchicalAllReduce(2, 4, 2, i2); };
    Compiled first = cache.compile(*make());
    std::string xml = first.ir.toXml();
    const void *cached = first.ir.gpus.bodyId();

    Compiled mutated = cache.compile(*make());
    IrBuilder stripped(mutated.ir.gpus);
    for (int i = 0; i < stripped.numSteps(); i++)
        stripped.setDeps(i, {});
    mutated.ir.gpus =
        stripped.build(mutated.ir.numRanks, mutated.ir.inPlace);
    EXPECT_NE(mutated.ir.gpus.bodyId(), cached);
    EXPECT_NE(mutated.ir.toXml(), xml);

    Compiled again = cache.compile(*make());
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(again.ir.gpus.bodyId(), cached);
    EXPECT_EQ(again.ir.toXml(), xml);
}

TEST(PlanCache, KeyedAndUnkeyedCompilesShareOneEntry)
{
    // The re-key sites pass the key they already computed; the entry
    // it names must be the one an unkeyed request finds.
    Topology topo = makeGeneric(2, 4);
    CompileOptions copts;
    copts.topology = &topo;
    PlanCache cache(8);
    auto keyed = makeRingAllReduce(8, 1, {});
    Compiled a =
        cache.compile(*keyed, copts, planCacheKey(*keyed, copts));
    Compiled b = cache.compile(*makeRingAllReduce(8, 1, {}), copts);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(a.ir.toXml(), b.ir.toXml());
    EXPECT_EQ(a.ir.toXml(),
              compileProgram(*makeRingAllReduce(8, 1, {}), copts)
                  .ir.toXml());

    // And the other way round: an unkeyed miss, then a keyed hit.
    auto other = makeRingAllGather(8, 1, {});
    Compiled c = cache.compile(*other, copts);
    Compiled d =
        cache.compile(*other, copts, planCacheKey(*other, copts));
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(c.ir.toXml(), d.ir.toXml());
}

TEST(PlanCache, KeySeparatesAlgoConfig)
{
    // AlgoConfig is baked into the trace, so differing configs must
    // produce differing program fingerprints.
    AlgoConfig plain;
    AlgoConfig i2;
    i2.instances = 2;
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    CompileOptions copts;
    std::uint64_t base =
        planCacheKey(*makeRingAllReduce(8, 2, plain), copts);
    EXPECT_NE(base, planCacheKey(*makeRingAllReduce(8, 2, i2), copts));
    EXPECT_NE(base, planCacheKey(*makeRingAllReduce(8, 2, ll), copts));
    EXPECT_NE(base, planCacheKey(*makeRingAllReduce(8, 4, plain), copts));
    EXPECT_NE(base, planCacheKey(*makeRingAllReduce(16, 2, plain), copts));
    EXPECT_NE(base,
              planCacheKey(*makeRingAllGather(8, 2, plain), copts));
}

TEST(PlanCache, KeySeparatesEverySearchKnob)
{
    // Satellite of the schedule search: every knob the candidate
    // generator varies (channels, parallelize, instances, protocol,
    // aggregation) must feed the content key, so two candidates
    // differing in exactly one knob can never collide in the cache
    // and silently reuse each other's plan.
    Topology topo = makeNdv4(1);
    CompileOptions copts;
    copts.topology = &topo;
    ScheduleCandidate base;
    base.family = &algoEntry("ring_allreduce");
    base.channels = 2;
    base.parallelize = 1;
    base.instances = 2;
    base.protocol = Protocol::LL;
    base.aggregate = 1;

    std::vector<ScheduleCandidate> variants(6, base);
    variants[1].channels = 4;
    variants[2].parallelize = 2;
    variants[3].instances = 4;
    variants[4].protocol = Protocol::LL128;
    variants[5].aggregate = 2;

    std::vector<std::uint64_t> keys;
    for (const ScheduleCandidate &spec : variants)
        keys.push_back(
            planCacheKey(*buildCandidate(spec, topo), copts));
    for (size_t a = 0; a < keys.size(); a++)
        for (size_t b = a + 1; b < keys.size(); b++)
            EXPECT_NE(keys[a], keys[b])
                << candidateLabel(variants[a]) << " vs "
                << candidateLabel(variants[b]);

    // And the same knob spelled twice keys identically (the dedup
    // the search relies on).
    EXPECT_EQ(keys[0],
              planCacheKey(*buildCandidate(base, topo), copts));
}

TEST(PlanCache, KeySeparatesCompileOptions)
{
    AlgoConfig plain;
    auto prog = makeRingAllReduce(8, 2, plain);
    CompileOptions base;
    std::uint64_t key = planCacheKey(*prog, base);

    CompileOptions no_fuse = base;
    no_fuse.fuse = false;
    EXPECT_NE(key, planCacheKey(*prog, no_fuse));

    CompileOptions no_verify = base;
    no_verify.verify = false;
    EXPECT_NE(key, planCacheKey(*prog, no_verify));

    CompileOptions tbs = base;
    tbs.maxThreadBlocks = 7;
    EXPECT_NE(key, planCacheKey(*prog, tbs));

    CompileOptions slots = base;
    slots.verifySlots = 1;
    EXPECT_NE(key, planCacheKey(*prog, slots));
}

TEST(PlanCache, KeySeparatesTopology)
{
    AlgoConfig plain;
    auto prog = makeRingAllReduce(8, 1, plain);
    Topology ndv4 = makeNdv4(1);
    Topology dgx2 = makeDgx2(1);

    CompileOptions none;
    CompileOptions with_ndv4;
    with_ndv4.topology = &ndv4;
    CompileOptions with_dgx2;
    with_dgx2.topology = &dgx2;

    std::uint64_t k_none = planCacheKey(*prog, none);
    std::uint64_t k_ndv4 = planCacheKey(*prog, with_ndv4);
    std::uint64_t k_dgx2 = planCacheKey(*prog, with_dgx2);
    EXPECT_NE(k_none, k_ndv4);
    EXPECT_NE(k_none, k_dgx2);
    EXPECT_NE(k_ndv4, k_dgx2);

    // A degraded machine (the replan path) must not collide with the
    // healthy one.
    EXPECT_NE(fingerprintTopology(ndv4),
              fingerprintTopology(ndv4.degraded({ Link{ 0, 1 } })));
}

TEST(PlanCache, KeySeparatesNodeAndRailStructure)
{
    // Two machines with byte-identical resource sets and link
    // matrices but different node boundaries: 2x4 vs 4x2 over the
    // same 8 ranks, every pair connected through the same per-rank
    // egress/ingress resources. Schedulers key decisions on nodeOf,
    // so the fingerprints must not collide.
    auto build = [](int nodes, int gpus) {
        Topology topo("uniform", nodes, gpus, MachineParams{});
        int ranks = topo.numRanks();
        std::vector<ResourceId> out(ranks), in(ranks);
        for (int r = 0; r < ranks; r++) {
            out[r] = topo.addResource(strprintf("out[%d]", r), 100.0);
            in[r] = topo.addResource(strprintf("in[%d]", r), 100.0);
        }
        for (int src = 0; src < ranks; src++) {
            for (int dst = 0; dst < ranks; dst++) {
                if (src == dst)
                    continue;
                Route route;
                route.type = LinkType::NvLink;
                route.resources = { out[src], in[dst] };
                route.extraLatencyUs = 1.0;
                topo.setRoute(src, dst, route);
            }
        }
        return topo;
    };
    Topology two_by_four = build(2, 4);
    Topology four_by_two = build(4, 2);
    EXPECT_NE(fingerprintTopology(two_by_four),
              fingerprintTopology(four_by_two));

    // Same shape, different rail maps: a rank's NIC assignment
    // changes which inter-node rings are rail-aligned.
    Topology paired = build(2, 4);
    paired.setRailLayout(TopologyVariant::Flat, 2, { 0, 0, 1, 1 });
    Topology striped = build(2, 4);
    striped.setRailLayout(TopologyVariant::Flat, 2, { 0, 1, 0, 1 });
    EXPECT_NE(fingerprintTopology(paired),
              fingerprintTopology(striped));

    // Variant alone separates too (flat vs rail NDv4 differ in
    // resources as well, but the tag itself is hashed).
    EXPECT_NE(fingerprintTopology(makeNdv4(2)),
              fingerprintTopology(makeNdv4(2, TopologyVariant::Rail)));
}

TEST(PlanCache, LruEvictsLeastRecentlyUsed)
{
    AlgoConfig plain;
    PlanCache cache(1);
    cache.compile(*makeNaiveAllToAll(2, plain));
    cache.compile(*makeNaiveAllToAll(4, plain)); // evicts the 2-rank
    cache.compile(*makeNaiveAllToAll(2, plain));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(PlanCache, DiskSpillRoundTripsAcrossCacheInstances)
{
    SpillDir dir;
    AlgoConfig i2;
    i2.instances = 2;
    auto make = [&] { return makeRingAllReduce(8, 2, i2); };
    CompileOptions copts;
    std::uint64_t key = planCacheKey(*make(), copts);

    PlanCache writer(8);
    std::string cold = writer.compile(*make(), copts).ir.toXml();
    ASSERT_TRUE(std::filesystem::exists(dir.planFile(key)));

    // A fresh cache (new process, conceptually) loads from disk
    // instead of compiling, byte-identically.
    PlanCache reader(8);
    Compiled warm = reader.compile(*make(), copts);
    EXPECT_EQ(reader.diskHits(), 1u);
    EXPECT_EQ(warm.ir.toXml(), cold);
    // Disk hits reconstruct the IR-derivable stats.
    EXPECT_GT(warm.stats.totalInstructions, 0);
    EXPECT_GT(warm.stats.channels, 0);
}

TEST(PlanCache, CorruptDiskEntryFallsBackToFreshCompile)
{
    SpillDir dir;
    AlgoConfig plain;
    auto make = [&] { return makeNaiveAllToAll(4, plain); };
    CompileOptions copts;
    std::uint64_t key = planCacheKey(*make(), copts);
    std::string cold = compileProgram(*make(), copts).ir.toXml();

    {
        std::ofstream out(dir.planFile(key));
        out << "<mscclang-this-is-not-xml";
    }
    PlanCache cache(8);
    Compiled got = cache.compile(*make(), copts);
    EXPECT_EQ(cache.diskHits(), 0u);
    EXPECT_EQ(got.ir.toXml(), cold);
    // The corrupt entry was overwritten with a valid plan.
    EXPECT_EQ(slurp(dir.planFile(key)), cold);
}

TEST(PlanCache, MalformedDiskEntryFallsBackToFreshCompile)
{
    // Well-formed XML of the right shape whose structure IrBuilder
    // rejects (a sparse thread-block id) is never indexed: the cache
    // compiles afresh and overwrites it.
    SpillDir dir;
    AlgoConfig plain;
    auto make = [&] { return makeNaiveAllToAll(4, plain); };
    CompileOptions copts;
    std::uint64_t key = planCacheKey(*make(), copts);
    std::string cold = compileProgram(*make(), copts).ir.toXml();

    std::string sparse = cold;
    std::size_t tb = sparse.find("<tb id=\"0\"");
    ASSERT_NE(tb, std::string::npos);
    sparse.replace(tb, 10, "<tb id=\"9\"");
    {
        std::ofstream out(dir.planFile(key));
        out << sparse;
    }
    PlanCache cache(8);
    Compiled got = cache.compile(*make(), copts);
    EXPECT_EQ(cache.diskHits(), 0u);
    EXPECT_EQ(got.ir.toXml(), cold);
    EXPECT_EQ(slurp(dir.planFile(key)), cold);
}

TEST(PlanCache, MismatchedDiskEntryFallsBackToFreshCompile)
{
    // A parseable file whose shape does not match the request (stale
    // key collision, foreign file) must be ignored, not trusted.
    SpillDir dir;
    AlgoConfig plain;
    auto make = [&] { return makeNaiveAllToAll(4, plain); };
    CompileOptions copts;
    std::uint64_t key = planCacheKey(*make(), copts);
    std::string cold = compileProgram(*make(), copts).ir.toXml();

    std::string other =
        compileProgram(*makeRingAllGather(8, 2, plain)).ir.toXml();
    {
        std::ofstream out(dir.planFile(key));
        out << other;
    }
    PlanCache cache(8);
    Compiled got = cache.compile(*make(), copts);
    EXPECT_EQ(cache.diskHits(), 0u);
    EXPECT_EQ(got.ir.toXml(), cold);
    EXPECT_EQ(slurp(dir.planFile(key)), cold);
}

TEST(PlanCache, GlobalEntryPointIsCoherent)
{
    AlgoConfig plain;
    CompileOptions copts;
    std::string a =
        compileProgramCached(*makeNaiveAllToAll(2, plain), copts)
            .ir.toXml();
    std::string b =
        compileProgramCached(*makeNaiveAllToAll(2, plain), copts)
            .ir.toXml();
    std::string cold =
        compileProgram(*makeNaiveAllToAll(2, plain), copts).ir.toXml();
    EXPECT_EQ(a, cold);
    EXPECT_EQ(b, cold);
}

/** Traces copy @p n (0..3) of a 2-rank AllGather by direct copies:
 *  rank n/2's input chunk to output slot n/2 on rank n%2. */
void
traceAllGatherCopy(Program &prog, int n)
{
    Rank src = n / 2;
    prog.chunk(src, BufferKind::Input, 0)
        .copy(n % 2, BufferKind::Output, src);
}

/** A complete 2-rank AllGather. With @p preset_scratch, rank 0's
 *  scratch[5] is preset first, as a composed kernel's leftover state,
 *  which grows rank 0's scratch to 6 chunks that no op touches. */
std::unique_ptr<Program>
tracedAllGather(bool preset_scratch)
{
    auto prog = std::make_unique<Program>(
        std::make_shared<AllGatherCollective>(2, 1));
    if (preset_scratch)
        prog->presetChunk(0, BufferKind::Scratch, 5,
                          ChunkValue::input(1, 0));
    for (int n = 0; n < 4; n++)
        traceAllGatherCopy(*prog, n);
    return prog;
}

TEST(PlanCache, KeyCoversScratchGrownByPresetChunk)
{
    // The scheduler sizes IR scratch from Program::scratchChunkCount,
    // so two traces with equal ops but different preset scratch must
    // not share a plan.
    auto plain = tracedAllGather(false);
    auto preset = tracedAllGather(true);
    ASSERT_EQ(preset->scratchChunkCount(0), 6);
    EXPECT_NE(planCacheKey(*plain, {}), planCacheKey(*preset, {}));

    Compiled direct = compileProgram(*preset);
    ASSERT_EQ(direct.ir.gpus[0].scratchChunks, 6);
    PlanCache cache(8);
    EXPECT_EQ(cache.compile(*plain).ir.gpus[0].scratchChunks, 0);
    Compiled served = cache.compile(*preset);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(served.ir.gpus[0].scratchChunks, 6);
    EXPECT_EQ(served.ir.toXml(), direct.ir.toXml());
}

TEST(PlanCache, FingerprintMemoFollowsTracing)
{
    Program prog(std::make_shared<AllGatherCollective>(2, 1));
    for (int n = 0; n < 3; n++)
        traceAllGatherCopy(prog, n);
    std::uint64_t three = fingerprintProgram(prog);
    EXPECT_EQ(fingerprintProgram(prog), three);

    // Appending an op invalidates the memo: the new value is the
    // fingerprint of a freshly traced identical program.
    traceAllGatherCopy(prog, 3);
    std::uint64_t four = fingerprintProgram(prog);
    EXPECT_NE(four, three);
    EXPECT_EQ(four, fingerprintProgram(*tracedAllGather(false)));

    // So does growing scratch without an op: a chunk() read past the
    // end grows scratch before it rejects the uninitialized chunk.
    EXPECT_THROW(prog.chunk(1, BufferKind::Scratch, 2), ProgramError);
    ASSERT_EQ(prog.scratchChunkCount(1), 3);
    EXPECT_NE(fingerprintProgram(prog), four);
}

TEST(PlanCache, ConcurrentKeyingOfOneProgramAgrees)
{
    // Eight threads race to fill one Program's memo and to compile it
    // through one cache; every fingerprint and every plan must match
    // the single-threaded answer for an identical trace.
    AlgoConfig i2;
    i2.instances = 2;
    auto shared = makeRingAllReduce(8, 2, i2);
    std::uint64_t expect_fp =
        fingerprintProgram(*makeRingAllReduce(8, 2, i2));
    std::string expect_xml =
        compileProgram(*makeRingAllReduce(8, 2, i2)).ir.toXml();

    constexpr int kThreads = 8;
    PlanCache cache(4);
    std::vector<std::uint64_t> fps(kThreads);
    std::vector<std::string> xmls(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            fps[t] = fingerprintProgram(*shared);
            xmls[t] = cache.compile(*shared).ir.toXml();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; t++) {
        EXPECT_EQ(fps[t], expect_fp) << "thread " << t;
        EXPECT_EQ(xmls[t], expect_xml) << "thread " << t;
    }
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::size_t>(kThreads));
}

TEST(PlanCache, ConcurrentHitsOfOneKeyShareOneBody)
{
    // Eight threads hit one primed key at once: every hit shares the
    // cached body, and every reader sees the same bytes.
    AlgoConfig i2;
    i2.instances = 2;
    PlanCache cache(4);
    Compiled primed = cache.compile(*makeRingAllReduce(8, 2, i2));
    std::string expect_xml = primed.ir.toXml();

    constexpr int kThreads = 8;
    std::vector<std::unique_ptr<Program>> programs;
    for (int t = 0; t < kThreads; t++)
        programs.push_back(makeRingAllReduce(8, 2, i2));
    std::atomic<int> ready{ 0 };
    std::vector<const void *> bodies(kThreads);
    std::vector<std::string> xmls(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            Compiled hit = cache.compile(*programs[t]);
            bodies[t] = hit.ir.gpus.bodyId();
            xmls[t] = hit.ir.toXml();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; t++) {
        EXPECT_EQ(bodies[t], primed.ir.gpus.bodyId()) << "thread " << t;
        EXPECT_EQ(xmls[t], expect_xml) << "thread " << t;
    }
    EXPECT_EQ(cache.hits(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCache, KeySeparatesEveryTraceOpField)
{
    // One traced op per program, on identical preset state, varied in
    // exactly one TraceOp field. Count is shared by src and dst in
    // any legal trace, so it varies both.
    enum Variant {
        Base, Kind, SrcRank, SrcBuffer, SrcIndex, Count, DstRank,
        DstBuffer, DstIndex, Channel, ParFactor, NumVariants
    };
    auto make = [](Variant v) {
        auto prog = std::make_unique<Program>(
            std::make_shared<AllGatherCollective>(4, 2));
        // Presets grow rank 0's and rank 1's scratch in every
        // variant alike, so only the op differs.
        prog->presetChunk(0, BufferKind::Scratch, 0,
                          ChunkValue::input(0, 0));
        prog->presetChunk(1, BufferKind::Scratch, 3,
                          ChunkValue::input(1, 0));
        prog->presetChunk(1, BufferKind::Output, 0,
                          ChunkValue::input(1, 0));
        ChunkRef src = prog->chunk(
            v == SrcRank ? 2 : 0,
            v == SrcBuffer ? BufferKind::Scratch : BufferKind::Input,
            v == SrcIndex ? 1 : 0, v == Count ? 2 : 1);
        Rank dst_rank = v == DstRank ? 2 : 1;
        BufferKind dst_buffer =
            v == DstBuffer ? BufferKind::Scratch : BufferKind::Output;
        int dst_index = v == DstIndex ? 2 : 0;
        OpOptions opts;
        opts.channel = v == Channel ? 1 : -1;
        ParallelizeScope scope = prog->parallelize(v == ParFactor ? 2 : 1);
        if (v == Kind)
            prog->chunk(dst_rank, dst_buffer, dst_index)
                .reduce(src, opts);
        else
            src.copy(dst_rank, dst_buffer, dst_index, opts);
        return prog;
    };

    std::vector<std::uint64_t> keys;
    for (int v = Base; v < NumVariants; v++) {
        auto prog = make(static_cast<Variant>(v));
        ASSERT_EQ(prog->ops().size(), 1u);
        keys.push_back(planCacheKey(*prog, {}));
    }
    for (size_t a = 0; a < keys.size(); a++)
        for (size_t b = a + 1; b < keys.size(); b++)
            EXPECT_NE(keys[a], keys[b]) << "variants " << a << ", " << b;
    EXPECT_EQ(keys[Base], planCacheKey(*make(Base), {}));
}

} // namespace
} // namespace mscclang
