/**
 * @file
 * Tests for the algorithm catalogue (src/collectives/catalog.h):
 * every entry builds and verifies on a machine its shape check
 * accepts, its factory honors exactly the knobs the entry lists, and
 * the search families keep their labels and order.
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collectives/catalog.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/plan_cache.h"

namespace mscclang {
namespace {

/** A machine @p entry's shape check accepts: two NDv4 nodes, or the
 *  DGX-1 for the entries written for it. */
Topology
machineFor(const AlgoEntry &entry)
{
    Topology ndv4 = makeNdv4(2);
    return entry.fits(ndv4) ? ndv4 : makeDgx1();
}

std::unique_ptr<Program>
build(const AlgoEntry &entry, const Topology &topo,
      const AlgoConfig &config)
{
    return entry.build(topo, config, /*channels=*/2, /*root=*/1,
                       /*chunks=*/2);
}

TEST(Catalog, EveryEntryBuildsAndVerifies)
{
    std::set<std::string> names;
    for (const AlgoEntry &entry : algoCatalog()) {
        SCOPED_TRACE(entry.name);
        EXPECT_TRUE(names.insert(entry.name).second) << "duplicate name";
        Topology topo = machineFor(entry);
        ASSERT_TRUE(entry.fits(topo));
        std::unique_ptr<Program> prog = build(entry, topo, AlgoConfig{});
        EXPECT_EQ(prog->options().name.rfind(entry.name, 0), 0u)
            << prog->options().name;
        CompileOptions copts;
        copts.topology = &topo;
        ASSERT_TRUE(copts.verify);
        EXPECT_NO_THROW(compileProgram(*prog, copts));
        EXPECT_GT(entry.loc, 0);
        EXPECT_LT(entry.loc, 30); // the paper's §7 claim
    }
    EXPECT_EQ(names.size(), 15u);
}

TEST(Catalog, FactoriesHonorExactlyTheListedKnobs)
{
    for (const AlgoEntry &entry : algoCatalog()) {
        SCOPED_TRACE(entry.name);
        Topology topo = machineFor(entry);
        AlgoConfig aggregate;
        aggregate.aggregate = 2;
        if (entry.knobs.aggregate)
            EXPECT_NO_THROW(build(entry, topo, aggregate));
        else
            EXPECT_THROW(build(entry, topo, aggregate), Error);
        AlgoConfig split;
        split.hierSplit = 2;
        if (entry.knobs.hierSplit)
            EXPECT_NO_THROW(build(entry, topo, split));
        else
            EXPECT_THROW(build(entry, topo, split), Error);
    }
}

TEST(Catalog, SearchFamiliesKeepTheirLabelsAndOrder)
{
    auto labels = [](const char *collective) {
        std::vector<std::string> out;
        for (const AlgoEntry &entry : algoCatalog()) {
            if (entry.searched() && entry.collective == std::string(collective))
                out.push_back(entry.searchLabel);
        }
        return out;
    };
    EXPECT_EQ(labels("allreduce"),
              (std::vector<std::string>{ "Ring", "AllPairs", "Tree",
                                         "Rabenseifner",
                                         "Hierarchical" }));
    EXPECT_EQ(labels("allgather"),
              (std::vector<std::string>{ "RingAllGather",
                                         "RecDoublingAllGather",
                                         "HierAllGather" }));
    int searched = 0;
    for (const AlgoEntry &entry : algoCatalog())
        searched += entry.searched() ? 1 : 0;
    EXPECT_EQ(searched, 8);
}

TEST(Catalog, HierarchicalAllReduceParallelizesByNodeCount)
{
    // One program under one name: the entry passes intra_parallel =
    // numNodes, as the factory's own doc (paper §5.1) says.
    Topology topo = makeNdv4(2);
    AlgoConfig config;
    std::unique_ptr<Program> via_entry = build(
        algoEntry("hierarchical_allreduce"), topo, config);
    std::unique_ptr<Program> direct =
        makeHierarchicalAllReduce(2, 8, 2, config);
    EXPECT_EQ(planCacheKey(*via_entry, CompileOptions{}),
              planCacheKey(*direct, CompileOptions{}));
}

TEST(Catalog, UnknownNameThrows)
{
    EXPECT_THROW(algoEntry("no_such_algo"), Error);
    EXPECT_STREQ(algoEntry("ring_allreduce").name, "ring_allreduce");
}

} // namespace
} // namespace mscclang
