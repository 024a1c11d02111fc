/**
 * @file
 * Self-test of the benchmark's own code: the order statistics, the
 * tracer, the seeded input generators, and the output checks (a
 * corrupted plan or data buffer must be reported as a failure).
 * Exits nonzero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "collectives/collectives.h"
#include "compiler/compiler.h"
#include "harness.h"
#include "topology/topology.h"

using namespace mscclang;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        failures++;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testOrderStatistics()
{
    expect(near(median({ 3, 1, 2 }), 2), "median of odd count");
    expect(near(median({ 4, 1, 3, 2 }), 2.5), "median of even count");
    expect(median({}) == 0.0, "median of nothing");

    std::vector<double> hundred;
    for (int i = 1; i <= 100; i++)
        hundred.push_back(i);
    expect(near(percentile(hundred, 50), 50), "p50 nearest rank");
    expect(near(percentile(hundred, 99), 99), "p99 nearest rank");
    expect(near(percentile(hundred, 100), 100), "p100 is the max");
    expect(near(percentile({ 7 }, 99), 7), "percentile of one value");

    expect(near(geomean({ 1, 4, 16 }), 4), "geomean");
    expect(near(geomean({ 5, 5 }), 5), "geomean of equal values");
    expect(geomean({}) == 0.0, "geomean of nothing");

    std::vector<double> fastest;
    keepFastest(fastest, { 3, 1 });
    keepFastest(fastest, { 2, 5, 4 });
    expect(fastest == std::vector<double>({ 2, 1, 4 }),
           "fastest time per part");
    expect(near(sum(fastest), 7), "sum of the fastest parts");

    expect(near(busBwGBps("allreduce", 1000000000, 8, 1e6), 1.75),
           "allreduce bus bandwidth factor");
    expect(near(busBwGBps("allgather", 1000000000, 8, 1e6), 7.0),
           "allgather bus bandwidth counts the gathered output");
}

void
testTracer()
{
    Tracer off(false);
    int calls = 0;
    expect(off.span("x.ms", [&] { return ++calls; }) == 1,
           "disabled span still runs its body");
    off.add("x.count", 1);
    off.commit();
    expect(off.samples().empty() && off.spans().empty(),
           "disabled tracer records nothing");

    Tracer on(true);
    on.span("outer.ms", [&] { on.span("inner.ms", [] {}); });
    on.add("work.count", 2);
    on.add("work.count", 3);
    on.commit();
    on.add("work.count", 7);
    on.commit();
    expect(on.spans().size() == 2, "two spans recorded");
    expect(on.spans()[1].parent == 0, "inner span names its parent");
    expect(on.spans()[0].endMs >= on.spans()[1].endMs,
           "outer span encloses inner span");
    const auto &work = on.samples().at("work.count");
    expect(work.size() == 2 && work[0] == 5 && work[1] == 7,
           "counters accumulate per repetition");
}

void
testHostReference()
{
    std::vector<std::uint32_t> p = singleCycle(1000, 3);
    std::uint32_t at = 0;
    std::size_t length = 0;
    do {
        at = p[at];
        length++;
    } while (at != 0 && length <= p.size());
    expect(length == p.size(), "the reference walk is one full cycle");
    expect(p == singleCycle(1000, 3), "the reference walk is fixed");

    HostReference host(1 << 16, 1000, 1000);
    expect(host.scale() == 1.0, "no reference sample, no scaling");
    double a = host.measureMs();
    double b = host.measureMs();
    expect(host.samples() == 2 && host.lastMs() == b,
           "reference samples recorded");
    expect(host.fastestMs() > 0.0 && host.fastestMs() <= std::min(a, b),
           "fastest kernels sum to at most the fastest sample");
    expect(near(host.scale(), HostReference::kNominalMs / host.fastestMs()),
           "scale to the reference host");
}

void
testSeededInputs()
{
    std::vector<std::uint64_t> a = sweepLadder(11);
    expect(a == sweepLadder(11), "ladder is a function of the seed");
    expect(a != sweepLadder(12), "ladder changes with the seed");
    expect(a.size() == 10, "ten ladder points");
    for (std::size_t i = 0; i < a.size(); i++) {
        std::uint64_t lo = std::uint64_t{ 1 } << (16 + i);
        expect(a[i] >= lo && a[i] < lo + lo / 8,
               "ladder point in the lowest eighth of its octave");
        expect(a[i] % 4096 == 0, "ladder point is 4 KiB aligned");
    }

    WorkloadSpec s = fleetSpec(5);
    expect(s.toJson() == fleetSpec(5).toJson(),
           "fleet spec is a function of the seed");
    expect(s.toJson() != fleetSpec(6).toJson(),
           "fleet spec changes with the seed");
    expect(s.totalOps() >= 2000, "fleet spec has at least 2000 ops");
    s.validate();
}

void
testCorruptedOutputsFail()
{
    std::unique_ptr<Program> program =
        makeRingAllReduce(8, 1, AlgoConfig{});
    Compiled compiled = compileProgram(*program);
    std::string xml = compiled.ir.toXml();

    Ledger ledger;
    checkPlanBytes(ledger, "ring", fnv1a(xml), xml);
    expect(ledger.failed == 0, "identical plan bytes pass");
    std::string flipped = xml;
    flipped[flipped.size() / 2] ^= 0x01;
    checkPlanBytes(ledger, "ring", fnv1a(xml), flipped);
    expect(ledger.failed == 1 && ledger.attempted == 2,
           "a flipped IR byte is a failure");

    Topology topology = parseTopology("generic:1:8");
    DataRun run = runDataMode(topology, compiled.ir, 64 * 1024, 1);
    Ledger data;
    checkDataRun(data, "ring", program->collective(),
                 program->options().reduceOp, run);
    expect(data.failed == 0, "a correct data-mode run passes");
    run.outputs[3][17] += 1.0f;
    checkDataRun(data, "ring", program->collective(),
                 program->options().reduceOp, run);
    expect(data.failed == 1, "a corrupted output buffer is a failure");
}

} // namespace

int
main()
{
    testOrderStatistics();
    testTracer();
    testHostReference();
    testSeededInputs();
    testCorruptedOutputsFail();
    if (failures == 0)
        std::printf("perfbench self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
