#include "compiler/compiler.h"

#include <chrono>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/verifier.h"

namespace mscclang {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

/**
 * Lowers, fuses and schedules @p program, filling the matching
 * fields of @p stats. The instruction graph is dead once scheduled,
 * so it is freed here, before verification allocates.
 */
IrProgram
buildIr(const Program &program, const CompileOptions &options,
        CompileStats &stats)
{
    Clock::time_point start = Clock::now();
    InstrGraph graph = lowerProgram(program);
    stats.lowerNs = nsSince(start);
    stats.instrsBeforeFusion = graph.numLive();

    if (options.topology != nullptr) {
        const Topology &topo = *options.topology;
        if (topo.numRanks() != program.numRanks()) {
            throw CompileError(strprintf(
                "topology has %d ranks but the program uses %d",
                topo.numRanks(), program.numRanks()));
        }
        for (const InstrNode &node : graph.nodes()) {
            if (!node.live || node.sendPeer < 0)
                continue;
            if (!topo.connected(node.rank, node.sendPeer)) {
                throw CompileError(strprintf(
                    "program sends %d -> %d but topology %s has no "
                    "direct link; relay through a connected rank",
                    node.rank, node.sendPeer, topo.name().c_str()));
            }
        }
    }

    if (options.fuse) {
        start = Clock::now();
        stats.fusion = fuseInstructions(graph);
        stats.fuseNs = nsSince(start);
    }
    stats.instrsAfterFusion = graph.numLive();

    ScheduleOptions sched;
    sched.maxThreadBlocks = options.maxThreadBlocks;
    sched.topology = options.topology;
    // The schedule's witness order must hold at the slot count the
    // verifier checks it against.
    sched.slots = options.verifySlots;
    start = Clock::now();
    IrProgram ir = scheduleProgram(program, graph, sched);
    stats.scheduleNs = nsSince(start);
    return ir;
}

} // namespace

Compiled
compileProgram(const Program &program, const CompileOptions &options)
{
    Compiled out;
    out.stats.traceOps = static_cast<int>(program.ops().size());
    out.ir = buildIr(program, options, out.stats);
    out.stats.channels = out.ir.numChannels();
    out.stats.maxThreadBlocks = out.ir.maxThreadBlocks();
    out.stats.totalInstructions = out.ir.totalInstructions();

    if (options.verify) {
        VerifyOptions verify;
        verify.slots = options.verifySlots;
        Clock::time_point start = Clock::now();
        verifyIr(out.ir, program.collective(), verify);
        out.stats.verifyNs = nsSince(start);
    }
    return out;
}

} // namespace mscclang
