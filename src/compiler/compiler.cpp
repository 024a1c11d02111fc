#include "compiler/compiler.h"

#include <sys/resource.h>

#include <chrono>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/verifier.h"

namespace mscclang {

namespace {

/** Minor page faults of the calling thread so far. */
std::int64_t
minorFaults()
{
#ifdef RUSAGE_THREAD
    rusage usage;
    if (getrusage(RUSAGE_THREAD, &usage) == 0)
        return usage.ru_minflt;
#endif
    return 0;
}

/** Wall time and minor page faults of one compile phase. */
class PhaseMeter
{
  public:
    /** Stores the time and faults since construction. */
    void
    stop(std::int64_t &ns, std::int64_t &faults) const
    {
        ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - start_)
                 .count();
        faults = minorFaults() - faults_;
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_ = Clock::now();
    std::int64_t faults_ = minorFaults();
};

/**
 * Lowers, fuses and schedules @p program, filling the matching
 * fields of @p stats. The instruction graph is dead once scheduled,
 * so it is freed here, before verification allocates.
 */
IrProgram
buildIr(const Program &program, const CompileOptions &options,
        CompileStats &stats)
{
    PhaseMeter lower;
    InstrGraph graph = lowerProgram(program);
    lower.stop(stats.lowerNs, stats.lowerMinorFaults);
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
        PhaseMeter fuse;
        stats.fusion = fuseInstructions(graph);
        fuse.stop(stats.fuseNs, stats.fuseMinorFaults);
    }
    stats.instrsAfterFusion = graph.numLive();

    ScheduleOptions sched;
    sched.maxThreadBlocks = options.maxThreadBlocks;
    sched.topology = options.topology;
    // The schedule's witness order must hold at the slot count the
    // verifier checks it against.
    sched.slots = options.verifySlots;
    PhaseMeter schedule;
    IrProgram ir = scheduleProgram(program, graph, sched);
    schedule.stop(stats.scheduleNs, stats.scheduleMinorFaults);
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
        // One IR walk serves both checks: verifyIr records the order
        // it took, and the race check reads it.
        VerifyOptions verify;
        verify.slots = options.verifySlots;
        WalkOrder order;
        PhaseMeter meter;
        verifyIr(out.ir, program.collective(), verify, &order);
        meter.stop(out.stats.verifyNs, out.stats.verifyMinorFaults);
        PhaseMeter race;
        verifyRaceFree(out.ir, order);
        race.stop(out.stats.raceNs, out.stats.raceMinorFaults);
    }
    return out;
}

} // namespace mscclang
