#include "compiler/compiler.h"

#include "common/error.h"
#include "common/strings.h"
#include "compiler/verifier.h"

namespace mscclang {

Compiled
compileProgram(const Program &program, const CompileOptions &options)
{
    Compiled out;
    out.stats.traceOps = static_cast<int>(program.ops().size());

    InstrGraph graph = lowerProgram(program);
    out.stats.instrsBeforeFusion = graph.numLive();

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

    if (options.fuse)
        out.stats.fusion = fuseInstructions(graph);
    out.stats.instrsAfterFusion = graph.numLive();

    ScheduleOptions sched;
    sched.maxThreadBlocks = options.maxThreadBlocks;
    sched.topology = options.topology;
    out.ir = scheduleProgram(program, graph, sched);

    out.stats.channels = out.ir.numChannels();
    out.stats.maxThreadBlocks = out.ir.maxThreadBlocks();
    out.stats.totalInstructions = out.ir.totalInstructions();

    if (options.verify) {
        VerifyOptions verify;
        verify.slots = options.verifySlots;
        verifyIr(out.ir, program.collective(), verify);
    }
    return out;
}

} // namespace mscclang
