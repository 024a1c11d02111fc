/**
 * @file
 * Scheduling (paper §5): assigns every instruction to a thread block
 * and every communication edge to a channel, producing MSCCL-IR. The
 * assignment respects the structural constraints — at most one send
 * and one receive peer per thread block, exactly one sending and one
 * receiving thread block per connection — and follows a global
 * topological order so the sequential execution of thread blocks
 * cannot introduce deadlocks.
 */

#ifndef MSCCLANG_COMPILER_SCHEDULE_H_
#define MSCCLANG_COMPILER_SCHEDULE_H_

#include "compiler/instr_graph.h"
#include "ir/ir.h"
#include "topology/topology.h"

namespace mscclang {

/** Tunables of the scheduling pass. */
struct ScheduleOptions
{
    /**
     * Hard limit on thread blocks per GPU. The runtime launches all
     * thread blocks cooperatively, so a valid program cannot use more
     * blocks than the GPU has SMs (paper §6.2).
     */
    int maxThreadBlocks = 1024;
    /**
     * Optional topology. When present, unfused send and receive
     * connections over InfiniBand get separate thread blocks (the
     * GPU-side FIFO copy of a receive should not serialize behind an
     * unrelated send, as in NCCL's P2P transport) — unless that would
     * exceed maxThreadBlocks, in which case pairs are merged like
     * NCCL sharing channels under SM pressure.
     */
    const Topology *topology = nullptr;
    /**
     * FIFO slot count the emitted schedule must be executable with
     * (paper §6.1: 1 <= s <= 8; every protocol provides at least
     * this many slots). Defaults to the runtime's FIFO depth.
     */
    int slots = kFifoSlotsPerConnection;
};

/**
 * Schedules the (fused) instruction graph of @p program into
 * MSCCL-IR. @throws CompileError on constraint violations.
 */
IrProgram scheduleProgram(const Program &program, InstrGraph &graph,
                          const ScheduleOptions &options = {});

} // namespace mscclang

#endif // MSCCLANG_COMPILER_SCHEDULE_H_
