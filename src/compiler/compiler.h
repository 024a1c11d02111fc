/**
 * @file
 * The MSCCLang compiler driver (paper Figure 2): traces are lowered
 * to the Instruction DAG, fused, scheduled onto thread blocks and
 * channels, emitted as MSCCL-IR and statically verified.
 */

#ifndef MSCCLANG_COMPILER_COMPILER_H_
#define MSCCLANG_COMPILER_COMPILER_H_

#include <cstdint>

#include "compiler/instr_graph.h"
#include "compiler/schedule.h"
#include "dsl/program.h"
#include "ir/ir.h"
#include "topology/topology.h"

namespace mscclang {

/** Compilation knobs. */
struct CompileOptions
{
    /** Run the rcs/rrcs/rrs fusion passes (paper §4.3). */
    bool fuse = true;
    /** Statically verify the emitted IR: postcondition, deadlock
     *  freedom and FIFO consistency (verifyIr), then data-race
     *  freedom (verifyRaceFree over the order verifyIr's walk
     *  recorded: one IR walk for both). Strongly recommended; benches
     *  may disable it on very large rank counts after a first
     *  check. */
    bool verify = true;
    /** Cooperative-launch limit on thread blocks per GPU. */
    int maxThreadBlocks = 1024;
    /** Number of FIFO slots assumed for deadlock checking: by
     *  default the runtime's FIFO depth. The paper's protocols
     *  provide 1..8 slots; verifying against the smallest slot count
     *  the runtime may use is the safe choice. */
    int verifySlots = kFifoSlotsPerConnection;
    /**
     * Optional topology: when set, every communication edge must
     * connect directly-linked ranks (a DGX-1 has no all-to-all
     * NVLink fabric, so algorithms must relay).
     */
    const Topology *topology = nullptr;
};

/** Metrics recorded while compiling; used by tests and benches. */
struct CompileStats
{
    int traceOps = 0;
    int instrsBeforeFusion = 0;
    int instrsAfterFusion = 0;
    FusionStats fusion;
    int channels = 0;
    int maxThreadBlocks = 0;
    int totalInstructions = 0;
    /** Wall time of each compile phase in ns (0 when the phase did
     *  not run: fuse = false, verify = false). verifyNs is verifyIr,
     *  including the one IR walk both checks share; raceNs is the
     *  rest of the race check (the FIFO-balance check and the
     *  last-writer visit over that walk's order). */
    std::int64_t lowerNs = 0;
    std::int64_t fuseNs = 0;
    std::int64_t scheduleNs = 0;
    std::int64_t verifyNs = 0;
    std::int64_t raceNs = 0;
    /** Minor page faults of each phase: getrusage(RUSAGE_THREAD)
     *  deltas of the compiling thread, so compiles on other threads
     *  do not mix in (0 when the phase did not run, or where the
     *  platform has no per-thread usage). Each counts the fresh memory
     *  the phase first touched. */
    std::int64_t lowerMinorFaults = 0;
    std::int64_t fuseMinorFaults = 0;
    std::int64_t scheduleMinorFaults = 0;
    std::int64_t verifyMinorFaults = 0;
    std::int64_t raceMinorFaults = 0;
};

/** Compilation result. */
struct Compiled
{
    IrProgram ir;
    CompileStats stats;
};

/**
 * Compiles a traced program into MSCCL-IR.
 * @throws CompileError / VerificationError on failure.
 */
Compiled compileProgram(const Program &program,
                        const CompileOptions &options = {});

} // namespace mscclang

#endif // MSCCLANG_COMPILER_COMPILER_H_
