/**
 * @file
 * Static verification of MSCCL-IR (paper §1: "MSCCLang can
 * automatically check whether an implementation properly implements a
 * collective before running on hardware", and §5.2's deadlock/data
 * race guarantees).
 *
 * The verifier abstractly interprets the IR: buffer locations hold
 * symbolic chunk values (at sub-chunk fraction precision so
 * parallelized instances compose), connections are FIFO queues with a
 * bounded slot count, cross thread block dependencies are honored,
 * and thread blocks execute their instruction lists in order. The
 * interpretation either reaches completion — at which point the
 * output buffers are compared against the collective postcondition —
 * or wedges, which is reported as a deadlock with the set of blocked
 * thread blocks.
 */

#ifndef MSCCLANG_COMPILER_VERIFIER_H_
#define MSCCLANG_COMPILER_VERIFIER_H_

#include <memory>
#include <string>

#include "dsl/collective.h"
#include "ir/ir.h"

namespace mscclang {

/** Verification knobs. */
struct VerifyOptions
{
    /**
     * FIFO slots per connection assumed for deadlock detection. The
     * default 0 means "the runtime's actual FIFO depth"
     * (kFifoSlotsPerConnection, the same constant the interpreter's
     * ring inboxes are sized from) — overriding it voids the
     * verifier's deadlock-freedom guarantee for the runtime, so only
     * do so to model hypothetical hardware.
     */
    int slots = 0;
    /**
     * When false, the postcondition check is skipped and only
     * progress/consistency properties are verified (useful for
     * hand-built IR without a collective definition).
     */
    bool checkPostcondition = true;
};

/**
 * Verifies @p ir against @p collective.
 * @throws VerificationError describing the first violated property.
 */
void verifyIr(const IrProgram &ir, const Collective &collective,
              const VerifyOptions &options = {});

/**
 * Structural data-race check (paper §5.2: processing edges between
 * thread blocks must be preserved as explicit dependencies). The
 * happens-before relation is thread block program order, cross
 * thread block dependencies, and FIFO-matched communication edges
 * (the k-th send on a connection before its k-th receive); every
 * pair of conflicting accesses — same rank, buffer and chunk,
 * overlapping split fractions, at least one write — must be ordered
 * by it.
 *
 * One serial last-writer walk decides this exactly in near-linear
 * time. It visits each rank's instructions, ranks in ascending order,
 * in a linear extension of happens-before. Per location it keeps the
 * last whole-chunk writer plus the readers and split writes since
 * (AccessHistory, shared with lowering), and checks each access only
 * against those entries: by transitivity through the shadowing
 * writer, that orders every older conflicting access too. Each "a
 * before b" query is first answered locally — same thread block, or
 * b's thread block waited (at or before b's step) on a's at or after
 * a's step through one direct dependency — and only on a miss by a
 * search of the graph, pruned to the nodes between a and b in the
 * linear extension.
 *
 * @throws VerificationError naming the first unordered pair found, on
 *         the lowest racy rank (lower instruction index first); a
 *         connection whose send and receive counts differ; a cycle;
 *         or an access outside its buffer's declared chunk count.
 */
void verifyRaceFree(const IrProgram &ir);

} // namespace mscclang

#endif // MSCCLANG_COMPILER_VERIFIER_H_
