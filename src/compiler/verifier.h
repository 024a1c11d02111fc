/**
 * @file
 * Static verification of MSCCL-IR (paper §1: "MSCCLang can
 * automatically check whether an implementation properly implements a
 * collective before running on hardware", and §5.2's deadlock/data
 * race guarantees).
 *
 * Both checks run on one walk of the IR: thread blocks execute their
 * instruction lists in order, cross thread block dependencies are
 * honored, and connections are FIFO queues — the k-th receive on a
 * connection takes its k-th send. The walk steps the thread blocks
 * round-robin until none can move; its slot count per connection is
 * the only thing the two checks set differently.
 *
 * verifyIr() abstractly interprets the IR on that walk: buffer
 * locations hold symbolic chunk values (at sub-chunk fraction
 * precision so parallelized instances compose), and connections have
 * the runtime's bounded slot count. The interpretation either reaches
 * completion — at which point the output buffers are compared against
 * the collective postcondition — or wedges, which is reported as a
 * deadlock with the set of blocked thread blocks.
 *
 * On the compile path the two checks share one walk: verifyIr runs
 * it at the runtime's slot count and records the order it took the
 * steps in (WalkOrder), and verifyRaceFree(ir, order) reads that
 * order instead of walking again. A completed walk at any slot count
 * is a linear extension of happens-before, so the verdict is the
 * same; only which racy pair is named may differ.
 *
 * Neither check validates structure: the IR body (IrGpus) is made
 * only by IrBuilder::build(), which rejects out-of-range ranks and
 * peers, sparse thread-block ids, sends or receives on blocks without
 * that peer, dependencies on unknown steps, and buffer accesses
 * outside their rank's declared chunks.
 */

#ifndef MSCCLANG_COMPILER_VERIFIER_H_
#define MSCCLANG_COMPILER_VERIFIER_H_

#include <memory>
#include <string>
#include <vector>

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
 * The order one completed IR walk took the steps (node ids, indexes
 * into IrGpus::steps()) in: a linear extension of happens-before,
 * with each receive's FIFO-matched send. verifyIr fills it for
 * verifyRaceFree(ir, order).
 */
struct WalkOrder
{
    /** Node -> its position in the order. */
    std::vector<int> pos;
    /** Receive node -> its matched send node; -1 for other steps. */
    std::vector<int> send;
    /** Node -> flat id of its thread block (IrGpus::blocks()). */
    std::vector<int> block;
    /** Every node, ranks in ascending order, each rank's in order. */
    std::vector<int> byRank;
};

/**
 * Verifies @p ir against @p collective. With @p order set, also
 * records the order the walk took (complete when verifyIr returns),
 * for verifyRaceFree(ir, *order).
 * @throws VerificationError describing the first violated property:
 *         a semantic error met on the walk (an uninitialized or torn
 *         read, a FIFO shape mismatch), a deadlock, then the
 *         postcondition.
 */
void verifyIr(const IrProgram &ir, const Collective &collective,
              const VerifyOptions &options = {},
              WalkOrder *order = nullptr);

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
 * The IR walk runs with unbounded slots — happens-before does not
 * depend on FIFO depth, so the walk wedges only on a cycle — and the
 * order it takes the steps in is a linear extension of
 * happens-before; it also records each receive's matched send. No
 * graph is built. One serial last-writer walk then decides race
 * freedom exactly in near-linear time. It visits each rank's
 * instructions, ranks in ascending order, in that linear extension.
 * Per location it keeps the last whole-chunk writer plus the readers
 * and split writes since (AccessHistory, shared with lowering), and
 * checks each access only against those entries: by transitivity
 * through the shadowing writer, that orders every older conflicting
 * access too. Each "a before b" query is first answered locally —
 * same thread block, or b's thread block waited (at or before b's
 * step) on a's at or after a's step through one direct dependency —
 * and only on a miss by a search backward from b over its implicit
 * predecessors (the previous step, the dependencies, a receive's
 * matched send), pruned to the nodes after a in the linear extension.
 *
 * The structure it indexes by — ranks, thread-block ids, peers,
 * dependency targets, buffer ranges — is checked once, when
 * IrBuilder builds the body, so the walk reads it without checks.
 *
 * @throws VerificationError for, in this order: a connection whose
 *         send and receive counts differ; a cycle; then the first
 *         unordered pair found, on the lowest racy rank (lower
 *         instruction index first). The pair is the first the walk
 *         meets, which need not be the first in (buffer, chunk) order;
 *         only its rank is sure to match an exhaustive pairwise
 *         search.
 */
void verifyRaceFree(const IrProgram &ir);

/**
 * The same check over @p order, the order a verifyIr call on @p ir
 * recorded, instead of a walk of its own: the FIFO-balance check,
 * then the last-writer visit. Any completed walk is a linear
 * extension of happens-before, so the verdict — race free or not, and
 * the lowest racy rank — is verifyRaceFree(ir)'s; the pair named is
 * the first met in this order.
 * @throws VerificationError as verifyRaceFree(ir), without the cycle
 *         (a completed walk has none).
 */
void verifyRaceFree(const IrProgram &ir, const WalkOrder &order);

} // namespace mscclang

#endif // MSCCLANG_COMPILER_VERIFIER_H_
