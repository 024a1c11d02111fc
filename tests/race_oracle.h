/**
 * @file
 * The reference race check, kept as a test oracle for
 * verifyRaceFree(). It builds its own happens-before graph, lists
 * every conflicting access pair of each rank, and proves each pair
 * ordered with ancestor bitsets propagated over the whole graph —
 * quadratic in the accesses of one location and serial, which is why
 * it lives in tests/ and not in the library.
 */

#ifndef MSCCLANG_TESTS_RACE_ORACLE_H_
#define MSCCLANG_TESTS_RACE_ORACLE_H_

#include <optional>
#include <string>

#include "common/types.h"
#include "ir/ir.h"

namespace mscclang {

/** One race as a "data race: ..." verifier message names it. */
struct ReportedRace
{
    Rank rank = 0;
    int tbA = 0;
    int stepA = 0;
    int tbB = 0;
    int stepB = 0;
    BufferKind buffer = BufferKind::Input;
    int chunk = 0;
};

/** Parses a "data race: ..." message; nullopt for any other text. */
std::optional<ReportedRace> parseRaceMessage(const std::string &message);

/**
 * The reference verdict.
 * @throws VerificationError naming the first unordered conflicting
 *         pair of the lowest racy rank, in (buffer, chunk, first
 *         access, second access) order, in verifyRaceFree's words;
 *         FIFO imbalance and cycles also in its words.
 */
void verifyRaceFreeReference(const IrProgram &ir);

/**
 * Whether the reference confirms @p race: both instructions exist,
 * both access its location with overlapping split fractions, at
 * least one of them writes it, and neither happens before the other.
 */
bool confirmsRace(const IrProgram &ir, const ReportedRace &race);

} // namespace mscclang

#endif // MSCCLANG_TESTS_RACE_ORACLE_H_
