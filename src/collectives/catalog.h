/**
 * @file
 * The algorithm catalogue: every named collective algorithm of the
 * library, in one table. An entry says which collective it
 * implements, which schedule knobs it honors, what machine shape it
 * needs, how many DSL statements its factory takes (the paper's §7
 * "< 30 lines" claim) and how to build it from a topology.
 *
 * The compile CLI's --list/--algo, the schedule search's families
 * and the program-size table all read this table; the factories of
 * catalogued algorithms validate their AlgoConfig against their
 * entry's knobs. Nothing else lists algorithms.
 */

#ifndef MSCCLANG_COLLECTIVES_CATALOG_H_
#define MSCCLANG_COLLECTIVES_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "collectives/collectives.h"

namespace mscclang {

/** One named algorithm. */
struct AlgoEntry
{
    /** CLI name and program-name prefix ("ring_allreduce"). */
    const char *name;
    /** Family label in search reports ("Ring"); empty when the
     *  schedule search does not enumerate the entry. */
    const char *searchLabel;
    /** The collective implemented ("allreduce", "allgather", ...). */
    const char *collective;
    /** The schedule knobs the factory honors. */
    AlgoKnobs knobs;
    /** DSL statement count of the factory: loops and chunk
     *  operations only, audited by hand. */
    int loc;
    /** Machine-shape check: can the algorithm run on @p topology at
     *  all? (Whether a knob combination compiles is decided by
     *  compiling it.) */
    bool (*fits)(const Topology &topology);
    /** Traces the program on @p topology. @p channels, @p root and
     *  @p chunks are read only by the entries that take them.
     *  @throws mscclang::Error when the factory rejects the shape. */
    std::unique_ptr<Program> (*build)(const Topology &topology,
                                      const AlgoConfig &config,
                                      int channels, Rank root,
                                      int chunks);

    /** Whether the schedule search enumerates this entry. */
    bool searched() const { return searchLabel[0] != '\0'; }
};

/** Every catalogued algorithm. Searched entries come first, in the
 *  search's enumeration order. */
const std::vector<AlgoEntry> &algoCatalog();

/** The entry called @p name. @throws mscclang::Error if none is. */
const AlgoEntry &algoEntry(const std::string &name);

} // namespace mscclang

#endif // MSCCLANG_COLLECTIVES_CATALOG_H_
