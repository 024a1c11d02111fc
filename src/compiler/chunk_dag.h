/**
 * @file
 * The Chunk DAG (paper §4.1): the global view of chunk movement
 * obtained by tracing a program. Nodes are the traced copy/reduce
 * operations; edges are dependencies induced by chunk movement (true
 * dependencies) and by reusing buffer indices (false dependencies).
 * The instruction DAG is derived from the same access analysis at a
 * finer (per-instance, sub-chunk) granularity; this class exposes the
 * operation-level structure for diagnostics, statistics and tests.
 */

#ifndef MSCCLANG_COMPILER_CHUNK_DAG_H_
#define MSCCLANG_COMPILER_CHUNK_DAG_H_

#include <string>
#include <vector>

#include "compiler/access_history.h"
#include "dsl/program.h"

namespace mscclang {

/** One dependence edge between two traced operations. */
struct ChunkDep
{
    int from = -1;
    int to = -1;
    DepKind kind = DepKind::True;

    bool operator==(const ChunkDep &) const = default;
};

/** The traced operation DAG of a program. */
class ChunkDag
{
  public:
    explicit ChunkDag(const Program &program);

    int numOps() const { return numOps_; }
    const std::vector<ChunkDep> &edges() const { return edges_; }
    const std::vector<int> &preds(int op) const { return preds_[op]; }
    const std::vector<int> &succs(int op) const { return succs_[op]; }

    /** Longest-path depth of each op (roots have depth 0). */
    const std::vector<int> &depths() const { return depths_; }

    /** Length of the critical path in operations. */
    int criticalPathLength() const { return criticalPath_; }

    /** Graphviz rendering for documentation and debugging. */
    std::string toDot(const Program &program) const;

  private:
    int numOps_ = 0;
    std::vector<ChunkDep> edges_;
    std::vector<std::vector<int>> preds_;
    std::vector<std::vector<int>> succs_;
    std::vector<int> depths_;
    int criticalPath_ = 0;
};

} // namespace mscclang

#endif // MSCCLANG_COMPILER_CHUNK_DAG_H_
