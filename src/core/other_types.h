#ifndef FREEHGC_CORE_OTHER_TYPES_H_
#define FREEHGC_CORE_OTHER_TYPES_H_

#include <cstdint>
#include <vector>

#include "dense/matrix.h"
#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "metapath/metapath.h"

namespace freehgc::core {

/// PPR restart probability of neighbor influence maximization (alpha in
/// Eq. 11).
inline constexpr float kNimAlpha = 0.15f;
/// Power iterations of NIM's PPR approximation; all of them always run.
inline constexpr int kNimPprIters = 30;

/// One type for neighbor influence maximization to condense, and how
/// many of its nodes to keep.
struct NimType {
  TypeId type = -1;
  int32_t budget = 0;
};

/// Neighbor Influence Maximization (Eqs. 10-13), for every type in
/// `types` at once: scores each node of a type by its aggregate
/// Personalized-PageRank influence with respect to the selected target
/// nodes, summed across all meta-paths of `paths` from the target type
/// to that type (each composed under the row-nnz budget `max_row_nnz`,
/// 0 = exact), and keeps the type's top `budget`. Returns one sorted
/// keep-list per entry of `types`, in order.
///
/// Per path, the bipartite composed adjacency is embedded into a square
/// symmetric block matrix, sym-normalized (A_hat^sym of Eq. 10), and a PPR
/// vector with teleport uniform over `selected_targets` is computed; the
/// father-block entries of the vector are the row sums of Eq. 13.
/// Each path's normalized block is read from `cache.NimBlock`, so a warm
/// call does only the teleport-dependent work. Every block is pinned
/// first, on the calling thread, in (type, path) order (a miss builds on
/// `ctx` with the kernels' parallelism). Then the (type, path) PPRs run
/// as one task list on `ctx` (RunTasks; a lone or dominant PPR keeps its
/// row parallelism), and each type's scores are summed in path order.
/// Bit-identical for every thread count. A type no path reaches ranks
/// its nodes by degree instead.
std::vector<std::vector<int32_t>> CondenseFatherTypes(
    const HeteroGraph& g, const std::vector<NimType>& types,
    const std::vector<MetaPath>& paths, int64_t max_row_nnz,
    const std::vector<int32_t>& selected_targets, AdjacencyCache& cache,
    exec::ExecContext* ctx = nullptr);

/// Result of Information-Loss-Minimizing leaf synthesis (Eqs. 14-16).
struct LeafSynthesis {
  /// Hyper-node features: mean of member features (sigma of Eq. 14).
  Matrix features;
  /// Original leaf ids aggregated into each hyper-node.
  std::vector<std::vector<int32_t>> members;
};

/// Information Loss Minimization (Eqs. 14-16): for every kept father node,
/// aggregates its 1-hop leaf-type neighbours into one hyper-node whose
/// feature is their mean; hyper-nodes beyond the budget are merged
/// smallest-first ("for synthetic nodes with lower degrees, we prioritize
/// further condensation"). The member lists implicitly encode Eq. 15's
/// reverse edges: any relation touching the leaf type is rebuilt through
/// the membership map, so a hyper-node stays connected to *every* father
/// adjacent to any of its members (preserving father-father 2-hop paths).
///
/// `kept_fathers` pairs each father type with its kept node list.
/// Hyper-node feature means (one disjoint output row each) run on `ctx`.
LeafSynthesis SynthesizeLeafType(
    const HeteroGraph& g, TypeId leaf,
    const std::vector<std::pair<TypeId, const std::vector<int32_t>*>>&
        kept_fathers,
    int32_t budget, exec::ExecContext* ctx = nullptr);

}  // namespace freehgc::core

#endif  // FREEHGC_CORE_OTHER_TYPES_H_
