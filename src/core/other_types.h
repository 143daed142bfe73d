#ifndef FREEHGC_CORE_OTHER_TYPES_H_
#define FREEHGC_CORE_OTHER_TYPES_H_

#include <cstdint>
#include <vector>

#include "dense/matrix.h"
#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "metapath/metapath.h"

namespace freehgc::core {

/// The node-importance function used by neighbor influence maximization.
/// The paper's default is Personalized PageRank (Eq. 11) and notes that it
/// "can be replaced by other node importance evaluation algorithms like
/// degree, betweenness and closeness centrality, hubs and authorities" —
/// all of which are available here (see bench_nim_scorers).
enum class NimScorer {
  kPprPowerIteration,  // Eq. 11 via power iteration (default)
  kPprPush,            // forward-push approximation (O(E/eps))
  kDegree,
  kCloseness,
  kBetweenness,
  kHubs,
  kAuthorities,
};

const char* NimScorerName(NimScorer scorer);

/// Options for the Neighbor Influence Maximization father-type condenser
/// (Eqs. 10-13).
struct NimOptions {
  NimScorer scorer = NimScorer::kPprPowerIteration;
  /// PPR restart probability (alpha in Eq. 11).
  float alpha = 0.15f;
  /// Power iterations of the PPR approximation; all of them always run.
  int max_iters = 30;
  /// Residual threshold for the push-based approximation.
  float push_epsilon = 1e-4f;
};

/// Neighbor Influence Maximization (Eqs. 10-13): scores every node of the
/// father type `father` by its aggregate Personalized-PageRank influence
/// with respect to the selected target nodes, summed across all meta-paths
/// from the target type to `father` (each composed under the row-nnz budget
/// `max_row_nnz`, 0 = exact), and keeps the top `budget`.
///
/// Per path, the bipartite composed adjacency is embedded into a square
/// symmetric block matrix, sym-normalized (A_hat^sym of Eq. 10), and a PPR
/// vector with teleport uniform over `selected_targets` is computed; the
/// father-block entries of the vector are the row sums of Eq. 13.
/// The PPR scorer reads each path's normalized block from
/// `cache.NimBlock`, so a warm call does only the teleport-dependent
/// work; the push and centrality scorers embed `cache.Composed`'s full
/// product. All blocks are pinned first, in path order (a miss builds
/// on `ctx` with the kernels' parallelism); then, with two or more
/// paths, the paths' PPRs run concurrently on `ctx`, one path per task,
/// and their scores are summed in path order. Bit-identical for every
/// thread count.
std::vector<int32_t> CondenseFatherType(
    const HeteroGraph& g, TypeId father,
    const std::vector<MetaPath>& paths_to_father, int64_t max_row_nnz,
    const std::vector<int32_t>& selected_targets, int32_t budget,
    const NimOptions& opts, AdjacencyCache& cache,
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
