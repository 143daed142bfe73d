#ifndef FREEHGC_CORE_TARGET_SELECTION_H_
#define FREEHGC_CORE_TARGET_SELECTION_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "metapath/metapath.h"

namespace freehgc::core {

/// Controls for the unified data-selection criterion of Section IV-B
/// (Eqs. 2-9). The two booleans are the Table VIII ablation switches.
struct TargetSelectionOptions {
  /// Include the receptive-field maximization term R(S) (Variant#1
  /// disables this).
  bool use_receptive_field = true;
  /// Include the meta-path similarity minimization term 1 - J(S)
  /// (Variant#2 disables this).
  bool use_jaccard = true;
};

/// Algorithm 1: condense target-type nodes.
///
/// For every meta-path, runs class-wise lazy-greedy maximization of the
/// unified submodular objective
///   F(S) = R(S)/|R_hat| + (1 - J(S))               (Eq. 8)
/// over the training pool, accumulating each node's marginal-gain score;
/// the final selection takes, class by class (preserving the original
/// class distribution), the top-scored nodes across all meta-paths
/// (Eq. 9).
///
/// `paths` must all start at the target type; each is composed through
/// `cache` under the row-nnz budget `max_row_nnz` (0 = exact), over the
/// train-pool rows only (RowSet::kTrain): every term reads only candidate
/// rows. Each end-type group's Jaccard diversity also comes from `cache`
/// (both are seed- and ratio-independent, so sweeps and warm requests
/// share them). Returns original target-node ids, |result| ==
/// min(budget, train pool size).
/// `scores_out`, when non null, receives the aggregated per-node score
/// (0 for never-selected nodes) — used by the Fig. 9 interpretability
/// bench.
/// Path composition and the Jaccard diversity term run on `ctx`, and
/// every cache lookup happens there, on the calling thread. The
/// (path, class) greedies are independent: they run as one task list on
/// `ctx` (RunTasks; each lazy-greedy loop is sequential, its order is
/// the algorithm), and their gains are summed in (path, class) order.
/// Bit-identical for every thread count.
std::vector<int32_t> CondenseTargetNodes(const HeteroGraph& g,
                                         const std::vector<MetaPath>& paths,
                                         int64_t max_row_nnz, int32_t budget,
                                         const TargetSelectionOptions& opts,
                                         AdjacencyCache& cache,
                                         std::vector<double>* scores_out =
                                             nullptr,
                                         exec::ExecContext* ctx = nullptr);

/// Lazy-greedy maximization of coverage + modular diversity for a single
/// composed meta-path adjacency: selects `budget` rows from `pool`
/// maximizing |union of selected rows' column sets| / adj.cols()
/// (+ diversity[v] per selected v). Exposed for tests (submodularity
/// properties) and the Fig. 9 bench. `gains_out`, when non-null, receives
/// each selected node's marginal gain in selection order.
/// Against the empty round-0 selection a candidate's coverage is its row
/// length, so the initial heap costs no column scan. The covered-column
/// flags come from `ws` (a fresh arena when null).
std::vector<int32_t> GreedyCoverageSelect(
    const CsrMatrix& adj, const std::vector<int32_t>& pool, int32_t budget,
    const std::vector<float>* diversity, bool use_coverage,
    std::vector<double>* gains_out = nullptr,
    exec::Workspace* ws = nullptr);

}  // namespace freehgc::core

#endif  // FREEHGC_CORE_TARGET_SELECTION_H_
