#ifndef FREEHGC_HGNN_PROPAGATE_H_
#define FREEHGC_HGNN_PROPAGATE_H_

#include <string>
#include <vector>

#include "dense/matrix.h"
#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "metapath/metapath.h"

namespace freehgc::hgnn {

/// Per-meta-path mean-aggregated features of the target-type nodes.
///
/// Following SeHGNN (and the paper's Section IV-C finding that neighbor
/// attention can be replaced by mean aggregation), neighbor aggregation is
/// moved entirely to pre-processing: feature block p is
///   H_p = A_hat(P_p) * X_{end(P_p)}
/// plus block 0 = the raw target features. Every HGNN evaluator consumes
/// this structure and differs only in how it fuses the blocks.
struct PropagatedFeatures {
  /// Block 0 is the raw target features; block p >= 1 corresponds to
  /// paths[p-1]. Every block has target-node-count rows.
  std::vector<Matrix> blocks;
  /// Human-readable block names ("raw", "paper-author", ...).
  std::vector<std::string> names;
  /// End (source) type of each block; block 0's is the target type itself.
  std::vector<TypeId> end_types;
};

/// Options controlling pre-propagation.
struct PropagateOptions {
  int max_hops = 2;
  /// Cap on enumerated meta-paths (0 = unlimited).
  int max_paths = 24;
  /// Row-nnz budget for composed adjacencies (0 = exact).
  int64_t max_row_nnz = 512;
};

/// The meta-paths a propagation under `opts` runs along: every path of at
/// most opts.max_hops hops from the target type, capped at opts.max_paths
/// (EnumerateMetaPaths' order). Every EvalContext build enumerates here.
std::vector<MetaPath> EnumeratePropagationPaths(const HeteroGraph& g,
                                                const PropagateOptions& opts);

/// Enumerates meta-paths from the graph's target type and mean-propagates
/// features along each (Eq. 1 composition). The returned block layout is a
/// function of the *schema*, so a condensed graph produced from `g`
/// (identical types/relations) yields an identically shaped layout —
/// which is what lets a model trained on the condensed graph run on the
/// full graph.
PropagatedFeatures PropagateFeatures(const HeteroGraph& g,
                                     const PropagateOptions& opts,
                                     exec::ExecContext* ctx = nullptr);

/// Same propagation with a fixed externally supplied path list (used to
/// guarantee identical block order between the condensed and full graphs).
/// Composition, the sparse-dense product, and the per-block row
/// normalization all run on `ctx`. `cache`, when non-null, memoizes the
/// composed adjacencies (they are what a whole-graph propagation shares
/// with CondenseTargetNodes/CondenseFatherType over the same graph).
PropagatedFeatures PropagateAlongPaths(const HeteroGraph& g,
                                       const std::vector<MetaPath>& paths,
                                       int64_t max_row_nnz,
                                       exec::ExecContext* ctx = nullptr,
                                       AdjacencyCache* cache = nullptr);

// Per-block pieces of PropagateAlongPaths, exposed so a budgeted caller
// (the tiered ArtifactCache) can stream blocks to disk one at a time
// instead of materializing the whole PropagatedFeatures on the heap.
// PropagateAlongPaths is implemented in terms of these, so the streamed
// and in-heap paths are bit-identical by construction.

/// Block 0: the raw target features, L2-row-normalized.
Matrix RawFeatureBlock(const HeteroGraph& g, exec::ExecContext* ctx = nullptr);

/// The feature block of one meta-path (A_hat(p) * X_end, L2-row-
/// normalized). The path must start at the target type and its end type
/// must have features (callers skip featureless end types, exactly like
/// PropagateAlongPaths).
Matrix PropagateOneBlock(const HeteroGraph& g, const MetaPath& p,
                         int64_t max_row_nnz,
                         exec::ExecContext* ctx = nullptr,
                         AdjacencyCache* cache = nullptr);

/// Bumps the hgnn.blocks_propagated counter (streamed builds bypass
/// PropagateAlongPaths but should still show up in the metric).
void NoteBlocksPropagated(int64_t count);

}  // namespace freehgc::hgnn

#endif  // FREEHGC_HGNN_PROPAGATE_H_
