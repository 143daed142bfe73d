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
/// moved entirely to pre-processing: feature block p is the exact
/// meta-path product
///   H_p = A_hat(r_0) (A_hat(r_1) (... X_{end(P_p)}))
/// computed right to left, one sparse x dense product per hop, so the
/// composed A_hat(P_p) is never formed; plus block 0 = the raw target
/// features. Every HGNN evaluator consumes this structure and differs
/// only in how it fuses the blocks.
struct PropagatedFeatures {
  /// Block 0 is the raw target features; block p >= 1 corresponds to
  /// paths[p-1]. Every block has target-node-count rows.
  std::vector<Matrix> blocks;
  /// Human-readable block names ("raw", "paper-author", ...).
  std::vector<std::string> names;
  /// End (source) type of each block; block 0's is the target type itself.
  std::vector<TypeId> end_types;
};

/// Former name of the meta-path configuration, still spelled by the
/// benchmark package.
using PropagateOptions = MetaPathOptions;

/// Mean-propagates features along `paths` (Eq. 1, applied hop by hop).
/// The block layout is a function of the path list and the *schema*, so
/// a condensed graph produced from `g` (identical types/relations) run
/// along the full graph's list yields an identically shaped layout —
/// which is what lets a model trained on the condensed graph run on the
/// full graph. The per-hop products and the per-block row normalization
/// run on `ctx`. `max_row_nnz` and `cache` are ignored: propagation
/// composes nothing, so there is no adjacency to budget or memoize.
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

/// The feature block of one meta-path (the exact right-to-left product
/// A_hat(r0) (A_hat(r1) (... X_end)), L2-row-normalized). The path must
/// start at the target type and its end type must have features (callers
/// skip featureless end types, exactly like PropagateAlongPaths).
Matrix PropagateOneBlock(const HeteroGraph& g, const MetaPath& p,
                         exec::ExecContext* ctx = nullptr);

/// Bumps the hgnn.blocks_propagated counter (streamed builds bypass
/// PropagateAlongPaths but should still show up in the metric).
void NoteBlocksPropagated(int64_t count);

}  // namespace freehgc::hgnn

#endif  // FREEHGC_HGNN_PROPAGATE_H_
