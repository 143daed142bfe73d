#ifndef FREEHGC_HGNN_TRAINER_H_
#define FREEHGC_HGNN_TRAINER_H_

#include <vector>

#include "graph/hetero_graph.h"
#include "hgnn/models.h"
#include "hgnn/propagate.h"

namespace freehgc::hgnn {

/// Outcome of one train-and-evaluate run.
struct EvalMetrics {
  /// Accuracy on the evaluation graph's test split.
  float test_accuracy = 0.0f;
  /// Macro-averaged F1 on the same split.
  float macro_f1 = 0.0f;
  /// Wall-clock seconds spent in the training loop (Table VII's TH/TS).
  double train_seconds = 0.0;
  /// Epochs actually run (early stopping may cut the budget short).
  int epochs_run = 0;
};

/// Everything that is fixed per (full graph, meta-path configuration):
/// the enumerated meta-path list and the full graph's propagated feature
/// blocks. Built once, then reused across every condensation method and
/// every evaluator model — this mirrors the paper's protocol where the
/// test graph never changes.
struct EvalContext {
  const HeteroGraph* full = nullptr;  // borrowed; must outlive the context
  std::vector<MetaPath> paths;
  PropagatedFeatures full_features;
  MetaPathOptions options;
};

/// Enumerates meta-paths from the full graph's target type
/// (EnumerateMetaPaths under `opts`) and pre-propagates its features
/// along them. Propagation runs on `ctx` (null = default pool). `cache` is
/// ignored: propagation composes no adjacency (pipeline::BuildEvalContext
/// is the cache-aware build).
EvalContext BuildEvalContext(const HeteroGraph& full,
                             const MetaPathOptions& opts,
                             exec::ExecContext* ctx = nullptr,
                             AdjacencyCache* cache = nullptr);

/// The paper's evaluation protocol (Section V-B): train an HGNN on
/// `train_graph` (its train split; for a condensed graph that is every
/// kept target node), early-stop on the full graph's validation split, and
/// report accuracy on the full graph's test split.
///
/// `train_graph` must share the schema of ctx.full (same types and
/// relations) so the meta-path list applies to both. The train-graph
/// propagation and every dense product of the training loop run on `ex`
/// (null = default pool); results are bit-identical for any thread
/// count. The propagation is deliberately not cached — condensed graphs
/// are seed-dependent and used once.
EvalMetrics TrainAndEvaluate(const EvalContext& ctx,
                             const HeteroGraph& train_graph,
                             const HgnnConfig& config,
                             exec::ExecContext* ex = nullptr);

/// Convenience: whole-graph performance (train and test on ctx.full).
EvalMetrics WholeGraphBaseline(const EvalContext& ctx,
                               const HgnnConfig& config,
                               exec::ExecContext* ex = nullptr);

/// Trains directly on pre-propagated (possibly synthetic) feature blocks
/// — the entry point used by gradient-matching condensers (GCond/HGCond),
/// whose output is synthetic data rather than a subgraph. Every row of
/// `blocks` is a training example labeled by `labels`; evaluation follows
/// the same protocol as TrainAndEvaluate, with the dense products on `ex`
/// (null = default pool).
EvalMetrics TrainOnBlocks(const EvalContext& ctx,
                          const std::vector<Matrix>& blocks,
                          const std::vector<int32_t>& labels,
                          const HgnnConfig& config,
                          exec::ExecContext* ex = nullptr);

}  // namespace freehgc::hgnn

#endif  // FREEHGC_HGNN_TRAINER_H_
