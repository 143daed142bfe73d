#ifndef FREEHGC_BASELINES_GRADIENT_MATCHING_H_
#define FREEHGC_BASELINES_GRADIENT_MATCHING_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dense/matrix.h"
#include "hgnn/trainer.h"

namespace freehgc::baselines {

/// Configuration for the gradient-matching condensers (GCond, Jin et al.
/// ICLR 2022; HGCond, Gao et al. TKDE 2024). `hetero = true` enables the
/// HGCond mechanics on top of GCond's bi-level loop: cluster-based
/// hyper-node initialization (k-means per class) and OPS-style orthogonal
/// relay parameter sequences — the two components the paper identifies as
/// HGCond's extra cost (Section III-B).
struct GradientMatchingOptions {
  double ratio = 0.024;
  /// Outer iterations: synthetic-feature updates via gradient matching.
  int outer_iters = 30;
  /// Inner iterations: relay-model training steps per outer iteration.
  int inner_iters = 8;
  /// K distinct relay initializations (HGCond orthogonalizes them).
  int relay_inits = 4;
  float feat_lr = 0.5f;
  float relay_lr = 0.5f;
  bool hetero = false;
  int kmeans_iters = 8;
  /// Simulated accelerator memory gate. GCond materializes a dense
  /// synthetic adjacency whose footprint grows quadratically with the
  /// condensed size; the paper observes OOM on a 24GB GPU for AMiner at
  /// r > 0.05% (Table VI). When memory_budget_bytes > 0 the condenser
  /// projects the paper-scale footprint (node counts multiplied by
  /// `memory_scale`, the paper-to-repo dataset size ratio) and fails with
  /// ResourceExhausted when it exceeds the budget.
  size_t memory_budget_bytes = 0;
  double memory_scale = 1.0;
  uint64_t seed = 1;
};

/// Output of gradient-matching condensation: synthetic pre-propagated
/// feature blocks (same layout as the evaluation context's) plus labels.
/// Unlike the selection-based methods, no subgraph exists — the condensed
/// data lives purely in feature space, which is also why its storage
/// footprint is dense (Table VII).
struct SyntheticData {
  std::vector<Matrix> blocks;
  std::vector<int32_t> labels;
  double seconds = 0.0;
  /// Work done, as multiply-adds: every dense product of the bi-level
  /// loop at its nominal m*k*n, plus the k-means distance terms of
  /// HGCond's cluster initialization. Unlike `seconds` it is exact and
  /// repeatable, so it is what the Fig. 2(b) cost comparison asserts on.
  int64_t multiply_adds = 0;

  /// Dense storage footprint of the synthetic data.
  size_t MemoryBytes() const;
};

/// Runs bi-level gradient-matching condensation against ctx.full:
/// synthetic features are optimized so the relay model's loss gradient on
/// them matches the gradient on the real training data, looping over
/// relay initializations (outer) and relay training steps (inner) — the
/// nested structure whose cost Figs. 2(b) and 8 measure. The loop itself
/// is sequential; its dense products run row-parallel on `ex` (null =
/// default pool), bit-identically for any thread count.
Result<SyntheticData> GradientMatchingCondense(
    const hgnn::EvalContext& ctx, const GradientMatchingOptions& opts,
    exec::ExecContext* ex = nullptr);

}  // namespace freehgc::baselines

#endif  // FREEHGC_BASELINES_GRADIENT_MATCHING_H_
