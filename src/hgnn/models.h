#ifndef FREEHGC_HGNN_MODELS_H_
#define FREEHGC_HGNN_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "hgnn/propagate.h"
#include "nn/nn.h"

namespace freehgc::hgnn {

/// The HGNN evaluator family. All models share pre-propagated meta-path
/// feature blocks (PropagatedFeatures) and differ in the semantic fusion
/// mode — the axis the paper's generalization experiments (Tables I and
/// IV) vary:
///   kHeteroSGC : mean of projected blocks, linear head (the relay model
///                HGCond is restricted to).
///   kSeHGNN    : concatenated projected blocks, MLP head.
///   kHAN       : learnable semantic attention (softmax over block
///                logits), MLP head.
///   kHGB       : sum fusion with raw-feature residual, MLP head.
///   kHGT       : type-wise grouping with learnable per-type attention,
///                MLP head.
enum class HgnnKind { kHeteroSGC, kSeHGNN, kHAN, kHGB, kHGT };

/// Parses "sehgnn", "han", ... (case-sensitive, lowercase).
const char* HgnnKindName(HgnnKind kind);

/// Hyper-parameters (paper Section V-B: lr 0.001, dropout 0.5, hidden 128
/// mid-scale / 512 large; reduced hidden default here for 1-core runs).
struct HgnnConfig {
  HgnnKind kind = HgnnKind::kSeHGNN;
  int64_t hidden = 64;
  float dropout = 0.5f;
  float lr = 1e-3f;
  int epochs = 120;
  /// Early-stopping patience on validation accuracy (0 disables).
  int patience = 30;
  uint64_t seed = 1;
};

/// One of the five semantic-fusion HGNNs, with hand-written backprop.
///
/// Construction fixes the block layout (count and widths); Forward/
/// Backward then accept any PropagatedFeatures with the same layout, so a
/// model trained on a condensed graph evaluates on the full graph.
class HgnnModel {
 public:
  /// `block_dims[p]` is the width of feature block p; `end_types[p]` its
  /// source node type (used by kHGT's type-wise grouping).
  HgnnModel(const HgnnConfig& config, const std::vector<int64_t>& block_dims,
            const std::vector<TypeId>& end_types, int32_t num_classes);

  /// Computes logits for the given feature blocks. A train forward
  /// caches what Backward needs; an inference forward (train = false)
  /// keeps no state. Each output row depends only on the same row of the
  /// blocks, and inference applies no dropout, so an inference forward
  /// over gathered rows equals those rows of the full one bit for bit.
  /// `ex` runs the dense products (null = default pool).
  Matrix Forward(const std::vector<Matrix>& blocks, bool train,
                 exec::ExecContext* ex = nullptr);

  /// Backpropagates dlogits through fusion and projections, accumulating
  /// parameter gradients. Must follow a train Forward on the same blocks.
  /// The projections' input gradients are never formed: nothing below
  /// them is trainable.
  void Backward(const Matrix& dlogits, exec::ExecContext* ex = nullptr);

  std::vector<nn::Parameter*> Params();
  void ZeroGrad();
  int64_t NumParams() const;
  const HgnnConfig& config() const { return config_; }

 private:
  HgnnConfig config_;
  int64_t num_blocks_;
  std::vector<std::unique_ptr<nn::Linear>> projections_;
  std::vector<nn::ReLU> proj_relus_;
  /// Semantic attention logits (kHAN: one per block; kHGT: one per type
  /// group).
  std::unique_ptr<nn::Parameter> attn_;
  /// kHGT: group index per block.
  std::vector<int64_t> block_group_;
  int64_t num_groups_ = 0;
  nn::Mlp head_;

  // Train-forward caches.
  std::vector<Matrix> cached_h_;   // projected+ReLU blocks
  std::vector<float> cached_w_;    // fusion weights (attention kinds)
};

}  // namespace freehgc::hgnn

#endif  // FREEHGC_HGNN_MODELS_H_
