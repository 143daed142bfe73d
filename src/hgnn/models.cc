#include "hgnn/models.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace freehgc::hgnn {

const char* HgnnKindName(HgnnKind kind) {
  switch (kind) {
    case HgnnKind::kHeteroSGC:
      return "HeteroSGC";
    case HgnnKind::kSeHGNN:
      return "SeHGNN";
    case HgnnKind::kHAN:
      return "HAN";
    case HgnnKind::kHGB:
      return "HGB";
    case HgnnKind::kHGT:
      return "HGT";
  }
  return "?";
}

namespace {

std::vector<int64_t> HeadDims(const HgnnConfig& c, int64_t num_blocks,
                              int32_t num_classes) {
  switch (c.kind) {
    case HgnnKind::kHeteroSGC:
      // Simplest relay: linear head on the mean-fused embedding.
      return {c.hidden, num_classes};
    case HgnnKind::kSeHGNN:
      return {c.hidden * num_blocks, c.hidden, num_classes};
    case HgnnKind::kHAN:
    case HgnnKind::kHGB:
    case HgnnKind::kHGT:
      return {c.hidden, c.hidden, num_classes};
  }
  return {c.hidden, num_classes};
}

}  // namespace

HgnnModel::HgnnModel(const HgnnConfig& config,
                     const std::vector<int64_t>& block_dims,
                     const std::vector<TypeId>& end_types,
                     int32_t num_classes)
    : config_(config),
      num_blocks_(static_cast<int64_t>(block_dims.size())),
      head_(HeadDims(config, static_cast<int64_t>(block_dims.size()),
                     num_classes),
            config.dropout, config.seed ^ 0xabcdefULL) {
  FREEHGC_CHECK(!block_dims.empty());
  FREEHGC_CHECK(block_dims.size() == end_types.size());
  Rng rng(config.seed);
  for (int64_t p = 0; p < num_blocks_; ++p) {
    projections_.push_back(std::make_unique<nn::Linear>(
        block_dims[static_cast<size_t>(p)], config.hidden, rng));
    proj_relus_.emplace_back();
  }
  if (config.kind == HgnnKind::kHAN) {
    attn_ = std::make_unique<nn::Parameter>(1, num_blocks_);
    block_group_.assign(static_cast<size_t>(num_blocks_), 0);
    num_groups_ = num_blocks_;
    for (int64_t p = 0; p < num_blocks_; ++p) {
      block_group_[static_cast<size_t>(p)] = p;
    }
  } else if (config.kind == HgnnKind::kHGT) {
    std::unordered_map<TypeId, int64_t> group_of;
    block_group_.resize(static_cast<size_t>(num_blocks_));
    for (int64_t p = 0; p < num_blocks_; ++p) {
      const TypeId t = end_types[static_cast<size_t>(p)];
      auto [it, inserted] =
          group_of.try_emplace(t, static_cast<int64_t>(group_of.size()));
      block_group_[static_cast<size_t>(p)] = it->second;
    }
    num_groups_ = static_cast<int64_t>(group_of.size());
    attn_ = std::make_unique<nn::Parameter>(1, num_groups_);
  }
}

Matrix HgnnModel::Forward(const std::vector<Matrix>& blocks, bool train,
                          exec::ExecContext* ex) {
  FREEHGC_CHECK(static_cast<int64_t>(blocks.size()) == num_blocks_);
  std::vector<Matrix> hs;
  hs.reserve(static_cast<size_t>(num_blocks_));
  for (int64_t p = 0; p < num_blocks_; ++p) {
    Matrix h = projections_[static_cast<size_t>(p)]->Forward(
        blocks[static_cast<size_t>(p)], train, ex);
    hs.push_back(
        proj_relus_[static_cast<size_t>(p)].Forward(std::move(h), train));
  }
  const int64_t n = hs[0].rows();
  const int64_t hidden = config_.hidden;

  Matrix fused;
  std::vector<float> weights;
  switch (config_.kind) {
    case HgnnKind::kHeteroSGC: {
      // Sum-scaled mean: identical direction to the mean, but unit-scale
      // activations so small training sets still produce usable
      // gradients.
      fused = Matrix(n, hidden);
      for (const auto& h : hs) dense::Axpy(1.0f, h, fused);
      break;
    }
    case HgnnKind::kSeHGNN: {
      fused = hs[0];
      for (int64_t p = 1; p < num_blocks_; ++p) {
        fused = fused.ConcatCols(hs[static_cast<size_t>(p)]);
      }
      break;
    }
    case HgnnKind::kHGB: {
      // Sum fusion; block 0 (raw features) acts as the residual branch.
      fused = Matrix(n, hidden);
      for (const auto& h : hs) dense::Axpy(1.0f, h, fused);
      break;
    }
    case HgnnKind::kHAN:
    case HgnnKind::kHGT: {
      // Softmax attention over blocks (kHAN) or type groups (kHGT).
      std::vector<float> logits(static_cast<size_t>(num_groups_));
      for (int64_t gidx = 0; gidx < num_groups_; ++gidx) {
        logits[static_cast<size_t>(gidx)] = attn_->value.At(0, gidx);
      }
      float mx = *std::max_element(logits.begin(), logits.end());
      float sum = 0.0f;
      weights.assign(static_cast<size_t>(num_groups_), 0.0f);
      for (int64_t gidx = 0; gidx < num_groups_; ++gidx) {
        weights[static_cast<size_t>(gidx)] =
            std::exp(logits[static_cast<size_t>(gidx)] - mx);
        sum += weights[static_cast<size_t>(gidx)];
      }
      for (auto& w : weights) w /= sum;
      // Group sizes for averaging within groups.
      std::vector<float> group_size(static_cast<size_t>(num_groups_), 0.0f);
      for (int64_t p = 0; p < num_blocks_; ++p) {
        group_size[static_cast<size_t>(
            block_group_[static_cast<size_t>(p)])] += 1.0f;
      }
      // The attention-weighted combination is scaled by the group count
      // so its magnitude matches sum fusion (better conditioned heads on
      // small condensed training sets); softmax weights still control the
      // relative semantic mix.
      fused = Matrix(n, hidden);
      const float scale = static_cast<float>(num_groups_);
      for (int64_t p = 0; p < num_blocks_; ++p) {
        const int64_t gidx = block_group_[static_cast<size_t>(p)];
        const float coeff = scale * weights[static_cast<size_t>(gidx)] /
                            group_size[static_cast<size_t>(gidx)];
        dense::Axpy(coeff, hs[static_cast<size_t>(p)], fused);
      }
      break;
    }
  }
  if (train) {
    cached_h_ = std::move(hs);
    cached_w_ = std::move(weights);
  }
  return head_.Forward(fused, train, ex);
}

void HgnnModel::Backward(const Matrix& dlogits, exec::ExecContext* ex) {
  Matrix dfused = head_.Backward(dlogits, ex);
  std::vector<Matrix> dh(static_cast<size_t>(num_blocks_));
  const int64_t hidden = config_.hidden;

  switch (config_.kind) {
    case HgnnKind::kHeteroSGC: {
      for (int64_t p = 0; p < num_blocks_; ++p) {
        dh[static_cast<size_t>(p)] = dfused;
      }
      break;
    }
    case HgnnKind::kSeHGNN: {
      for (int64_t p = 0; p < num_blocks_; ++p) {
        Matrix slice(dfused.rows(), hidden);
        for (int64_t r = 0; r < dfused.rows(); ++r) {
          const float* src = dfused.Row(r) + p * hidden;
          std::copy(src, src + hidden, slice.Row(r));
        }
        dh[static_cast<size_t>(p)] = std::move(slice);
      }
      break;
    }
    case HgnnKind::kHGB: {
      for (int64_t p = 0; p < num_blocks_; ++p) {
        dh[static_cast<size_t>(p)] = dfused;
      }
      break;
    }
    case HgnnKind::kHAN:
    case HgnnKind::kHGT: {
      std::vector<float> group_size(static_cast<size_t>(num_groups_), 0.0f);
      for (int64_t p = 0; p < num_blocks_; ++p) {
        group_size[static_cast<size_t>(
            block_group_[static_cast<size_t>(p)])] += 1.0f;
      }
      // s_g = <dfused, h_g_mean>; softmax backward for the logits.
      const float scale = static_cast<float>(num_groups_);
      std::vector<float> s(static_cast<size_t>(num_groups_), 0.0f);
      for (int64_t p = 0; p < num_blocks_; ++p) {
        const int64_t gidx = block_group_[static_cast<size_t>(p)];
        s[static_cast<size_t>(gidx)] +=
            scale * dense::Dot(dfused, cached_h_[static_cast<size_t>(p)]) /
            group_size[static_cast<size_t>(gidx)];
      }
      float weighted_sum = 0.0f;
      for (int64_t gidx = 0; gidx < num_groups_; ++gidx) {
        weighted_sum +=
            cached_w_[static_cast<size_t>(gidx)] * s[static_cast<size_t>(gidx)];
      }
      for (int64_t gidx = 0; gidx < num_groups_; ++gidx) {
        attn_->grad.At(0, gidx) +=
            cached_w_[static_cast<size_t>(gidx)] *
            (s[static_cast<size_t>(gidx)] - weighted_sum);
      }
      for (int64_t p = 0; p < num_blocks_; ++p) {
        const int64_t gidx = block_group_[static_cast<size_t>(p)];
        const float coeff = scale * cached_w_[static_cast<size_t>(gidx)] /
                            group_size[static_cast<size_t>(gidx)];
        dh[static_cast<size_t>(p)] = dense::Scale(dfused, coeff);
      }
      break;
    }
  }

  for (int64_t p = 0; p < num_blocks_; ++p) {
    const Matrix d = proj_relus_[static_cast<size_t>(p)].Backward(
        std::move(dh[static_cast<size_t>(p)]));
    projections_[static_cast<size_t>(p)]->AccumulateGrads(d, ex);
  }
}

std::vector<nn::Parameter*> HgnnModel::Params() {
  std::vector<nn::Parameter*> out;
  for (auto& proj : projections_) {
    for (nn::Parameter* p : proj->Params()) out.push_back(p);
  }
  if (attn_) out.push_back(attn_.get());
  for (nn::Parameter* p : head_.Params()) out.push_back(p);
  return out;
}

void HgnnModel::ZeroGrad() {
  for (nn::Parameter* p : Params()) p->ZeroGrad();
}

int64_t HgnnModel::NumParams() const {
  int64_t n = 0;
  for (nn::Parameter* p : const_cast<HgnnModel*>(this)->Params()) {
    n += p->value.size();
  }
  return n;
}

}  // namespace freehgc::hgnn
