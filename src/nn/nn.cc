#include "nn/nn.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace freehgc::nn {

void Adam::Step(const std::vector<Parameter*>& params) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (Parameter* p : params) {
    float* val = p->value.data();
    const float* g = p->grad.data();
    float* m = p->m.data();
    float* v = p->v.data();
    const int64_t n = p->value.size();
    for (int64_t i = 0; i < n; ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      val[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng& rng)
    : w_(in_dim, out_dim), b_(1, out_dim) {
  w_.value.FillGlorot(rng);
}

Matrix Linear::Forward(const Matrix& x, bool train, exec::ExecContext* ex) {
  if (train) cached_x_ = x;
  Matrix out = dense::MatMul(x, w_.value, ex);
  for (int64_t r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    const float* bias = b_.value.Row(0);
    for (int64_t c = 0; c < out.cols(); ++c) row[c] += bias[c];
  }
  return out;
}

void Linear::AccumulateGrads(const Matrix& dout, exec::ExecContext* ex) {
  // dW += x^T dout ; db += column sums of dout
  dense::Axpy(1.0f, dense::MatMulTA(cached_x_, dout, ex), w_.grad);
  for (int64_t r = 0; r < dout.rows(); ++r) {
    const float* row = dout.Row(r);
    float* db = b_.grad.Row(0);
    for (int64_t c = 0; c < dout.cols(); ++c) db[c] += row[c];
  }
}

Matrix Linear::Backward(const Matrix& dout, exec::ExecContext* ex) {
  AccumulateGrads(dout, ex);
  return dense::MatMulTB(dout, w_.value, ex);  // dx = dout W^T
}

Matrix ReLU::Forward(Matrix x, bool train) {
  if (train) cached_x_ = x;
  float* p = x.data();
  for (int64_t i = 0; i < x.size(); ++i) p[i] = std::max(0.0f, p[i]);
  return x;
}

Matrix ReLU::Backward(Matrix dout) {
  const float* x = cached_x_.data();
  float* d = dout.data();
  for (int64_t i = 0; i < dout.size(); ++i) {
    if (x[i] <= 0.0f) d[i] = 0.0f;
  }
  return dout;
}

Matrix Dropout::Forward(Matrix x, bool train) {
  if (!train) return x;
  active_ = rate_ > 0.0f;
  if (!active_) return x;
  mask_ = Matrix(x.rows(), x.cols());
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  float* mp = mask_.data();
  for (int64_t i = 0; i < mask_.size(); ++i) {
    mp[i] = rng_.NextDouble() < keep ? scale : 0.0f;
  }
  float* op = x.data();
  for (int64_t i = 0; i < x.size(); ++i) op[i] *= mp[i];
  return x;
}

Matrix Dropout::Backward(Matrix dout) {
  if (!active_) return dout;
  const float* mp = mask_.data();
  float* d = dout.data();
  for (int64_t i = 0; i < dout.size(); ++i) d[i] *= mp[i];
  return dout;
}

Mlp::Mlp(const std::vector<int64_t>& dims, float dropout, uint64_t seed) {
  FREEHGC_CHECK(dims.size() >= 2);
  Rng rng(seed);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    linears_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    if (i + 2 < dims.size()) {
      relus_.emplace_back();
      dropouts_.emplace_back(dropout, seed ^ (0x9e3779b9ULL * (i + 1)));
    }
  }
}

Matrix Mlp::Forward(const Matrix& x, bool train, exec::ExecContext* ex) {
  Matrix h = linears_[0]->Forward(x, train, ex);
  for (size_t i = 1; i < linears_.size(); ++i) {
    h = relus_[i - 1].Forward(std::move(h), train);
    h = dropouts_[i - 1].Forward(std::move(h), train);
    h = linears_[i]->Forward(h, train, ex);
  }
  return h;
}

Matrix Mlp::Backward(const Matrix& dout, exec::ExecContext* ex) {
  Matrix d = linears_.back()->Backward(dout, ex);
  for (size_t i = linears_.size() - 1; i-- > 0;) {
    d = dropouts_[i].Backward(std::move(d));
    d = relus_[i].Backward(std::move(d));
    d = linears_[i]->Backward(d, ex);
  }
  return d;
}

std::vector<Parameter*> Mlp::Params() {
  std::vector<Parameter*> out;
  for (auto& l : linears_) {
    for (Parameter* p : l->Params()) out.push_back(p);
  }
  return out;
}

void Mlp::ZeroGrad() {
  for (Parameter* p : Params()) p->ZeroGrad();
}

int64_t Mlp::NumParams() const {
  int64_t n = 0;
  for (const auto& l : const_cast<Mlp*>(this)->linears_) {
    for (Parameter* p : l->Params()) n += p->value.size();
  }
  return n;
}

float SoftmaxCrossEntropy(const Matrix& logits,
                          const std::vector<int32_t>& labels,
                          const std::vector<int32_t>& index,
                          Matrix* dlogits) {
  FREEHGC_CHECK(static_cast<int64_t>(labels.size()) == logits.rows());
  const int64_t n =
      index.empty() ? logits.rows() : static_cast<int64_t>(index.size());
  if (dlogits != nullptr) *dlogits = Matrix(logits.rows(), logits.cols());
  if (n == 0) return 0.0f;
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (int64_t k = 0; k < n; ++k) {
    const int64_t r = index.empty() ? k : index[static_cast<size_t>(k)];
    const float* row = logits.Row(r);
    const int32_t y = labels[static_cast<size_t>(r)];
    float mx = row[0];
    for (int64_t c = 1; c < logits.cols(); ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (int64_t c = 0; c < logits.cols(); ++c) {
      sum += std::exp(static_cast<double>(row[c] - mx));
    }
    const double log_z = std::log(sum) + mx;
    loss += log_z - row[y];
    if (dlogits != nullptr) {
      float* drow = dlogits->Row(r);
      for (int64_t c = 0; c < logits.cols(); ++c) {
        const float p =
            static_cast<float>(std::exp(static_cast<double>(row[c]) - log_z));
        drow[c] = (p - (c == y ? 1.0f : 0.0f)) * inv_n;
      }
    }
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

float Accuracy(const Matrix& logits, const std::vector<int32_t>& labels,
               const std::vector<int32_t>& index) {
  const int64_t n =
      index.empty() ? logits.rows() : static_cast<int64_t>(index.size());
  if (n == 0) return 0.0f;
  int64_t correct = 0;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t r = index.empty() ? k : index[static_cast<size_t>(k)];
    const float* row = logits.Row(r);
    int64_t best = 0;
    for (int64_t c = 1; c < logits.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (best == labels[static_cast<size_t>(r)]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(n);
}

float MacroF1(const Matrix& logits, const std::vector<int32_t>& labels,
              const std::vector<int32_t>& index, int32_t num_classes) {
  const int64_t n =
      index.empty() ? logits.rows() : static_cast<int64_t>(index.size());
  if (n == 0 || num_classes <= 0) return 0.0f;
  std::vector<int64_t> tp(static_cast<size_t>(num_classes), 0);
  std::vector<int64_t> fp(static_cast<size_t>(num_classes), 0);
  std::vector<int64_t> fn(static_cast<size_t>(num_classes), 0);
  for (int64_t k = 0; k < n; ++k) {
    const int64_t r = index.empty() ? k : index[static_cast<size_t>(k)];
    const float* row = logits.Row(r);
    int32_t pred = 0;
    for (int64_t c = 1; c < logits.cols(); ++c) {
      if (row[c] > row[pred]) pred = static_cast<int32_t>(c);
    }
    const int32_t y = labels[static_cast<size_t>(r)];
    if (pred == y) {
      ++tp[static_cast<size_t>(y)];
    } else {
      ++fp[static_cast<size_t>(pred)];
      ++fn[static_cast<size_t>(y)];
    }
  }
  double f1_sum = 0.0;
  for (int32_t c = 0; c < num_classes; ++c) {
    const double denom =
        2.0 * tp[static_cast<size_t>(c)] + fp[static_cast<size_t>(c)] +
        fn[static_cast<size_t>(c)];
    f1_sum += denom > 0 ? 2.0 * tp[static_cast<size_t>(c)] / denom : 0.0;
  }
  return static_cast<float>(f1_sum / num_classes);
}

}  // namespace freehgc::nn
