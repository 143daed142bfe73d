#ifndef FREEHGC_NN_NN_H_
#define FREEHGC_NN_NN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dense/matrix.h"

namespace freehgc::nn {

/// A trainable tensor with gradient and Adam moment buffers.
struct Parameter {
  Matrix value;
  Matrix grad;
  Matrix m;  // Adam first moment
  Matrix v;  // Adam second moment

  explicit Parameter(int64_t rows, int64_t cols)
      : value(rows, cols), grad(rows, cols), m(rows, cols), v(rows, cols) {}

  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Adam optimizer over a fixed set of parameters (borrowed pointers; the
/// model outlives the optimizer step calls).
class Adam {
 public:
  explicit Adam(float lr = 1e-3f, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  /// Applies one update to every parameter from its .grad, then leaves the
  /// gradients untouched (call ZeroGrad before the next backward pass).
  void Step(const std::vector<Parameter*>& params);

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }
  int64_t step_count() const { return t_; }

 private:
  float lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
};

/// Fully connected layer y = x W + b with cached input for backprop.
///
/// Every layer's Forward takes `train`: a train forward caches what its
/// Backward needs, an inference forward (train = false) keeps no state,
/// so it may run between a train forward and its Backward. `ex` runs the
/// dense products (null = default pool).
class Linear {
 public:
  /// Glorot-initialized (in x out) weights, zero bias.
  Linear(int64_t in_dim, int64_t out_dim, Rng& rng);

  /// Forward pass; a train forward caches x for Backward.
  Matrix Forward(const Matrix& x, bool train = true,
                 exec::ExecContext* ex = nullptr);

  /// Accumulates dW, db from `dout`. Must follow a train Forward.
  void AccumulateGrads(const Matrix& dout, exec::ExecContext* ex = nullptr);

  /// AccumulateGrads, then returns dx = dout W^T.
  Matrix Backward(const Matrix& dout, exec::ExecContext* ex = nullptr);

  std::vector<Parameter*> Params() { return {&w_, &b_}; }
  const Matrix& weight() const { return w_.value; }

 private:
  Parameter w_;  // (in, out)
  Parameter b_;  // (1, out)
  Matrix cached_x_;
};

/// Elementwise ReLU with cached mask.
class ReLU {
 public:
  /// Forward pass; a train forward caches x for Backward.
  Matrix Forward(Matrix x, bool train = true);
  Matrix Backward(Matrix dout);

 private:
  Matrix cached_x_;
};

/// Inverted dropout. Identity when `train` is false or rate is 0; an
/// inference forward leaves the last train forward's mask in place.
class Dropout {
 public:
  explicit Dropout(float rate, uint64_t seed) : rate_(rate), rng_(seed) {}

  Matrix Forward(Matrix x, bool train);
  Matrix Backward(Matrix dout);

 private:
  float rate_;
  Rng rng_;
  Matrix mask_;
  bool active_ = false;
};

/// Multi-layer perceptron: Linear -> ReLU -> Dropout repeated, final
/// Linear produces logits. The workhorse classifier head shared by every
/// HGNN evaluator in src/hgnn/.
class Mlp {
 public:
  /// dims = {in, hidden..., out}. Requires >= 2 entries.
  Mlp(const std::vector<int64_t>& dims, float dropout, uint64_t seed);

  /// Forward pass to logits; an inference forward keeps no state.
  Matrix Forward(const Matrix& x, bool train,
                 exec::ExecContext* ex = nullptr);

  /// Backward from dlogits; populates parameter gradients, returns dx.
  Matrix Backward(const Matrix& dout, exec::ExecContext* ex = nullptr);

  /// All trainable parameters (for the optimizer).
  std::vector<Parameter*> Params();

  void ZeroGrad();

  /// Number of trainable scalars.
  int64_t NumParams() const;

 private:
  std::vector<std::unique_ptr<Linear>> linears_;
  std::vector<ReLU> relus_;
  std::vector<Dropout> dropouts_;
};

/// Mean softmax cross-entropy over the rows listed in `index` (all rows if
/// empty). Returns the loss; writes dlogits (zero on unlisted rows).
float SoftmaxCrossEntropy(const Matrix& logits,
                          const std::vector<int32_t>& labels,
                          const std::vector<int32_t>& index, Matrix* dlogits);

/// Classification accuracy over the rows in `index` (all rows if empty).
float Accuracy(const Matrix& logits, const std::vector<int32_t>& labels,
               const std::vector<int32_t>& index);

/// Macro-averaged F1 over the rows in `index` (all rows if empty).
float MacroF1(const Matrix& logits, const std::vector<int32_t>& labels,
              const std::vector<int32_t>& index, int32_t num_classes);

}  // namespace freehgc::nn

#endif  // FREEHGC_NN_NN_H_
