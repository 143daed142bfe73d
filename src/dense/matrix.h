#ifndef FREEHGC_DENSE_MATRIX_H_
#define FREEHGC_DENSE_MATRIX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/storage.h"

namespace freehgc {

namespace exec {
class ExecContext;
}  // namespace exec

/// Dense row-major float matrix. The workhorse container for node features
/// and neural-network activations. Copyable and movable; copies of owned
/// matrices are deep, copies of mapped views share the view.
///
/// Storage is an ArrayRef<float>: owned heap memory for every computed
/// matrix, or a zero-copy view over a mapped v3 container section for
/// feature matrices of mapped graphs (see common/storage.h). Mutating
/// accessors detach a view into owned storage first (copy-on-write), so
/// all dense kernels work unchanged on either backing.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized.
  Matrix(int64_t rows, int64_t cols);

  /// Wraps external row-major data without copying; `keepalive` pins the
  /// memory. `data` must hold rows*cols floats.
  static Matrix FromView(int64_t rows, int64_t cols,
                         std::span<const float> data,
                         std::shared_ptr<const void> keepalive);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  float& At(int64_t r, int64_t c) { return data_.Mutable()[r * cols_ + c]; }
  float At(int64_t r, int64_t c) const { return data_[r * cols_ + c]; }

  /// Pointer to the start of row r.
  float* Row(int64_t r) { return data_.Mutable().data() + r * cols_; }
  const float* Row(int64_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.Mutable().data(); }
  const float* data() const { return data_.data(); }

  /// True when the matrix views external (mapped) memory.
  bool is_mapped() const { return data_.is_view(); }

  /// Heap bytes owned by this matrix (0 while mapped).
  size_t OwnedBytes() const { return data_.OwnedBytes(); }

  /// Sets every entry to v.
  void Fill(float v);

  /// Fills with U(lo, hi) draws.
  void FillUniform(Rng& rng, float lo, float hi);

  /// Fills with N(0, stddev) draws.
  void FillGaussian(Rng& rng, float stddev);

  /// Glorot/Xavier uniform initialization for a (fan_in=rows, fan_out=cols)
  /// weight matrix.
  void FillGlorot(Rng& rng);

  /// Returns rows selected by `index` (gather), preserving order.
  Matrix GatherRows(const std::vector<int32_t>& index) const;

  /// Returns the horizontal concatenation [*this | other]; row counts must
  /// match.
  Matrix ConcatCols(const Matrix& other) const;

  bool operator==(const Matrix& other) const {
    const std::span<const float> a = data_.span();
    const std::span<const float> b = other.data_.span();
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  int64_t rows_;
  int64_t cols_;
  ArrayRef<float> data_;
};

namespace dense {

// The three dense products (gemm.cc; no BLAS dependency). Each splits
// its output rows over ctx->ParallelFor (null = default pool) with the
// grain ProductRowGrain derives from the shape, and works each chunk in
// register-tiled 4-lane vector blocks. Their rounding contract makes
// every result bit-identical to the scalar loops in dense/reference.h at
// any thread count:
//  - each output element starts at +0.0f and adds its terms in
//    ascending p (the contracted index);
//  - each term is one rounded multiply and one rounded add: no FMA, no
//    horizontal sum;
//  - MatMul and MatMulTA skip every term whose `a` factor is 0, so a
//    NaN or Inf in `b` behind such a zero never reaches the output.
//    MatMulTB skips nothing.

/// Minimum output rows per ParallelFor chunk of a product whose
/// contracted dimension is k and output width n: enough multiply-adds
/// that a chunk outweighs waking a pool worker, so small products stay
/// one chunk and run inline. Whole 4-row tiles; a function of the shape
/// only, never of the thread count.
int64_t ProductRowGrain(int64_t k, int64_t n);

/// out = a * b. Shapes (m,k)x(k,n)->(m,n).
Matrix MatMul(const Matrix& a, const Matrix& b,
              exec::ExecContext* ctx = nullptr);

/// out = a^T * b. Shapes (k,m)x(k,n)->(m,n).
Matrix MatMulTA(const Matrix& a, const Matrix& b,
                exec::ExecContext* ctx = nullptr);

/// out = a * b^T. Shapes (m,k)x(n,k)->(m,n).
Matrix MatMulTB(const Matrix& a, const Matrix& b,
                exec::ExecContext* ctx = nullptr);

/// out = a + b (elementwise, same shape).
Matrix Add(const Matrix& a, const Matrix& b);

/// a += alpha * b (in place, same shape).
void Axpy(float alpha, const Matrix& b, Matrix& a);

/// out = alpha * a.
Matrix Scale(const Matrix& a, float alpha);

/// Row-wise in-place softmax.
void SoftmaxRows(Matrix& a);

/// Column mean of the selected rows (all rows when index is empty).
std::vector<float> ColumnMean(const Matrix& a,
                              const std::vector<int32_t>& index);

/// Squared L2 distance between row i of a and row j of b.
float RowSquaredDistance(const Matrix& a, int64_t i, const Matrix& b,
                         int64_t j);

/// Frobenius norm.
float FrobeniusNorm(const Matrix& a);

/// Sum of entrywise products <a, b> (same shape).
float Dot(const Matrix& a, const Matrix& b);

}  // namespace dense
}  // namespace freehgc

#endif  // FREEHGC_DENSE_MATRIX_H_
