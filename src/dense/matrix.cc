#include "dense/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace freehgc {

Matrix::Matrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols),
      data_(std::vector<float>(static_cast<size_t>(rows * cols), 0.0f)) {
  FREEHGC_CHECK(rows >= 0 && cols >= 0);
}

Matrix Matrix::FromView(int64_t rows, int64_t cols,
                        std::span<const float> data,
                        std::shared_ptr<const void> keepalive) {
  FREEHGC_CHECK(rows >= 0 && cols >= 0 &&
                data.size() == static_cast<size_t>(rows * cols));
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = ArrayRef<float>::View(data, std::move(keepalive));
  return m;
}

void Matrix::Fill(float v) {
  auto& d = data_.Mutable();
  std::fill(d.begin(), d.end(), v);
}

void Matrix::FillUniform(Rng& rng, float lo, float hi) {
  for (auto& x : data_.Mutable()) x = rng.NextUniform(lo, hi);
}

void Matrix::FillGaussian(Rng& rng, float stddev) {
  for (auto& x : data_.Mutable()) x = rng.NextGaussian(0.0f, stddev);
}

void Matrix::FillGlorot(Rng& rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(rows_ + cols_ > 0 ? rows_ + cols_
                                                            : 1));
  FillUniform(rng, -limit, limit);
}

Matrix Matrix::GatherRows(const std::vector<int32_t>& index) const {
  Matrix out(static_cast<int64_t>(index.size()), cols_);
  for (size_t i = 0; i < index.size(); ++i) {
    const int32_t r = index[i];
    FREEHGC_CHECK(r >= 0 && r < rows_);
    std::copy(Row(r), Row(r) + cols_, out.Row(static_cast<int64_t>(i)));
  }
  return out;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  FREEHGC_CHECK(rows_ == other.rows_);
  Matrix out(rows_, cols_ + other.cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    std::copy(Row(r), Row(r) + cols_, out.Row(r));
    std::copy(other.Row(r), other.Row(r) + other.cols_, out.Row(r) + cols_);
  }
  return out;
}

namespace dense {

Matrix Add(const Matrix& a, const Matrix& b) {
  FREEHGC_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out = a;
  const float* bp = b.data();
  float* op = out.data();
  for (int64_t i = 0; i < out.size(); ++i) op[i] += bp[i];
  return out;
}

void Axpy(float alpha, const Matrix& b, Matrix& a) {
  FREEHGC_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  const float* bp = b.data();
  float* ap = a.data();
  for (int64_t i = 0; i < a.size(); ++i) ap[i] += alpha * bp[i];
}

Matrix Scale(const Matrix& a, float alpha) {
  Matrix out = a;
  float* p = out.data();
  for (int64_t i = 0; i < out.size(); ++i) p[i] *= alpha;
  return out;
}

void SoftmaxRows(Matrix& a) {
  for (int64_t r = 0; r < a.rows(); ++r) {
    float* row = a.Row(r);
    float mx = row[0];
    for (int64_t c = 1; c < a.cols(); ++c) mx = std::max(mx, row[c]);
    float sum = 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    const float inv = sum > 0 ? 1.0f / sum : 0.0f;
    for (int64_t c = 0; c < a.cols(); ++c) row[c] *= inv;
  }
}

std::vector<float> ColumnMean(const Matrix& a,
                              const std::vector<int32_t>& index) {
  std::vector<float> out(static_cast<size_t>(a.cols()), 0.0f);
  const int64_t n = index.empty() ? a.rows()
                                  : static_cast<int64_t>(index.size());
  if (n == 0) return out;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t r = index.empty() ? i : index[static_cast<size_t>(i)];
    const float* row = a.Row(r);
    for (int64_t c = 0; c < a.cols(); ++c)
      out[static_cast<size_t>(c)] += row[c];
  }
  const float inv = 1.0f / static_cast<float>(n);
  for (auto& v : out) v *= inv;
  return out;
}

float RowSquaredDistance(const Matrix& a, int64_t i, const Matrix& b,
                         int64_t j) {
  FREEHGC_CHECK(a.cols() == b.cols());
  const float* ra = a.Row(i);
  const float* rb = b.Row(j);
  float acc = 0.0f;
  for (int64_t c = 0; c < a.cols(); ++c) {
    const float d = ra[c] - rb[c];
    acc += d * d;
  }
  return acc;
}

float FrobeniusNorm(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += double(p[i]) * p[i];
  return static_cast<float>(std::sqrt(acc));
}

float Dot(const Matrix& a, const Matrix& b) {
  FREEHGC_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += double(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

}  // namespace dense
}  // namespace freehgc
