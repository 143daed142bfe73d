#include "dense/reference.h"

#include "common/logging.h"

namespace freehgc::dense::reference {

Matrix MatMulRef(const Matrix& a, const Matrix& b) {
  FREEHGC_CHECK(a.cols() == b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix out(m, n);
  for (int64_t i = 0; i < m; ++i) {
    float* out_row = out.Row(i);
    const float* a_row = a.Row(i);
    for (int64_t p = 0; p < k; ++p) {
      const float av = a_row[p];
      if (av == 0.0f) continue;
      const float* b_row = b.Row(p);
      for (int64_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
  return out;
}

Matrix MatMulTARef(const Matrix& a, const Matrix& b) {
  FREEHGC_CHECK(a.rows() == b.rows());
  const int64_t k = a.rows(), m = a.cols(), n = b.cols();
  Matrix out(m, n);
  for (int64_t p = 0; p < k; ++p) {
    const float* a_row = a.Row(p);
    const float* b_row = b.Row(p);
    for (int64_t i = 0; i < m; ++i) {
      const float av = a_row[i];
      if (av == 0.0f) continue;
      float* out_row = out.Row(i);
      for (int64_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
  return out;
}

Matrix MatMulTBRef(const Matrix& a, const Matrix& b) {
  FREEHGC_CHECK(a.cols() == b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix out(m, n);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a.Row(i);
    float* out_row = out.Row(i);
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b.Row(j);
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      out_row[j] = acc;
    }
  }
  return out;
}

}  // namespace freehgc::dense::reference
