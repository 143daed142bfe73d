#include "sparse/reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace freehgc::sparse::reference {

namespace {

CsrMatrix FromPartsOrDie(int32_t rows, int32_t cols,
                         std::vector<int64_t> indptr,
                         std::vector<int32_t> indices,
                         std::vector<float> values) {
  auto res = CsrMatrix::FromParts(rows, cols, std::move(indptr),
                                  std::move(indices), std::move(values));
  FREEHGC_CHECK(res.ok());
  return std::move(res).value();
}

}  // namespace

CsrMatrix TransposeRef(const CsrMatrix& a) {
  std::vector<std::vector<int32_t>> col_rows(static_cast<size_t>(a.cols()));
  std::vector<std::vector<float>> col_vals(static_cast<size_t>(a.cols()));
  for (int32_t r = 0; r < a.rows(); ++r) {
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    for (size_t k = 0; k < idx.size(); ++k) {
      col_rows[static_cast<size_t>(idx[k])].push_back(r);
      col_vals[static_cast<size_t>(idx[k])].push_back(val[k]);
    }
  }
  std::vector<int64_t> indptr(static_cast<size_t>(a.cols()) + 1, 0);
  std::vector<int32_t> indices;
  std::vector<float> values;
  for (int32_t c = 0; c < a.cols(); ++c) {
    indices.insert(indices.end(), col_rows[static_cast<size_t>(c)].begin(),
                   col_rows[static_cast<size_t>(c)].end());
    values.insert(values.end(), col_vals[static_cast<size_t>(c)].begin(),
                  col_vals[static_cast<size_t>(c)].end());
    indptr[static_cast<size_t>(c) + 1] = static_cast<int64_t>(indices.size());
  }
  return FromPartsOrDie(a.cols(), a.rows(), std::move(indptr),
                        std::move(indices), std::move(values));
}

CsrMatrix BipartiteBlockRef(const CsrMatrix& a) {
  const int32_t nt = a.rows();
  const int32_t ns = a.cols();
  std::vector<CooEntry> entries;
  entries.reserve(static_cast<size_t>(2 * a.nnz()));
  for (int32_t r = 0; r < nt; ++r) {
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    for (size_t k = 0; k < idx.size(); ++k) {
      entries.push_back({r, nt + idx[k], val[k]});
      entries.push_back({nt + idx[k], r, val[k]});
    }
  }
  auto res = CsrMatrix::FromCoo(nt + ns, nt + ns, std::move(entries));
  FREEHGC_CHECK(res.ok());
  return std::move(res).value();
}

CsrMatrix RowNormalizeRef(const CsrMatrix& a) {
  CsrMatrix out = a;
  auto& values = out.mutable_values();
  for (int32_t r = 0; r < a.rows(); ++r) {
    const float s = a.RowSum(r);
    if (s == 0.0f) continue;
    const float inv = 1.0f / s;
    for (int64_t k = a.indptr()[static_cast<size_t>(r)];
         k < a.indptr()[static_cast<size_t>(r) + 1]; ++k) {
      values[static_cast<size_t>(k)] *= inv;
    }
  }
  return out;
}

CsrMatrix SymNormalizeRef(const CsrMatrix& a) {
  FREEHGC_CHECK(a.rows() == a.cols());
  std::vector<float> inv_sqrt(static_cast<size_t>(a.rows()), 0.0f);
  for (int32_t r = 0; r < a.rows(); ++r) {
    const float d = a.RowSum(r);
    inv_sqrt[static_cast<size_t>(r)] = d > 0 ? 1.0f / std::sqrt(d) : 0.0f;
  }
  CsrMatrix out = a;
  auto& values = out.mutable_values();
  for (int32_t r = 0; r < a.rows(); ++r) {
    for (int64_t k = a.indptr()[static_cast<size_t>(r)];
         k < a.indptr()[static_cast<size_t>(r) + 1]; ++k) {
      const int32_t c = a.indices()[static_cast<size_t>(k)];
      values[static_cast<size_t>(k)] *= inv_sqrt[static_cast<size_t>(r)] *
                                        inv_sqrt[static_cast<size_t>(c)];
    }
  }
  return out;
}

CsrMatrix SpGemmRef(const CsrMatrix& a, const CsrMatrix& b,
                    int64_t max_row_nnz) {
  FREEHGC_CHECK(a.cols() == b.rows());
  const int32_t m = a.rows(), n = b.cols();
  std::vector<int64_t> indptr(static_cast<size_t>(m) + 1, 0);
  std::vector<int32_t> indices;
  std::vector<float> values;
  std::vector<float> accum(static_cast<size_t>(n), 0.0f);
  std::vector<uint8_t> mark(static_cast<size_t>(n), 0);
  std::vector<int32_t> cols;
  for (int32_t i = 0; i < m; ++i) {
    cols.clear();
    auto ai = a.RowIndices(i);
    auto av = a.RowValues(i);
    for (size_t k = 0; k < ai.size(); ++k) {
      const int32_t p = ai[k];
      const float apv = av[k];
      auto bi = b.RowIndices(p);
      auto bv = b.RowValues(p);
      for (size_t t = 0; t < bi.size(); ++t) {
        if (!mark[static_cast<size_t>(bi[t])]) {
          mark[static_cast<size_t>(bi[t])] = 1;
          cols.push_back(bi[t]);
        }
        accum[static_cast<size_t>(bi[t])] += apv * bv[t];
      }
    }
    // The optimized kernel merges the full structural pattern and
    // accumulates in the same k-then-t order, so values agree exactly.
    std::sort(cols.begin(), cols.end());
    std::vector<int32_t> kept;
    for (int32_t c : cols) {
      if (accum[static_cast<size_t>(c)] != 0.0f) kept.push_back(c);
    }
    if (max_row_nnz > 0 &&
        static_cast<int64_t>(kept.size()) > max_row_nnz) {
      // Pinned tie-break via a full sort (the optimized kernel uses a
      // partial select over the same total order).
      std::sort(kept.begin(), kept.end(), [&](int32_t x, int32_t y) {
        const float axv = std::fabs(accum[static_cast<size_t>(x)]);
        const float ayv = std::fabs(accum[static_cast<size_t>(y)]);
        if (axv != ayv) return axv > ayv;
        return x < y;
      });
      kept.resize(static_cast<size_t>(max_row_nnz));
      std::sort(kept.begin(), kept.end());
    }
    for (int32_t c : kept) {
      indices.push_back(c);
      values.push_back(accum[static_cast<size_t>(c)]);
    }
    for (int32_t c : cols) {
      accum[static_cast<size_t>(c)] = 0.0f;
      mark[static_cast<size_t>(c)] = 0;
    }
    indptr[static_cast<size_t>(i) + 1] = static_cast<int64_t>(indices.size());
  }
  return FromPartsOrDie(m, n, std::move(indptr), std::move(indices),
                        std::move(values));
}

Matrix SpMmDenseRef(const CsrMatrix& a, const Matrix& x) {
  FREEHGC_CHECK(a.cols() == x.rows());
  Matrix out(a.rows(), x.cols());
  for (int32_t r = 0; r < a.rows(); ++r) {
    float* out_row = out.Row(r);
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    for (size_t k = 0; k < idx.size(); ++k) {
      const float* x_row = x.Row(idx[k]);
      for (int64_t c = 0; c < x.cols(); ++c) {
        out_row[c] += val[k] * x_row[c];
      }
    }
  }
  return out;
}

std::vector<float> SpMvRef(const CsrMatrix& a, const std::vector<float>& x) {
  FREEHGC_CHECK(static_cast<int32_t>(x.size()) == a.cols());
  std::vector<float> y(static_cast<size_t>(a.rows()), 0.0f);
  for (int32_t r = 0; r < a.rows(); ++r) {
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    float acc = 0.0f;
    for (size_t k = 0; k < idx.size(); ++k) {
      acc += val[k] * x[static_cast<size_t>(idx[k])];
    }
    y[static_cast<size_t>(r)] = acc;
  }
  return y;
}

std::vector<float> PprScoresRef(const CsrMatrix& a,
                                const std::vector<float>& teleport,
                                float alpha, int max_iters, float tol) {
  FREEHGC_CHECK(a.rows() == a.cols());
  FREEHGC_CHECK(static_cast<int32_t>(teleport.size()) == a.rows());
  std::vector<float> pi = teleport;
  for (int it = 0; it < max_iters; ++it) {
    std::vector<float> propagated(pi.size(), 0.0f);
    for (int32_t r = 0; r < a.rows(); ++r) {
      auto idx = a.RowIndices(r);
      auto val = a.RowValues(r);
      for (size_t k = 0; k < idx.size(); ++k) {
        propagated[static_cast<size_t>(idx[k])] +=
            val[k] * pi[static_cast<size_t>(r)];
      }
    }
    double delta = 0.0;
    for (size_t i = 0; i < pi.size(); ++i) {
      const float next =
          alpha * teleport[i] + (1.0f - alpha) * propagated[i];
      delta += std::fabs(next - pi[i]);
      pi[i] = next;
    }
    if (delta < static_cast<double>(tol)) break;
  }
  return pi;
}

}  // namespace freehgc::sparse::reference
