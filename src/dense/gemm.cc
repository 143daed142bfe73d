// The dense products declared in dense/matrix.h: row-parallel over the
// output, register-tiled 4-lane vector blocks inside each chunk. See the
// rounding contract in matrix.h; dense/reference.cc holds the scalar
// loops it is checked against.

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "dense/matrix.h"
#include "exec/exec_context.h"

namespace freehgc::dense {
namespace {

// 4-lane float vector (GCC/Clang vector extension: SSE on x86-64, NEON on
// AArch64). Lane-wise * and + round exactly like the scalar operators,
// and freehgc_dense builds with -ffp-contract=off so no multiply and add
// are ever fused.
using F4 = float __attribute__((vector_size(16)));
using I4 = int32_t __attribute__((vector_size(16)));

inline F4 Load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

/// The left operand as a strided view: A(i, p) = data[i * row_stride +
/// p * col_stride]. MatMul reads `a` row-major (col_stride 1), MatMulTA
/// reads it transposed (row_stride 1).
struct Lhs {
  const float* data;
  int64_t row_stride;
  int64_t col_stride;
};

/// out(i0 + r, j0 + 4v + l) for r < R, v < V, l < 4, with `b` a row-major
/// (k, n) matrix. Each lane keeps its own accumulator and adds its terms
/// in ascending p, so the tile shape never changes a result.
template <bool kSkipZeros, int R, int V>
void Block(const Lhs& a, int64_t i0, const float* b, int64_t n, int64_t k,
           int64_t j0, float* out) {
  F4 acc[R][V] = {};
  const float* a_rows[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) a_rows[r] = a.data + (i0 + r) * a.row_stride;
  for (int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * n + j0;
    F4 bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) bv[v] = Load4(b_row + 4 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float av = a_rows[r][p * a.col_stride];
      const F4 as = {av, av, av, av};
      if constexpr (kSkipZeros) {
        // A skipped term adds +0.0f instead: exact, because an
        // accumulator that starts at +0.0f can never hold -0.0f. The
        // mask also keeps 0 * Inf/NaN out of the sum.
        const I4 keep = as != F4{};
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
          acc[r][v] += reinterpret_cast<F4>(
              reinterpret_cast<I4>(as * bv[v]) & keep);
        }
      } else {
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v) acc[r][v] += as * bv[v];
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      Store4(out + (i0 + r) * n + j0 + 4 * v, acc[r][v]);
    }
  }
}

/// Columns [j0, n) (fewer than 4) of rows [i0, i0 + rows), one scalar
/// accumulator per element.
template <bool kSkipZeros>
void ScalarColumns(const Lhs& a, int64_t i0, int rows, const float* b,
                   int64_t n, int64_t k, int64_t j0, float* out) {
  for (int r = 0; r < rows; ++r) {
    const float* a_row = a.data + (i0 + r) * a.row_stride;
    for (int64_t j = j0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = a_row[p * a.col_stride];
        if (kSkipZeros && av == 0.0f) continue;
        acc += av * b[p * n + j];
      }
      out[(i0 + r) * n + j] = acc;
    }
  }
}

/// Every column of rows [i0, i0 + R): 8-wide blocks, one 4-wide block,
/// then the scalar tail.
template <bool kSkipZeros, int R>
void RowTile(const Lhs& a, int64_t i0, const float* b, int64_t n, int64_t k,
             float* out) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) Block<kSkipZeros, R, 2>(a, i0, b, n, k, j, out);
  if (j + 4 <= n) {
    Block<kSkipZeros, R, 1>(a, i0, b, n, k, j, out);
    j += 4;
  }
  if (j < n) ScalarColumns<kSkipZeros>(a, i0, R, b, n, k, j, out);
}

template <bool kSkipZeros>
void Rows(const Lhs& a, int64_t begin, int64_t end, const float* b,
          int64_t n, int64_t k, float* out) {
  int64_t i = begin;
  for (; i + 4 <= end; i += 4) {
    RowTile<kSkipZeros, 4>(a, i, b, n, k, out);
  }
  switch (end - i) {
    case 3:
      RowTile<kSkipZeros, 3>(a, i, b, n, k, out);
      break;
    case 2:
      RowTile<kSkipZeros, 2>(a, i, b, n, k, out);
      break;
    case 1:
      RowTile<kSkipZeros, 1>(a, i, b, n, k, out);
      break;
    default:
      break;
  }
}

/// out(m, n) = A(m, k) * b, b row-major (k, n).
template <bool kSkipZeros>
Matrix Product(const Lhs& a, int64_t m, int64_t k, const Matrix& b,
               exec::ExecContext* ctx) {
  const int64_t n = b.cols();
  Matrix out(m, n);
  if (m == 0 || n == 0 || k == 0) return out;
  float* o = out.data();
  const float* bp = b.data();
  exec::Resolve(ctx).ParallelFor(
      m, ProductRowGrain(k, n),
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        Rows<kSkipZeros>(a, begin, end, bp, n, k, o);
      });
  return out;
}

}  // namespace

int64_t ProductRowGrain(int64_t k, int64_t n) {
  // Waking a pool worker costs 20-100 us on a loaded 4-core box; 2M
  // multiply-adds are about 0.4 ms of one core's work.
  constexpr int64_t kMinChunkMacs = int64_t{1} << 21;
  const int64_t per_row = std::max<int64_t>(1, k * n);
  const int64_t rows = (kMinChunkMacs + per_row - 1) / per_row;
  return (rows + 3) / 4 * 4;
}

Matrix MatMul(const Matrix& a, const Matrix& b, exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.cols() == b.rows());
  return Product</*kSkipZeros=*/true>({a.data(), a.cols(), 1}, a.rows(),
                                      a.cols(), b, ctx);
}

Matrix MatMulTA(const Matrix& a, const Matrix& b, exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.rows() == b.rows());
  return Product</*kSkipZeros=*/true>({a.data(), 1, a.cols()}, a.cols(),
                                      a.rows(), b, ctx);
}

Matrix MatMulTB(const Matrix& a, const Matrix& b, exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.cols() == b.cols());
  // Pack b^T once so every output block reads contiguous lanes; the
  // per-element sum is still a(i, :) . b(j, :) in ascending p.
  const int64_t n = b.rows(), k = b.cols();
  Matrix bt(k, n);
  float* btp = bt.data();
  for (int64_t j = 0; j < n; ++j) {
    const float* b_row = b.Row(j);
    for (int64_t p = 0; p < k; ++p) btp[p * n + j] = b_row[p];
  }
  return Product</*kSkipZeros=*/false>({a.data(), a.cols(), 1}, a.rows(),
                                       a.cols(), bt, ctx);
}

}  // namespace freehgc::dense
