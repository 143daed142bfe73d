#include "sparse/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace freehgc::sparse {

namespace {

// Minimum chunk widths (grains) per kernel. Chunk layout is a pure
// function of (n, grain) — see exec::ExecContext::ChunkSize. Every loop
// in this file is row-local or elementwise (no ParallelReduce), so a
// grain changes only scheduling, never an output value: these constants
// can be retuned without moving any result.
constexpr int64_t kRowMergeGrain = 64;   // SpGEMM row merges
constexpr int64_t kRowScaleGrain = 512;  // normalize / SpMv rows
constexpr int64_t kAxpyGrain = 2048;     // elementwise vector updates

// Column-block width of the SpMmDense inner loop: 64 floats (256 B, four
// cache lines) of the output row stay hot while a row's sparse entries
// stream by. Blocking only reorders the (entry, column) loop nest; each
// output element still accumulates its products in ascending entry
// order, so values are bit-identical to the unblocked loop.
constexpr int64_t kSpMmColBlock = 64;

// Transpose chunks are wider than the generic 256-chunk cap allows: each
// chunk owns a full column histogram (cols * 8 bytes), so the chunk
// count — not the thread count, which must not affect layout — bounds
// the transient scratch. At most 16 histograms, and fewer when the
// matrix is wide: the scratch budget is capped at 16 MiB so transposing
// a graph-scale matrix (hundreds of thousands of columns) does not
// transiently allocate more than the matrix itself. The chunk count is a
// pure function of the shape, never the thread count, so the output
// layout stays bit-identical to the sequential transpose.
int64_t TransposeGrain(int64_t rows, int64_t cols) {
  constexpr int64_t kScratchBudgetBytes = int64_t{16} << 20;
  const int64_t by_mem =
      std::max<int64_t>(1, kScratchBudgetBytes / (std::max<int64_t>(1, cols) *
                                                  int64_t{sizeof(int64_t)}));
  const int64_t chunks = std::min<int64_t>(16, by_mem);
  return std::max<int64_t>(2048, (rows + chunks - 1) / chunks);
}

// SpGEMM's truncation order as one integer: bits(|v|) in the high word,
// ~col in the low word. Non-negative IEEE floats order like their bit
// patterns, and ~col gives the smaller column the larger key, so keys
// compare exactly as (|value| desc, column asc) does. A NaN's magnitude
// bits exceed +inf's, so NaN ranks above +inf.
uint64_t SelectionKey(float v, int32_t col) {
  return uint64_t{std::bit_cast<uint32_t>(v) & 0x7fffffffu} << 32 |
         static_cast<uint32_t>(~col);
}

// Rows [begin, end) of `m` in ascending-length order, ties in row order:
// a stable counting sort on RowNnz. A row-local kernel that visits rows
// in this order runs its inner loop with equal trip counts back to back,
// which the branch predictor follows.
std::vector<int32_t> RowsByLength(const CsrMatrix& m, int32_t begin,
                                  int32_t end) {
  int64_t max_len = 0;
  for (int32_t r = begin; r < end; ++r) {
    max_len = std::max(max_len, m.RowNnz(r));
  }
  std::vector<int64_t> slot(static_cast<size_t>(max_len) + 2, 0);
  for (int32_t r = begin; r < end; ++r) {
    ++slot[static_cast<size_t>(m.RowNnz(r)) + 1];
  }
  // Now slot[len] is the first output position of the rows of length len.
  for (size_t len = 1; len < slot.size(); ++len) slot[len] += slot[len - 1];
  std::vector<int32_t> rows(static_cast<size_t>(end - begin));
  for (int32_t r = begin; r < end; ++r) {
    rows[static_cast<size_t>(slot[static_cast<size_t>(m.RowNnz(r))]++)] = r;
  }
  return rows;
}

// Debug builds assert the full CSR contract (sorted unique columns,
// monotone indptr, finite values) after every structure-producing
// kernel; release builds skip the O(nnz) scan.
const CsrMatrix& DebugValidated(const CsrMatrix& m) {
#ifndef NDEBUG
  const Status s = m.Validate();
  FREEHGC_CHECK(s.ok()) << s.ToString();
#endif
  return m;
}

}  // namespace

CsrMatrix Transpose(const CsrMatrix& a, exec::ExecContext* ctx) {
  FREEHGC_TRACE_SPAN("transpose");
  const int32_t rows = a.rows(), cols = a.cols();
  exec::ExecContext& ex = exec::Resolve(ctx);
  const int64_t grain = TransposeGrain(rows, cols);
  const int64_t chunk = exec::ExecContext::ChunkSize(rows, grain);
  const int64_t num_chunks = exec::ExecContext::NumChunks(rows, grain);

  // Pass 1 — per-chunk column histograms (disjoint slices of one flat
  // array, so no synchronization and no order dependence).
  std::vector<int64_t> counts(
      static_cast<size_t>(num_chunks) * static_cast<size_t>(cols), 0);
  ex.ParallelFor(rows, grain,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   int64_t* cnt = counts.data() +
                                  (begin / chunk) * static_cast<int64_t>(cols);
                   for (int64_t r = begin; r < end; ++r) {
                     for (int32_t c : a.RowIndices(static_cast<int32_t>(r))) {
                       ++cnt[c];
                     }
                   }
                 });

  // Column totals become the output indptr; the histograms then turn into
  // per-chunk write cursors (chunk c's slot for column j starts after
  // every lower chunk's entries of j). Entries of a column are written in
  // ascending source-row order — chunks cover ascending row ranges and
  // each chunk scans its rows in order — so output rows come out sorted
  // and the result is bit-identical to the sequential transpose.
  std::vector<int64_t> indptr(static_cast<size_t>(cols) + 1, 0);
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t* cnt = counts.data() + c * static_cast<int64_t>(cols);
    for (int32_t j = 0; j < cols; ++j) {
      indptr[static_cast<size_t>(j) + 1] += cnt[j];
    }
  }
  for (size_t i = 1; i < indptr.size(); ++i) indptr[i] += indptr[i - 1];
  {
    std::vector<int64_t> run(indptr.begin(), indptr.end() - 1);
    for (int64_t c = 0; c < num_chunks; ++c) {
      int64_t* cnt = counts.data() + c * static_cast<int64_t>(cols);
      for (int32_t j = 0; j < cols; ++j) {
        const int64_t tmp = cnt[j];
        cnt[j] = run[static_cast<size_t>(j)];
        run[static_cast<size_t>(j)] += tmp;
      }
    }
  }

  // Pass 2 — scatter into the reserved slots.
  std::vector<int32_t> indices(a.indices().size());
  std::vector<float> values(a.values().size());
  ex.ParallelFor(
      rows, grain, [&](int64_t begin, int64_t end, exec::Workspace&) {
        int64_t* cursor =
            counts.data() + (begin / chunk) * static_cast<int64_t>(cols);
        for (int64_t r = begin; r < end; ++r) {
          auto idx = a.RowIndices(static_cast<int32_t>(r));
          auto val = a.RowValues(static_cast<int32_t>(r));
          for (size_t k = 0; k < idx.size(); ++k) {
            const int64_t pos = cursor[idx[k]]++;
            indices[static_cast<size_t>(pos)] = static_cast<int32_t>(r);
            values[static_cast<size_t>(pos)] = val[k];
          }
        }
      });
  auto res = CsrMatrix::FromParts(cols, rows, std::move(indptr),
                                  std::move(indices), std::move(values));
  FREEHGC_CHECK(res.ok());
  CsrMatrix out = std::move(res).value();
  DebugValidated(out);
  return out;
}

CsrMatrix BipartiteBlock(const CsrMatrix& a, exec::ExecContext* ctx) {
  FREEHGC_TRACE_SPAN("bipartite_block");
  exec::ExecContext& ex = exec::Resolve(ctx);
  const int32_t nt = a.rows(), ns = a.cols();
  const int64_t nnz = a.nnz();
  // The bottom block rows are a's columns in ascending source-row order,
  // which is exactly what Transpose emits.
  const CsrMatrix at = Transpose(a, &ex);
  std::vector<int64_t> indptr(static_cast<size_t>(nt) + ns + 1);
  std::copy(a.indptr().begin(), a.indptr().end(), indptr.begin());
  for (int32_t j = 1; j <= ns; ++j) {
    indptr[static_cast<size_t>(nt) + j] = nnz + at.indptr()[j];
  }
  std::vector<int32_t> indices(static_cast<size_t>(2 * nnz));
  std::vector<float> values(static_cast<size_t>(2 * nnz));
  // 0.0f + v is FromCoo's duplicate-sum over one entry: it maps -0.0f to
  // +0.0f and leaves every other value unchanged.
  const int32_t* a_idx = a.indices().data();
  const float* a_val = a.values().data();
  const int32_t* at_idx = at.indices().data();
  const float* at_val = at.values().data();
  int32_t* top_idx = indices.data();
  float* top_val = values.data();
  int32_t* bottom_idx = top_idx + nnz;
  float* bottom_val = top_val + nnz;
  ex.ParallelFor(nnz, kAxpyGrain,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   for (int64_t k = begin; k < end; ++k) {
                     top_idx[k] = a_idx[k] + nt;
                     top_val[k] = 0.0f + a_val[k];
                     bottom_idx[k] = at_idx[k];
                     bottom_val[k] = 0.0f + at_val[k];
                   }
                 });
  auto res = CsrMatrix::FromParts(nt + ns, nt + ns, std::move(indptr),
                                  std::move(indices), std::move(values));
  FREEHGC_CHECK(res.ok());
  CsrMatrix out = std::move(res).value();
  DebugValidated(out);
  return out;
}

CsrMatrix RowNormalize(const CsrMatrix& a, exec::ExecContext* ctx) {
  FREEHGC_TRACE_SPAN("row_normalize");
  CsrMatrix out = a;
  auto& values = out.mutable_values();
  exec::Resolve(ctx).ParallelFor(
      a.rows(), kRowScaleGrain,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t r = begin; r < end; ++r) {
          const float s = a.RowSum(static_cast<int32_t>(r));
          if (s == 0.0f) continue;
          const float inv = 1.0f / s;
          for (int64_t k = a.indptr()[r]; k < a.indptr()[r + 1]; ++k) {
            values[static_cast<size_t>(k)] *= inv;
          }
        }
      });
  return out;
}

CsrMatrix SymNormalize(CsrMatrix a, exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.rows() == a.cols());
  FREEHGC_TRACE_SPAN("sym_normalize");
  exec::ExecContext& ex = exec::Resolve(ctx);
  std::vector<float> inv_sqrt(static_cast<size_t>(a.rows()), 0.0f);
  ex.ParallelFor(a.rows(), kRowScaleGrain,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   for (int64_t r = begin; r < end; ++r) {
                     const float d = a.RowSum(static_cast<int32_t>(r));
                     inv_sqrt[static_cast<size_t>(r)] =
                         d > 0 ? 1.0f / std::sqrt(d) : 0.0f;
                   }
                 });
  auto& values = a.mutable_values();
  ex.ParallelFor(
      a.rows(), kRowScaleGrain,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t r = begin; r < end; ++r) {
          for (int64_t k = a.indptr()[r]; k < a.indptr()[r + 1]; ++k) {
            const int32_t c = a.indices()[static_cast<size_t>(k)];
            values[static_cast<size_t>(k)] *=
                inv_sqrt[static_cast<size_t>(r)] *
                inv_sqrt[static_cast<size_t>(c)];
          }
        }
      });
  return a;
}

CsrMatrix SpGemm(const CsrMatrix& a, const CsrMatrix& b, int64_t max_row_nnz,
                 exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.cols() == b.rows());
  FREEHGC_TRACE_SPAN("spgemm");
  // Value metrics (flops = multiply-adds performed, rows truncated and
  // entries dropped by the max_row_nnz budget) accumulate per chunk and
  // land as one atomic add each, so totals are chunk-layout-deterministic
  // — identical at every thread count.
  static obs::Counter& calls =
      obs::MetricsRegistry::Global().GetCounter("spgemm.calls");
  static obs::Counter& flops_ctr =
      obs::MetricsRegistry::Global().GetCounter("spgemm.flops");
  static obs::Counter& out_nnz_ctr =
      obs::MetricsRegistry::Global().GetCounter("spgemm.output_nnz");
  static obs::Counter& rows_truncated =
      obs::MetricsRegistry::Global().GetCounter("spgemm.rows_truncated");
  static obs::Counter& entries_dropped =
      obs::MetricsRegistry::Global().GetCounter("spgemm.entries_dropped");
  static obs::Histogram& row_nnz_hist =
      obs::MetricsRegistry::Global().GetHistogram("spgemm.row_nnz");
  calls.Increment();
  exec::ExecContext& ex = exec::Resolve(ctx);
  const int32_t m = a.rows(), n = b.cols();
  const int64_t chunk = exec::ExecContext::ChunkSize(m, kRowMergeGrain);
  const int64_t num_chunks = exec::ExecContext::NumChunks(m, kRowMergeGrain);

  // One Gustavson pass per row: accumulate into the workspace's dense
  // accumulator, recording first touches in a bit-per-column marker;
  // find the budget's threshold key, then stage the surviving nonzeros
  // in column order in the chunk's buffers. Nothing proportional to the
  // unpruned product is ever allocated: memory is the pruned output plus
  // one accumulator of `n` floats and one marker of `n` bits per worker.
  struct Staged {
    std::vector<int32_t> indices;
    std::vector<float> values;
  };
  std::vector<Staged> staged(static_cast<size_t>(num_chunks));
  std::vector<int64_t> indptr(static_cast<size_t>(m) + 1, 0);
  const size_t budget = static_cast<size_t>(std::max<int64_t>(max_row_nnz, 0));
  ex.ParallelFor(m, kRowMergeGrain, [&](int64_t begin, int64_t end,
                                        exec::Workspace& ws) {
    std::vector<float>& accum = ws.ZeroedAccum(static_cast<size_t>(n));
    std::vector<uint64_t>& seen =
        ws.ZeroedBits((static_cast<size_t>(n) + 63) / 64);
    std::vector<int32_t>& cols = ws.Touched();
    std::vector<uint64_t>& keys = ws.Keys();
    Staged& out = staged[static_cast<size_t>(begin / chunk)];
    int64_t flops = 0, truncated = 0, dropped = 0;
    obs::LocalHistogram row_hist;
    for (int64_t i = begin; i < end; ++i) {
      cols.clear();
      int32_t lo = n, hi = -1;  // lowest and highest touched column
      auto ai = a.RowIndices(static_cast<int32_t>(i));
      auto av = a.RowValues(static_cast<int32_t>(i));
      for (size_t k = 0; k < ai.size(); ++k) {
        const float apv = av[k];
        auto bi = b.RowIndices(ai[k]);
        auto bv = b.RowValues(ai[k]);
        flops += static_cast<int64_t>(bi.size());
        for (size_t t = 0; t < bi.size(); ++t) {
          const int32_t j = bi[t];
          uint64_t& word = seen[static_cast<size_t>(j) >> 6];
          const uint64_t bit = uint64_t{1} << (j & 63);
          if (!(word & bit)) {
            word |= bit;
            cols.push_back(j);
            lo = std::min(lo, j);
            hi = std::max(hi, j);
          }
          accum[static_cast<size_t>(j)] += apv * bv[t];
        }
      }
      // Keep the `budget` nonzeros largest by (|value|, then smaller
      // column): the K-th largest packed key is the threshold, and keys
      // are unique, so exactly K keys reach it. 0 keeps every nonzero
      // (a nonzero's key is at least 1 << 32).
      uint64_t threshold = 0;
      if (budget > 0 && cols.size() > budget) {
        keys.clear();
        for (int32_t j : cols) {
          const float v = accum[static_cast<size_t>(j)];
          if (v != 0.0f) keys.push_back(SelectionKey(v, j));
        }
        if (keys.size() > budget) {
          std::nth_element(keys.begin(), keys.begin() + (budget - 1),
                           keys.end(), std::greater<>());
          threshold = keys[budget - 1];
          ++truncated;
          dropped += static_cast<int64_t>(keys.size() - budget);
        }
      }
      // Emit in column order, dropping exact zeros (cancellations) and
      // sub-threshold keys. Every touched slot leaves the row with its
      // marker clear and its accumulator at +0.0f, so no residue (a
      // -0.0f included) reaches the next row. A row whose touched span
      // is dense in marker words walks them; a sparse, wide row sorts
      // its touched list instead. Both give the same bytes.
      const size_t row_start = out.indices.size();
      auto emit = [&](int32_t j) {
        const float v = accum[static_cast<size_t>(j)];
        accum[static_cast<size_t>(j)] = 0.0f;
        if (v != 0.0f && SelectionKey(v, j) >= threshold) {
          out.indices.push_back(j);
          out.values.push_back(v);
        }
      };
      const size_t w_lo = static_cast<size_t>(lo) >> 6;
      const size_t w_hi = static_cast<size_t>(hi) >> 6;
      if (!cols.empty() && w_hi - w_lo < 2 * cols.size()) {
        for (size_t w = w_lo; w <= w_hi; ++w) {
          for (uint64_t word = std::exchange(seen[w], 0); word != 0;
               word &= word - 1) {
            emit(static_cast<int32_t>((w << 6) | std::countr_zero(word)));
          }
        }
      } else {
        std::sort(cols.begin(), cols.end());
        for (int32_t j : cols) {
          seen[static_cast<size_t>(j) >> 6] = 0;
          emit(j);
        }
      }
      const int64_t row_nnz =
          static_cast<int64_t>(out.indices.size() - row_start);
      row_hist.Observe(row_nnz);
      indptr[static_cast<size_t>(i) + 1] = row_nnz;
    }
    row_hist.FlushTo(row_nnz_hist);
    flops_ctr.Add(flops);
    if (truncated > 0) {
      rows_truncated.Add(truncated);
      entries_dropped.Add(dropped);
    }
  });

  for (size_t i = 1; i < indptr.size(); ++i) indptr[i] += indptr[i - 1];
  const int64_t out_nnz = indptr.back();
  out_nnz_ctr.Add(out_nnz);

  // Splice the chunks at their prefix-summed offsets, releasing each
  // chunk's staging as soon as it is copied.
  std::vector<int32_t> indices(static_cast<size_t>(out_nnz));
  std::vector<float> values(static_cast<size_t>(out_nnz));
  ex.ParallelFor(num_chunks, 1,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   for (int64_t c = begin; c < end; ++c) {
                     Staged& s = staged[static_cast<size_t>(c)];
                     const int64_t offset =
                         indptr[static_cast<size_t>(c * chunk)];
                     std::copy(s.indices.begin(), s.indices.end(),
                               indices.begin() + offset);
                     std::copy(s.values.begin(), s.values.end(),
                               values.begin() + offset);
                     s = Staged();
                   }
                 });
  auto res = CsrMatrix::FromParts(m, n, std::move(indptr), std::move(indices),
                                  std::move(values));
  FREEHGC_CHECK(res.ok());
  CsrMatrix out = std::move(res).value();
  DebugValidated(out);
  return out;
}

Matrix SpMmDense(const CsrMatrix& a, const Matrix& x,
                 exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.cols() == x.rows());
  FREEHGC_TRACE_SPAN("spmm_dense");
  Matrix out(a.rows(), x.cols());
  const int64_t d = x.cols();
  exec::Resolve(ctx).ParallelFor(
      a.rows(), kRowMergeGrain,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t r = begin; r < end; ++r) {
          float* out_row = out.Row(r);
          auto idx = a.RowIndices(static_cast<int32_t>(r));
          auto val = a.RowValues(static_cast<int32_t>(r));
          for (int64_t c0 = 0; c0 < d; c0 += kSpMmColBlock) {
            const int64_t c1 = std::min(d, c0 + kSpMmColBlock);
            for (size_t k = 0; k < idx.size(); ++k) {
              const float* x_row = x.Row(idx[k]);
              const float v = val[k];
              for (int64_t c = c0; c < c1; ++c) {
                out_row[c] += v * x_row[c];
              }
            }
          }
        }
      });
  return out;
}

std::vector<float> SpMv(const CsrMatrix& a, const std::vector<float>& x,
                        exec::ExecContext* ctx) {
  FREEHGC_CHECK(static_cast<int32_t>(x.size()) == a.cols());
  std::vector<float> y(static_cast<size_t>(a.rows()));
  exec::Resolve(ctx).ParallelFor(
      a.rows(), kRowScaleGrain,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t r = begin; r < end; ++r) {
          auto idx = a.RowIndices(static_cast<int32_t>(r));
          auto val = a.RowValues(static_cast<int32_t>(r));
          float acc = 0.0f;
          for (size_t k = 0; k < idx.size(); ++k) {
            acc += val[k] * x[static_cast<size_t>(idx[k])];
          }
          y[static_cast<size_t>(r)] = acc;
        }
      });
  return y;
}

CsrMatrix Submatrix(const CsrMatrix& a, const std::vector<int32_t>& row_keep,
                    const std::vector<int32_t>& col_keep) {
  std::vector<int32_t> col_map(static_cast<size_t>(a.cols()), -1);
  for (size_t i = 0; i < col_keep.size(); ++i) {
    FREEHGC_CHECK(col_keep[i] >= 0 && col_keep[i] < a.cols());
    col_map[static_cast<size_t>(col_keep[i])] = static_cast<int32_t>(i);
  }
  std::vector<CooEntry> entries;
  for (size_t ri = 0; ri < row_keep.size(); ++ri) {
    const int32_t r = row_keep[ri];
    FREEHGC_CHECK(r >= 0 && r < a.rows());
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    for (size_t k = 0; k < idx.size(); ++k) {
      const int32_t mapped = col_map[static_cast<size_t>(idx[k])];
      if (mapped >= 0) {
        entries.push_back({static_cast<int32_t>(ri), mapped, val[k]});
      }
    }
  }
  auto res = CsrMatrix::FromCoo(static_cast<int32_t>(row_keep.size()),
                                static_cast<int32_t>(col_keep.size()),
                                std::move(entries));
  FREEHGC_CHECK(res.ok());
  return std::move(res).value();
}

std::vector<float> PprScores(const CsrMatrix& block, int32_t split,
                             const std::vector<float>& teleport, float alpha,
                             int max_iters, exec::ExecContext* ctx) {
  const int32_t n = block.rows();
  FREEHGC_CHECK(block.cols() == n);
  FREEHGC_CHECK(split >= 0 && split <= n);
  FREEHGC_CHECK(static_cast<int32_t>(teleport.size()) == n);
  // Bipartite layout, from each row's first and last (sorted) column: no
  // computed row may read the half it is written into.
  for (int32_t r = 0; r < n; ++r) {
    const auto idx = block.RowIndices(r);
    if (idx.empty()) continue;
    FREEHGC_CHECK(r < split ? idx.front() >= split : idx.back() < split)
        << "PprScores: row " << r << " has an entry inside its half (split "
        << split << ")";
  }
  FREEHGC_TRACE_SPAN("ppr");
  static obs::Counter& iters_ctr =
      obs::MetricsRegistry::Global().GetCounter("ppr.iterations");
  exec::ExecContext& ex = exec::Resolve(ctx);
  const std::vector<int32_t> target_rows = RowsByLength(block, 0, split);
  const std::vector<int32_t> father_rows = RowsByLength(block, split, n);
  std::vector<float> pi = teleport;
  for (int it = 0; it < max_iters; ++it) {
    // The last step computes the father rows [split, n); going back, the
    // steps alternate with the target rows [0, split).
    const bool father = (max_iters - 1 - it) % 2 == 0;
    const std::vector<int32_t>& rows = father ? father_rows : target_rows;
    iters_ctr.Increment();
    ex.ParallelFor(
        static_cast<int64_t>(rows.size()), kRowScaleGrain,
        [&](int64_t begin, int64_t end, exec::Workspace&) {
          for (int64_t j = begin; j < end; ++j) {
            const int32_t i = rows[static_cast<size_t>(j)];
            auto idx = block.RowIndices(i);
            auto val = block.RowValues(i);
            float propagated = 0.0f;
            for (size_t k = 0; k < idx.size(); ++k) {
              propagated += val[k] * pi[static_cast<size_t>(idx[k])];
            }
            pi[static_cast<size_t>(i)] =
                alpha * teleport[static_cast<size_t>(i)] +
                (1.0f - alpha) * propagated;
          }
        });
  }
  return std::vector<float>(pi.begin() + split, pi.end());
}

}  // namespace freehgc::sparse
