#include "metapath/metapath.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparse/ops.h"

namespace freehgc {

std::string MetaPath::Name(const HeteroGraph& g) const {
  std::string out = g.TypeName(types.front());
  for (size_t i = 1; i < types.size(); ++i) {
    out += "-";
    out += g.TypeName(types[i]);
  }
  return out;
}

namespace {

void Dfs(const HeteroGraph& g, const MetaPathOptions& opts, MetaPath& cur,
         std::vector<MetaPath>& out) {
  if (opts.max_paths > 0 &&
      static_cast<int>(out.size()) >= opts.max_paths) {
    return;
  }
  if (cur.hops() >= opts.max_hops) return;
  const TypeId tail = cur.types.back();
  for (RelationId r = 0; r < g.NumRelations(); ++r) {
    if (g.relation(r).src_type != tail) continue;
    if (opts.max_paths > 0 &&
        static_cast<int>(out.size()) >= opts.max_paths) {
      return;
    }
    cur.relations.push_back(r);
    cur.types.push_back(g.relation(r).dst_type);
    out.push_back(cur);
    Dfs(g, opts, cur, out);
    cur.relations.pop_back();
    cur.types.pop_back();
  }
}

}  // namespace

std::vector<MetaPath> EnumerateMetaPaths(const HeteroGraph& g, TypeId start,
                                         const MetaPathOptions& opts) {
  FREEHGC_TRACE_SPAN("metapath.enumerate");
  static obs::Counter& enumerated =
      obs::MetricsRegistry::Global().GetCounter("metapath.paths_enumerated");
  std::vector<MetaPath> out;
  MetaPath cur;
  cur.types.push_back(start);
  Dfs(g, opts, cur, out);
  enumerated.Add(static_cast<int64_t>(out.size()));
  return out;
}

std::vector<MetaPath> FilterByEndType(const std::vector<MetaPath>& paths,
                                      TypeId end) {
  std::vector<MetaPath> out;
  for (const auto& p : paths) {
    if (p.end_type() == end) out.push_back(p);
  }
  return out;
}

namespace {

/// `a` with every row outside `rows` emptied (same shape).
CsrMatrix KeepRows(const CsrMatrix& a, const std::vector<int32_t>& rows) {
  std::vector<uint8_t> keep(static_cast<size_t>(a.rows()), 0);
  for (int32_t r : rows) {
    FREEHGC_CHECK(r >= 0 && r < a.rows());
    keep[static_cast<size_t>(r)] = 1;
  }
  std::vector<int64_t> indptr(static_cast<size_t>(a.rows()) + 1, 0);
  for (int32_t r = 0; r < a.rows(); ++r) {
    indptr[static_cast<size_t>(r) + 1] =
        indptr[static_cast<size_t>(r)] +
        (keep[static_cast<size_t>(r)] ? a.RowNnz(r) : 0);
  }
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(static_cast<size_t>(indptr.back()));
  values.reserve(static_cast<size_t>(indptr.back()));
  for (int32_t r = 0; r < a.rows(); ++r) {
    if (!keep[static_cast<size_t>(r)]) continue;
    const auto idx = a.RowIndices(r);
    const auto val = a.RowValues(r);
    indices.insert(indices.end(), idx.begin(), idx.end());
    values.insert(values.end(), val.begin(), val.end());
  }
  auto res = CsrMatrix::FromParts(a.rows(), a.cols(), std::move(indptr),
                                  std::move(indices), std::move(values));
  FREEHGC_CHECK(res.ok());
  return std::move(res).value();
}

}  // namespace

CsrMatrix ComposeAdjacency(const HeteroGraph& g, const MetaPath& p,
                           int64_t max_row_nnz, exec::ExecContext* ctx,
                           const std::vector<int32_t>* rows) {
  FREEHGC_CHECK(!p.relations.empty());
  FREEHGC_TRACE_SPAN("metapath.compose");
  static obs::Counter& composed =
      obs::MetricsRegistry::Global().GetCounter("metapath.compose_calls");
  composed.Increment();
  exec::ExecContext& ex = exec::Resolve(ctx);
  const CsrMatrix& first = g.relation(p.relations[0]).adj;
  CsrMatrix acc = sparse::RowNormalize(
      rows != nullptr ? KeepRows(first, *rows) : first, &ex);
  for (size_t i = 1; i < p.relations.size(); ++i) {
    const CsrMatrix next =
        sparse::RowNormalize(g.relation(p.relations[i]).adj, &ex);
    acc = sparse::SpGemm(acc, next, max_row_nnz, &ex);
  }
  return acc;
}

namespace {

/// |A ∩ B| / |A ∪ B| from the set sizes; two empty sets score 1 (the
/// paper's convention for |union| = 0).
float JaccardFromCounts(size_t inter, size_t na, size_t nb) {
  if (na == 0 && nb == 0) return 1.0f;
  return static_cast<float>(inter) / static_cast<float>(na + nb - inter);
}

}  // namespace

float JaccardOfSortedSets(std::span<const int32_t> a,
                          std::span<const int32_t> b) {
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  return JaccardFromCounts(inter, a.size(), b.size());
}

std::vector<std::vector<float>> PerPathJaccard(
    const std::vector<const CsrMatrix*>& paths, exec::ExecContext* ctx) {
  FREEHGC_CHECK(!paths.empty());
  FREEHGC_TRACE_SPAN("metapath.jaccard");
  const int32_t rows = paths[0]->rows();
  int32_t cols = 0;
  for (const auto* p : paths) {
    FREEHGC_CHECK(p->rows() == rows);
    cols = std::max(cols, p->cols());
  }
  const size_t l = paths.size();
  std::vector<std::vector<float>> out(
      l, std::vector<float>(static_cast<size_t>(rows), 0.0f));
  if (l < 2) return out;
  const float norm = 1.0f / static_cast<float>(l - 1);
  // Column c's mask holds one bit per path (one word per 64 paths): bit
  // i is set while path i's row of the current node reaches c.
  const size_t words = (l + 63) / 64;
  // Each node's pairwise intersections are independent of every other
  // node's: parallel over node chunks, each writing column v only.
  exec::Resolve(ctx).ParallelFor(
      rows, 128, [&](int64_t begin, int64_t end, exec::Workspace& ws) {
        std::vector<uint64_t>& mask =
            ws.ZeroedBits(static_cast<size_t>(cols) * words);
        std::vector<int32_t>& inter = ws.I32(l);
        for (int64_t v = begin; v < end; ++v) {
          const int32_t row = static_cast<int32_t>(v);
          for (size_t i = 0; i < l; ++i) {
            uint64_t* word = mask.data() + i / 64;
            const uint64_t bit = uint64_t{1} << (i % 64);
            for (int32_t c : paths[i]->RowIndices(row)) {
              word[static_cast<size_t>(c) * words] |= bit;
            }
          }
          for (size_t i = 0; i + 1 < l; ++i) {
            // |R_i ∩ R_j| for every j > i: count the bits above i in the
            // masks of R_i's columns.
            std::fill(inter.begin() + static_cast<ptrdiff_t>(i) + 1,
                      inter.end(), 0);
            const size_t w0 = (i + 1) / 64;
            const uint64_t above_i = ~uint64_t{0} << ((i + 1) % 64);
            const auto idx = paths[i]->RowIndices(row);
            for (int32_t c : idx) {
              const uint64_t* col =
                  mask.data() + static_cast<size_t>(c) * words;
              for (size_t w = w0; w < words; ++w) {
                uint64_t bits = w == w0 ? col[w] & above_i : col[w];
                for (; bits != 0; bits &= bits - 1) {
                  ++inter[w * 64 +
                          static_cast<size_t>(std::countr_zero(bits))];
                }
              }
            }
            // Same pair order and per-path add order as the pairwise
            // merge (reference::PerPathJaccardRef).
            for (size_t j = i + 1; j < l; ++j) {
              const float jac = JaccardFromCounts(
                  static_cast<size_t>(inter[j]), idx.size(),
                  static_cast<size_t>(paths[j]->RowNnz(row)));
              out[i][static_cast<size_t>(v)] += jac;
              out[j][static_cast<size_t>(v)] += jac;
            }
          }
          // Scale, and clear exactly the mask words this node set.
          for (size_t i = 0; i < l; ++i) {
            out[i][static_cast<size_t>(v)] *= norm;
            uint64_t* word = mask.data() + i / 64;
            for (int32_t c : paths[i]->RowIndices(row)) {
              word[static_cast<size_t>(c) * words] = 0;
            }
          }
        }
      });
  return out;
}

CsrMatrix PathDiversity(const HeteroGraph& g,
                        const std::vector<const CsrMatrix*>& group,
                        exec::ExecContext* ctx) {
  const std::vector<std::vector<float>> jac = PerPathJaccard(group, ctx);
  std::vector<int32_t> pool = g.train_index();
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  const size_t l = group.size();
  std::vector<int64_t> indptr(l + 1);
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(l * pool.size());
  values.reserve(l * pool.size());
  for (size_t i = 0; i < l; ++i) {
    indptr[i] = static_cast<int64_t>(indices.size());
    for (int32_t v : pool) {
      indices.push_back(v);
      values.push_back(1.0f - jac[i][static_cast<size_t>(v)]);
    }
  }
  indptr[l] = static_cast<int64_t>(indices.size());
  auto m = CsrMatrix::FromParts(static_cast<int32_t>(l), group[0]->rows(),
                                std::move(indptr), std::move(indices),
                                std::move(values));
  FREEHGC_CHECK(m.ok()) << m.status().message();
  return std::move(m).value();
}

namespace reference {

std::vector<std::vector<float>> PerPathJaccardRef(
    const std::vector<const CsrMatrix*>& paths) {
  FREEHGC_CHECK(!paths.empty());
  const int32_t rows = paths[0]->rows();
  for (const auto* p : paths) FREEHGC_CHECK(p->rows() == rows);
  const size_t l = paths.size();
  std::vector<std::vector<float>> out(
      l, std::vector<float>(static_cast<size_t>(rows), 0.0f));
  if (l < 2) return out;
  const float norm = 1.0f / static_cast<float>(l - 1);
  for (int32_t v = 0; v < rows; ++v) {
    for (size_t i = 0; i < l; ++i) {
      for (size_t j = i + 1; j < l; ++j) {
        const float jac = JaccardOfSortedSets(paths[i]->RowIndices(v),
                                              paths[j]->RowIndices(v));
        out[i][static_cast<size_t>(v)] += jac;
        out[j][static_cast<size_t>(v)] += jac;
      }
    }
    for (size_t i = 0; i < l; ++i) out[i][static_cast<size_t>(v)] *= norm;
  }
  return out;
}

}  // namespace reference

}  // namespace freehgc
