#include "metapath/metapath.h"

#include <algorithm>

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

CsrMatrix ComposeAdjacency(const HeteroGraph& g, const MetaPath& p,
                           int64_t max_row_nnz, exec::ExecContext* ctx) {
  FREEHGC_CHECK(!p.relations.empty());
  FREEHGC_TRACE_SPAN("metapath.compose");
  static obs::Counter& composed =
      obs::MetricsRegistry::Global().GetCounter("metapath.compose_calls");
  composed.Increment();
  exec::ExecContext& ex = exec::Resolve(ctx);
  CsrMatrix acc = sparse::RowNormalize(g.relation(p.relations[0]).adj, &ex);
  for (size_t i = 1; i < p.relations.size(); ++i) {
    const CsrMatrix next =
        sparse::RowNormalize(g.relation(p.relations[i]).adj, &ex);
    acc = sparse::SpGemm(acc, next, max_row_nnz, &ex);
  }
  return acc;
}

std::shared_ptr<const CsrMatrix> ComposedAdjacency(AdjacencyCache* cache,
                                                   const HeteroGraph& g,
                                                   const MetaPath& p,
                                                   int64_t max_row_nnz,
                                                   exec::ExecContext* ctx) {
  if (cache != nullptr) return cache->Composed(g, p, max_row_nnz, ctx);
  return std::make_shared<const CsrMatrix>(
      ComposeAdjacency(g, p, max_row_nnz, ctx));
}

float JaccardOfSortedSets(std::span<const int32_t> a,
                          std::span<const int32_t> b) {
  if (a.empty() && b.empty()) return 1.0f;  // paper convention: |union|=0
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
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<float>(inter) / static_cast<float>(uni);
}

std::vector<std::vector<float>> PerPathJaccard(
    const std::vector<const CsrMatrix*>& paths, exec::ExecContext* ctx) {
  FREEHGC_CHECK(!paths.empty());
  FREEHGC_TRACE_SPAN("metapath.jaccard");
  const int32_t rows = paths[0]->rows();
  for (const auto* p : paths) FREEHGC_CHECK(p->rows() == rows);
  const size_t l = paths.size();
  std::vector<std::vector<float>> out(
      l, std::vector<float>(static_cast<size_t>(rows), 0.0f));
  if (l < 2) return out;
  const float norm = 1.0f / static_cast<float>(l - 1);
  // Each node's pairwise set intersections are independent of every
  // other node's: parallel over node chunks, each writing column v only.
  exec::Resolve(ctx).ParallelFor(
      rows, 128, [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t v = begin; v < end; ++v) {
          for (size_t i = 0; i < l; ++i) {
            for (size_t j = i + 1; j < l; ++j) {
              const float jac = JaccardOfSortedSets(
                  paths[i]->RowIndices(static_cast<int32_t>(v)),
                  paths[j]->RowIndices(static_cast<int32_t>(v)));
              out[i][static_cast<size_t>(v)] += jac;
              out[j][static_cast<size_t>(v)] += jac;
            }
          }
          for (size_t i = 0; i < l; ++i) {
            out[i][static_cast<size_t>(v)] *= norm;
          }
        }
      });
  return out;
}

std::vector<float> PerNodeJaccard(
    const std::vector<const CsrMatrix*>& paths, exec::ExecContext* ctx) {
  FREEHGC_CHECK(!paths.empty());
  FREEHGC_TRACE_SPAN("metapath.jaccard");
  const int32_t rows = paths[0]->rows();
  for (const auto* p : paths) FREEHGC_CHECK(p->rows() == rows);
  std::vector<float> out(static_cast<size_t>(rows), 0.0f);
  if (paths.size() < 2) return out;
  const size_t l = paths.size();
  const float norm = 2.0f / static_cast<float>(l * (l - 1));
  exec::Resolve(ctx).ParallelFor(
      rows, 128, [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t v = begin; v < end; ++v) {
          float acc = 0.0f;
          for (size_t i = 0; i < l; ++i) {
            for (size_t j = i + 1; j < l; ++j) {
              acc += JaccardOfSortedSets(
                  paths[i]->RowIndices(static_cast<int32_t>(v)),
                  paths[j]->RowIndices(static_cast<int32_t>(v)));
            }
          }
          out[static_cast<size_t>(v)] = acc * norm;
        }
      });
  return out;
}

}  // namespace freehgc
