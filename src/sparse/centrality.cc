#include "sparse/centrality.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/logging.h"
#include "common/rng.h"
#include "sparse/ops.h"

namespace freehgc::sparse {

std::vector<float> PprPush(
    const CsrMatrix& a,
    const std::vector<std::pair<int32_t, float>>& teleport, float alpha,
    float epsilon) {
  FREEHGC_CHECK(a.rows() == a.cols());
  const int32_t n = a.rows();
  std::vector<float> p(static_cast<size_t>(n), 0.0f);
  std::vector<float> residual(static_cast<size_t>(n), 0.0f);
  std::deque<int32_t> queue;
  std::vector<uint8_t> queued(static_cast<size_t>(n), 0);
  for (const auto& [v, mass] : teleport) {
    FREEHGC_CHECK(v >= 0 && v < n);
    residual[static_cast<size_t>(v)] += mass;
    if (!queued[static_cast<size_t>(v)]) {
      queue.push_back(v);
      queued[static_cast<size_t>(v)] = 1;
    }
  }
  // Forward push: settle alpha of the residual locally, spread the rest
  // along outgoing (normalized) edges; nodes re-enter the queue while
  // their residual exceeds epsilon * degree. The push order is part of
  // the algorithm's definition, so this stays sequential; the parallel
  // NIM path uses PprScores instead.
  while (!queue.empty()) {
    const int32_t v = queue.front();
    queue.pop_front();
    queued[static_cast<size_t>(v)] = 0;
    const float r = residual[static_cast<size_t>(v)];
    const int64_t deg = a.RowNnz(v);
    if (r <= epsilon * static_cast<float>(std::max<int64_t>(1, deg))) {
      continue;
    }
    residual[static_cast<size_t>(v)] = 0.0f;
    p[static_cast<size_t>(v)] += alpha * r;
    if (deg == 0) continue;
    const float spread = (1.0f - alpha) * r;
    auto idx = a.RowIndices(v);
    auto val = a.RowValues(v);
    const float row_sum = a.RowSum(v);
    if (row_sum <= 0) continue;
    for (size_t k = 0; k < idx.size(); ++k) {
      const int32_t u = idx[k];
      residual[static_cast<size_t>(u)] += spread * val[k] / row_sum;
      const int64_t udeg = std::max<int64_t>(1, a.RowNnz(u));
      if (!queued[static_cast<size_t>(u)] &&
          residual[static_cast<size_t>(u)] >
              epsilon * static_cast<float>(udeg)) {
        queue.push_back(u);
        queued[static_cast<size_t>(u)] = 1;
      }
    }
  }
  return p;
}

const char* CentralityKindName(CentralityKind kind) {
  switch (kind) {
    case CentralityKind::kDegree:
      return "degree";
    case CentralityKind::kCloseness:
      return "closeness";
    case CentralityKind::kBetweenness:
      return "betweenness";
    case CentralityKind::kHubs:
      return "hubs";
    case CentralityKind::kAuthorities:
      return "authorities";
  }
  return "?";
}

namespace {

std::vector<double> DegreeCentrality(const CsrMatrix& a,
                                     exec::ExecContext& ex) {
  std::vector<double> out(static_cast<size_t>(a.rows()), 0.0);
  ex.ParallelFor(a.rows(), 1024,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   for (int64_t v = begin; v < end; ++v) {
                     out[static_cast<size_t>(v)] = static_cast<double>(
                         a.RowNnz(static_cast<int32_t>(v)));
                   }
                 });
  return out;
}

/// BFS distances from a source into `dist` (-1 = unreachable), using the
/// workspace frontier buffer instead of a per-call deque.
void BfsInto(const CsrMatrix& a, int32_t src, std::vector<int32_t>& dist,
             std::vector<int32_t>& frontier) {
  frontier.clear();
  frontier.push_back(src);
  dist[static_cast<size_t>(src)] = 0;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const int32_t v = frontier[head];
    for (int32_t u : a.RowIndices(v)) {
      if (dist[static_cast<size_t>(u)] < 0) {
        dist[static_cast<size_t>(u)] = dist[static_cast<size_t>(v)] + 1;
        frontier.push_back(u);
      }
    }
  }
}

/// Sums `part` into `acc` (resizing on first use) — the ordered combine
/// step shared by the sampled-source estimators.
std::vector<double> CombineAdd(std::vector<double> acc,
                               std::vector<double> part) {
  if (acc.empty()) return part;
  for (size_t i = 0; i < acc.size(); ++i) acc[i] += part[i];
  return acc;
}

std::vector<double> ClosenessCentrality(const CsrMatrix& a,
                                        const CentralityOptions& opts,
                                        exec::ExecContext& ex) {
  const int32_t n = a.rows();
  if (n == 0) return {};
  Rng rng(opts.seed);
  const int32_t samples = std::min<int32_t>(opts.num_samples, n);
  const auto sources = rng.SampleWithoutReplacement(n, samples);
  // Harmonic closeness estimated from sampled sources: sum over sources s
  // of 1/d(s, v). One chunk per source (grain 1) with ordered combine
  // keeps the float association equal to the sequential source order.
  std::vector<double> out = ex.ParallelReduce(
      static_cast<int64_t>(sources.size()), 1, std::vector<double>(),
      [&](int64_t begin, int64_t end, exec::Workspace& ws) {
        std::vector<double> part(static_cast<size_t>(n), 0.0);
        for (int64_t si = begin; si < end; ++si) {
          std::vector<int32_t>& dist = ws.I32(static_cast<size_t>(n), -1);
          std::vector<int32_t>& frontier = ws.Touched();
          BfsInto(a, sources[static_cast<size_t>(si)], dist, frontier);
          for (int32_t v = 0; v < n; ++v) {
            const int32_t d = dist[static_cast<size_t>(v)];
            if (d > 0) part[static_cast<size_t>(v)] += 1.0 / d;
          }
        }
        return part;
      },
      CombineAdd);
  if (out.empty()) out.assign(static_cast<size_t>(n), 0.0);
  return out;
}

std::vector<double> BetweennessCentrality(const CsrMatrix& a,
                                          const CentralityOptions& opts,
                                          exec::ExecContext& ex) {
  // Brandes (2001), restricted to sampled sources; source BFS+backprop
  // runs are independent, so they parallelize one source per chunk.
  const int32_t n = a.rows();
  if (n == 0) return {};
  Rng rng(opts.seed);
  const int32_t samples = std::min<int32_t>(opts.num_samples, n);
  const auto sources = rng.SampleWithoutReplacement(n, samples);
  std::vector<double> out = ex.ParallelReduce(
      static_cast<int64_t>(sources.size()), 1, std::vector<double>(),
      [&](int64_t begin, int64_t end, exec::Workspace& ws) {
        std::vector<double> part(static_cast<size_t>(n), 0.0);
        for (int64_t si = begin; si < end; ++si) {
          const int32_t s = sources[static_cast<size_t>(si)];
          std::vector<std::vector<int32_t>> preds(static_cast<size_t>(n));
          std::vector<int64_t>& sigma = ws.I64(static_cast<size_t>(n), 0);
          std::vector<int32_t>& dist = ws.I32(static_cast<size_t>(n), -1);
          std::vector<int32_t>& order = ws.Touched();
          sigma[static_cast<size_t>(s)] = 1;
          dist[static_cast<size_t>(s)] = 0;
          order.push_back(s);
          for (size_t head = 0; head < order.size(); ++head) {
            const int32_t v = order[head];
            for (int32_t u : a.RowIndices(v)) {
              if (dist[static_cast<size_t>(u)] < 0) {
                dist[static_cast<size_t>(u)] =
                    dist[static_cast<size_t>(v)] + 1;
                order.push_back(u);
              }
              if (dist[static_cast<size_t>(u)] ==
                  dist[static_cast<size_t>(v)] + 1) {
                sigma[static_cast<size_t>(u)] +=
                    sigma[static_cast<size_t>(v)];
                preds[static_cast<size_t>(u)].push_back(v);
              }
            }
          }
          std::vector<double> delta(static_cast<size_t>(n), 0.0);
          for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const int32_t w = *it;
            for (int32_t v : preds[static_cast<size_t>(w)]) {
              delta[static_cast<size_t>(v)] +=
                  static_cast<double>(sigma[static_cast<size_t>(v)]) /
                  static_cast<double>(sigma[static_cast<size_t>(w)]) *
                  (1.0 + delta[static_cast<size_t>(w)]);
            }
            if (w != s) {
              part[static_cast<size_t>(w)] += delta[static_cast<size_t>(w)];
            }
          }
        }
        return part;
      },
      CombineAdd);
  if (out.empty()) out.assign(static_cast<size_t>(n), 0.0);
  return out;
}

std::vector<double> Hits(const CsrMatrix& a, bool hubs,
                         const CentralityOptions& opts,
                         exec::ExecContext& ex) {
  const int32_t n = a.rows();
  // Both half-steps are row-parallel gathers: auth = A^T hub runs over
  // the materialized transpose, hub = A auth over a itself. The gather
  // accumulates sources in ascending order, matching the sequential
  // scatter's per-element order.
  const CsrMatrix at = Transpose(a, &ex);
  std::vector<double> hub(static_cast<size_t>(n), 1.0);
  std::vector<double> auth(static_cast<size_t>(n), 1.0);
  auto gather = [&](const CsrMatrix& m, const std::vector<double>& x,
                    std::vector<double>& y) {
    ex.ParallelFor(n, 512,
                   [&](int64_t begin, int64_t end, exec::Workspace&) {
                     for (int64_t v = begin; v < end; ++v) {
                       double acc = 0.0;
                       for (int32_t u : m.RowIndices(static_cast<int32_t>(v))) {
                         acc += x[static_cast<size_t>(u)];
                       }
                       y[static_cast<size_t>(v)] = acc;
                     }
                   });
  };
  auto normalize = [&](std::vector<double>& v) {
    const double sq = ex.ParallelReduce(
        static_cast<int64_t>(v.size()), 2048, 0.0,
        [&](int64_t begin, int64_t end, exec::Workspace&) {
          double s = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            s += v[static_cast<size_t>(i)] * v[static_cast<size_t>(i)];
          }
          return s;
        },
        [](double acc, double part) { return acc + part; });
    if (sq <= 0) return;
    const double inv = 1.0 / std::sqrt(sq);
    ex.ParallelFor(static_cast<int64_t>(v.size()), 2048,
                   [&](int64_t begin, int64_t end, exec::Workspace&) {
                     for (int64_t i = begin; i < end; ++i) {
                       v[static_cast<size_t>(i)] *= inv;
                     }
                   });
  };
  for (int it = 0; it < opts.hits_iters; ++it) {
    gather(at, hub, auth);
    normalize(auth);
    gather(a, auth, hub);
    normalize(hub);
  }
  return hubs ? hub : auth;
}

}  // namespace

std::vector<double> Centrality(const CsrMatrix& a, CentralityKind kind,
                               const CentralityOptions& opts,
                               exec::ExecContext* ctx) {
  FREEHGC_CHECK(a.rows() == a.cols());
  exec::ExecContext& ex = exec::Resolve(ctx);
  switch (kind) {
    case CentralityKind::kDegree:
      return DegreeCentrality(a, ex);
    case CentralityKind::kCloseness:
      return ClosenessCentrality(a, opts, ex);
    case CentralityKind::kBetweenness:
      return BetweennessCentrality(a, opts, ex);
    case CentralityKind::kHubs:
      return Hits(a, /*hubs=*/true, opts, ex);
    case CentralityKind::kAuthorities:
      return Hits(a, /*hubs=*/false, opts, ex);
  }
  return {};
}

}  // namespace freehgc::sparse
