#include "core/other_types.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <queue>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "sparse/centrality.h"
#include "sparse/ops.h"

namespace freehgc::core {

const char* NimScorerName(NimScorer scorer) {
  switch (scorer) {
    case NimScorer::kPprPowerIteration:
      return "ppr";
    case NimScorer::kPprPush:
      return "ppr-push";
    case NimScorer::kDegree:
      return "degree";
    case NimScorer::kCloseness:
      return "closeness";
    case NimScorer::kBetweenness:
      return "betweenness";
    case NimScorer::kHubs:
      return "hubs";
    case NimScorer::kAuthorities:
      return "authorities";
  }
  return "?";
}

namespace {

/// The unnormalized bipartite block of `p`'s full composed adjacency,
/// read by the push and centrality scorers. The composed pin is released
/// on return, so the entry is spillable again.
CsrMatrix RawBlock(const HeteroGraph& g, const MetaPath& p,
                   int64_t max_row_nnz, AdjacencyCache& cache,
                   exec::ExecContext* ctx) {
  const std::shared_ptr<const CsrMatrix> composed =
      cache.Composed(g, p, max_row_nnz, ctx);
  return sparse::BipartiteBlock(*composed, ctx);
}

}  // namespace

std::vector<int32_t> CondenseFatherType(
    const HeteroGraph& g, TypeId father,
    const std::vector<MetaPath>& paths_to_father, int64_t max_row_nnz,
    const std::vector<int32_t>& selected_targets, int32_t budget,
    const NimOptions& opts, AdjacencyCache& cache, exec::ExecContext* ctx) {
  const TypeId target = g.target_type();
  FREEHGC_CHECK(target >= 0);
  exec::ExecContext& ex = exec::Resolve(ctx);
  const int32_t nt = g.NodeCount(target);
  const int32_t ns = g.NodeCount(father);
  const int32_t k = std::min(budget, ns);
  if (k <= 0) return {};

  std::vector<double> influence(static_cast<size_t>(ns), 0.0);
  const float teleport_mass =
      selected_targets.empty()
          ? 0.0f
          : 1.0f / static_cast<float>(selected_targets.size());

  std::vector<const MetaPath*> paths;
  for (const auto& p : paths_to_father) {
    if (p.end_type() == father && p.start_type() == target) {
      paths.push_back(&p);
    }
  }
  switch (opts.scorer) {
    case NimScorer::kPprPowerIteration: {
      // Pin every path's block first, in path order, so that a miss
      // builds on `ex` with the kernels' own parallelism rather than
      // nested-serially inside the loop over paths below.
      std::vector<std::shared_ptr<const CsrMatrix>> blocks;
      blocks.reserve(paths.size());
      for (const MetaPath* p : paths) {
        blocks.push_back(cache.NimBlock(g, *p, max_row_nnz, &ex));
      }
      std::vector<float> teleport(static_cast<size_t>(nt + ns), 0.0f);
      for (int32_t t : selected_targets) {
        teleport[static_cast<size_t>(t)] = teleport_mass;
      }
      // The bipartite block is bit-exactly symmetric: BipartiteBlock
      // mirrors each entry with the same value, and SymNormalize scales
      // mirror entries by the same single-rounded inv_sqrt product. So
      // PprScores' A pi is Eq. (13)'s A^T pi, with no transposed copy; it
      // iterates only the half chain that feeds the father rows.
      auto score = [&](size_t i) {
        return sparse::PprScores(*blocks[i], nt, teleport, opts.alpha,
                                 opts.max_iters, &ex);
      };
      std::vector<std::vector<float>> father_pi(blocks.size());
      if (blocks.size() == 1) {
        father_pi[0] = score(0);  // keeps PprScores' row parallelism
      } else {
        // One path per chunk: each PprScores runs inline (a nested
        // ParallelFor is serial), so the paths' PPRs run concurrently.
        ex.ParallelFor(static_cast<int64_t>(blocks.size()), 1,
                       [&](int64_t begin, int64_t end, exec::Workspace&) {
                         for (int64_t i = begin; i < end; ++i) {
                           father_pi[static_cast<size_t>(i)] =
                               score(static_cast<size_t>(i));
                         }
                       });
      }
      // Summed in path order, so the double sums do not depend on which
      // path finished first.
      for (const std::vector<float>& pi : father_pi) {
        for (int32_t j = 0; j < ns; ++j) {
          influence[static_cast<size_t>(j)] +=
              static_cast<double>(pi[static_cast<size_t>(j)]);
        }
      }
      break;
    }
    case NimScorer::kPprPush: {
      std::vector<std::pair<int32_t, float>> teleport;
      teleport.reserve(selected_targets.size());
      for (int32_t t : selected_targets) {
        teleport.push_back({t, teleport_mass});
      }
      for (const MetaPath* p : paths) {
        const CsrMatrix raw_block = RawBlock(g, *p, max_row_nnz, cache, &ex);
        const std::vector<float> pi = sparse::PprPush(
            raw_block, teleport, opts.alpha, opts.push_epsilon);
        for (int32_t j = 0; j < ns; ++j) {
          influence[static_cast<size_t>(j)] +=
              static_cast<double>(pi[static_cast<size_t>(nt + j)]);
        }
      }
      break;
    }
    default: {
      // Target-independent centrality replacements.
      sparse::CentralityKind kind = sparse::CentralityKind::kDegree;
      if (opts.scorer == NimScorer::kCloseness) {
        kind = sparse::CentralityKind::kCloseness;
      } else if (opts.scorer == NimScorer::kBetweenness) {
        kind = sparse::CentralityKind::kBetweenness;
      } else if (opts.scorer == NimScorer::kHubs) {
        kind = sparse::CentralityKind::kHubs;
      } else if (opts.scorer == NimScorer::kAuthorities) {
        kind = sparse::CentralityKind::kAuthorities;
      }
      for (const MetaPath* p : paths) {
        const std::vector<double> c = sparse::Centrality(
            RawBlock(g, *p, max_row_nnz, cache, &ex), kind, {}, &ex);
        for (int32_t j = 0; j < ns; ++j) {
          influence[static_cast<size_t>(j)] += c[static_cast<size_t>(nt + j)];
        }
      }
      break;
    }
  }
  if (paths.empty()) {
    // No meta-path reaches this type (disconnected schema); fall back to
    // degree so the budget is still honoured.
    for (RelationId r : g.RelationsFrom(father)) {
      const auto deg = g.relation(r).adj.RowDegrees();
      for (int32_t j = 0; j < ns; ++j) {
        influence[static_cast<size_t>(j)] +=
            static_cast<double>(deg[static_cast<size_t>(j)]);
      }
    }
  }

  std::vector<int32_t> order(static_cast<size_t>(ns));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return influence[static_cast<size_t>(a)] >
           influence[static_cast<size_t>(b)];
  });
  order.resize(static_cast<size_t>(k));
  std::sort(order.begin(), order.end());
  return order;
}

LeafSynthesis SynthesizeLeafType(
    const HeteroGraph& g, TypeId leaf,
    const std::vector<std::pair<TypeId, const std::vector<int32_t>*>>&
        kept_fathers,
    int32_t budget, exec::ExecContext* ctx) {
  LeafSynthesis out;
  const int32_t nl = g.NodeCount(leaf);
  if (nl == 0 || budget <= 0) {
    out.features = Matrix(0, g.Features(leaf).cols());
    return out;
  }

  // Eq. 14: one hyper-node per kept father node, aggregating its 1-hop
  // leaf neighbours over every father->leaf relation.
  std::vector<std::vector<int32_t>> hypers;
  for (const auto& [father, kept] : kept_fathers) {
    std::vector<RelationId> rels;
    for (RelationId r = 0; r < g.NumRelations(); ++r) {
      if (g.relation(r).src_type == father &&
          g.relation(r).dst_type == leaf) {
        rels.push_back(r);
      }
    }
    if (rels.empty()) continue;
    for (int32_t i : *kept) {
      std::vector<int32_t> members;
      for (RelationId r : rels) {
        auto idx = g.relation(r).adj.RowIndices(i);
        members.insert(members.end(), idx.begin(), idx.end());
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      if (!members.empty()) hypers.push_back(std::move(members));
    }
  }

  if (hypers.empty()) {
    // Leaf unreachable from any kept father: keep the highest-degree leaf
    // nodes as singleton hyper-nodes so the type is still represented.
    std::vector<int64_t> deg(static_cast<size_t>(nl), 0);
    for (RelationId r = 0; r < g.NumRelations(); ++r) {
      if (g.relation(r).src_type != leaf) continue;
      const auto d = g.relation(r).adj.RowDegrees();
      for (int32_t v = 0; v < nl; ++v) deg[static_cast<size_t>(v)] += d[static_cast<size_t>(v)];
    }
    std::vector<int32_t> order(static_cast<size_t>(nl));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return deg[static_cast<size_t>(a)] > deg[static_cast<size_t>(b)];
    });
    order.resize(std::min<size_t>(order.size(),
                                  static_cast<size_t>(budget)));
    for (int32_t v : order) hypers.push_back({v});
  }

  // Merge smallest-first down to the budget (min-heap on member count;
  // merging two hyper-nodes unions their member sets).
  using Entry = std::pair<size_t, size_t>;  // (member count, hyper index)
  auto cmp = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  std::vector<bool> alive(hypers.size(), true);
  for (size_t i = 0; i < hypers.size(); ++i) heap.push({hypers[i].size(), i});
  size_t live_count = hypers.size();
  while (live_count > static_cast<size_t>(budget) && heap.size() >= 2) {
    Entry a = heap.top();
    heap.pop();
    if (!alive[a.second] || a.first != hypers[a.second].size()) continue;
    Entry b = heap.top();
    heap.pop();
    if (!alive[b.second] || b.first != hypers[b.second].size()) {
      heap.push(a);
      continue;
    }
    // Merge b into a.
    auto& ma = hypers[a.second];
    auto& mb = hypers[b.second];
    std::vector<int32_t> merged;
    merged.reserve(ma.size() + mb.size());
    std::merge(ma.begin(), ma.end(), mb.begin(), mb.end(),
               std::back_inserter(merged));
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    ma = std::move(merged);
    mb.clear();
    alive[b.second] = false;
    --live_count;
    heap.push({hypers[a.second].size(), a.second});
  }

  const Matrix& leaf_features = g.Features(leaf);
  const int64_t d = leaf_features.cols();
  std::vector<std::vector<int32_t>> final_members;
  for (size_t i = 0; i < hypers.size(); ++i) {
    if (alive[i] && !hypers[i].empty()) {
      final_members.push_back(std::move(hypers[i]));
    }
  }
  out.features = Matrix(static_cast<int64_t>(final_members.size()), d);
  // Each hyper-node's mean writes one disjoint output row.
  exec::Resolve(ctx).ParallelFor(
      static_cast<int64_t>(final_members.size()), 16,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t k = begin; k < end; ++k) {
          const std::vector<float> mean = dense::ColumnMean(
              leaf_features, final_members[static_cast<size_t>(k)]);
          std::copy(mean.begin(), mean.end(), out.features.Row(k));
        }
      });
  out.members = std::move(final_members);
  return out;
}

}  // namespace freehgc::core
