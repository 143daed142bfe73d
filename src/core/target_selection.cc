#include "core/target_selection.h"

#include <algorithm>
#include <map>
#include <memory>
#include <queue>

#include "common/logging.h"
#include "core/selection_util.h"
#include "sparse/ops.h"

namespace freehgc::core {

namespace {

/// Lazy-greedy priority-queue entry: cached (possibly stale) gain for a
/// candidate node.
struct Candidate {
  double gain;
  int32_t node;
  int64_t computed_at;  // selection round the gain was computed in

  bool operator<(const Candidate& other) const {
    return gain < other.gain;  // max-heap
  }
};

}  // namespace

std::vector<int32_t> GreedyCoverageSelect(
    const CsrMatrix& adj, const std::vector<int32_t>& pool, int32_t budget,
    const std::vector<float>* diversity, bool use_coverage,
    std::vector<double>* gains_out, exec::Workspace* ws) {
  const int32_t k =
      std::min<int32_t>(budget, static_cast<int32_t>(pool.size()));
  if (gains_out != nullptr) gains_out->clear();
  if (k <= 0) return {};
  exec::Workspace local;
  exec::Workspace& scratch = ws != nullptr ? *ws : local;

  // Normalization factor |R_hat| of Eq. 8: the number of source-type
  // nodes, exactly as the paper chooses it.
  const double inv_cols =
      adj.cols() > 0 ? 1.0 / static_cast<double>(adj.cols()) : 0.0;
  // One covered flag per column, from the arena's zeroed flags; the
  // selected rows' flags are re-zeroed before returning.
  std::vector<uint8_t>& covered =
      scratch.ZeroedFlags(static_cast<size_t>(adj.cols()));

  // A candidate's gain given its count of not-yet-covered columns.
  auto gain_of = [&](int32_t v, int64_t fresh) {
    double gain = 0.0;
    if (use_coverage) gain += static_cast<double>(fresh) * inv_cols;
    if (diversity != nullptr) gain += (*diversity)[static_cast<size_t>(v)];
    return gain;
  };
  auto node_gain = [&](int32_t v) {
    int64_t fresh = 0;
    if (use_coverage) {
      for (int32_t c : adj.RowIndices(v)) {
        if (!covered[static_cast<size_t>(c)]) ++fresh;
      }
    }
    return gain_of(v, fresh);
  };

  // Round-0 gains see an empty coverage set, and CSR rows hold strictly
  // ascending (unique) columns, so a row's fresh count is its length.
  std::priority_queue<Candidate> heap;
  for (int32_t v : pool) heap.push({gain_of(v, adj.RowNnz(v)), v, 0});

  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(k));
  int64_t round = 0;
  while (static_cast<int32_t>(out.size()) < k && !heap.empty()) {
    Candidate top = heap.top();
    heap.pop();
    if (top.computed_at != round) {
      // Stale: coverage can only have shrunk. Recompute and reinsert.
      top.gain = node_gain(top.node);
      top.computed_at = round;
      heap.push(top);
      continue;
    }
    out.push_back(top.node);
    if (gains_out != nullptr) gains_out->push_back(top.gain);
    for (int32_t c : adj.RowIndices(top.node)) {
      covered[static_cast<size_t>(c)] = 1;
    }
    ++round;
  }
  for (int32_t v : out) {
    for (int32_t c : adj.RowIndices(v)) covered[static_cast<size_t>(c)] = 0;
  }
  return out;
}

std::vector<int32_t> CondenseTargetNodes(const HeteroGraph& g,
                                         const std::vector<MetaPath>& paths,
                                         int64_t max_row_nnz, int32_t budget,
                                         const TargetSelectionOptions& opts,
                                         AdjacencyCache& cache,
                                         std::vector<double>* scores_out,
                                         exec::ExecContext* ctx) {
  const TypeId target = g.target_type();
  FREEHGC_CHECK(target >= 0);
  exec::ExecContext& ex = exec::Resolve(ctx);
  const int32_t n_target = g.NodeCount(target);
  const std::vector<int32_t>& labels = g.labels();
  const std::vector<int32_t>& pool = g.train_index();
  const int32_t num_classes = g.num_classes();

  std::vector<double> score(static_cast<size_t>(n_target), 0.0);

  // Compose every meta-path adjacency once through the cache, grouped by
  // end type for the Jaccard term (Eq. 6 compares paths sharing source
  // and target types). The Jaccard term, the greedy coverage and the
  // degree fallback read only pool rows, so only the train-pool rows are
  // composed.
  std::map<TypeId, std::vector<size_t>> group_of_end;
  // Every path's adjacency is used across the whole selection loop, so
  // the pins are held for the function's duration (a budgeted cache can
  // only spill them after we return).
  std::vector<std::shared_ptr<const CsrMatrix>> pins;
  std::vector<const CsrMatrix*> composed;
  pins.reserve(paths.size());
  composed.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    FREEHGC_CHECK(paths[i].start_type() == target);
    pins.push_back(
        cache.Composed(g, paths[i], max_row_nnz, &ex, RowSet::kTrain));
    composed.push_back(pins.back().get());
    group_of_end[paths[i].end_type()].push_back(i);
  }

  // Per-path per-node diversity 1 - J_hat (Eq. 7), on the pool nodes the
  // greedy reads: 1 when the path is alone in its group. It depends only
  // on the graph and the group, so a cache keeps it across requests.
  std::vector<std::vector<float>> diversity(paths.size());
  if (opts.use_jaccard) {
    for (const auto& [end, members] : group_of_end) {
      if (members.size() == 1) {
        diversity[members[0]].assign(static_cast<size_t>(n_target), 1.0f);
        continue;
      }
      std::vector<MetaPath> group;
      for (size_t i : members) group.push_back(paths[i]);
      const std::shared_ptr<const CsrMatrix> div_pin =
          cache.Diversity(g, group, max_row_nnz, &ex);
      for (size_t gi = 0; gi < members.size(); ++gi) {
        auto& div = diversity[members[gi]];
        div.assign(static_cast<size_t>(n_target), 0.0f);
        const auto idx = div_pin->RowIndices(static_cast<int32_t>(gi));
        const auto val = div_pin->RowValues(static_cast<int32_t>(gi));
        for (size_t k = 0; k < idx.size(); ++k) {
          div[static_cast<size_t>(idx[k])] = val[k];
        }
      }
    }
  }

  const std::vector<int32_t> class_budget =
      PerClassBudget(labels, pool, num_classes, budget);
  std::vector<std::vector<int32_t>> class_pools(
      static_cast<size_t>(num_classes));
  for (int32_t c = 0; c < num_classes; ++c) {
    class_pools[static_cast<size_t>(c)] = PoolOfClass(labels, pool, c);
  }

  if (!opts.use_receptive_field && !opts.use_jaccard) {
    // Both terms disabled (degenerate ablation): fall back to degree.
    for (const CsrMatrix* adj : composed) {
      for (int32_t v : pool) {
        score[static_cast<size_t>(v)] +=
            static_cast<double>(adj->RowNnz(v));
      }
    }
  } else {
    // Algorithm 1's double loop: one greedy per (meta-path, class), run
    // as one task list. Each task fills only its own picks and gains;
    // they are added into `score` in (path, class) order, as the serial
    // double loop did, so the sums do not depend on the thread count.
    struct Greedy {
      size_t path;
      size_t cls;
    };
    std::vector<Greedy> greedies;
    std::vector<int64_t> work;  // the pool's rows and columns it scans
    for (size_t m = 0; m < composed.size(); ++m) {
      for (size_t c = 0; c < class_pools.size(); ++c) {
        if (class_pools[c].empty() || class_budget[c] <= 0) continue;
        greedies.push_back({m, c});
        int64_t scanned = static_cast<int64_t>(class_pools[c].size());
        for (int32_t v : class_pools[c]) scanned += composed[m]->RowNnz(v);
        work.push_back(scanned);
      }
    }
    std::vector<std::vector<int32_t>> picked(greedies.size());
    std::vector<std::vector<double>> gains(greedies.size());
    RunTasks(ex, work, [&](size_t i, exec::Workspace& ws) {
      const Greedy& t = greedies[i];
      picked[i] = GreedyCoverageSelect(
          *composed[t.path], class_pools[t.cls], class_budget[t.cls],
          opts.use_jaccard ? &diversity[t.path] : nullptr,
          opts.use_receptive_field, &gains[i], &ws);
    });
    for (size_t i = 0; i < greedies.size(); ++i) {
      for (size_t j = 0; j < picked[i].size(); ++j) {
        score[static_cast<size_t>(picked[i][j])] += gains[i][j];
      }
    }
  }

  // Eq. 9: class-by-class top-k on the aggregated scores, preserving the
  // original class proportions.
  std::vector<int32_t> out;
  for (int32_t c = 0; c < num_classes; ++c) {
    std::vector<int32_t>& class_pool = class_pools[static_cast<size_t>(c)];
    const int32_t bc = class_budget[static_cast<size_t>(c)];
    if (bc <= 0 || class_pool.empty()) continue;
    std::stable_sort(class_pool.begin(), class_pool.end(),
                     [&](int32_t a, int32_t b) {
                       return score[static_cast<size_t>(a)] >
                              score[static_cast<size_t>(b)];
                     });
    class_pool.resize(
        std::min<size_t>(class_pool.size(), static_cast<size_t>(bc)));
    out.insert(out.end(), class_pool.begin(), class_pool.end());
  }
  std::sort(out.begin(), out.end());
  if (scores_out != nullptr) *scores_out = std::move(score);
  return out;
}

}  // namespace freehgc::core
