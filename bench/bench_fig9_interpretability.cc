// Figure 9: interpretability of the data selection criterion. From a
// random sample of 80 ACM target nodes, 10 are selected with FreeHGC's
// criterion F(S) and 10 with Herding; every sample node captured within 3
// hops of a selected node is marked. The bench prints |R(S)| (captured
// count) and the spatial dispersion of the captured set in a t-SNE
// embedding — FreeHGC activates more nodes and spreads them over more of
// the dataset (the paper's two visual observations) — and writes
// fig9_freehgc.csv / fig9_herding.csv scatter data for plotting.
#include <algorithm>
#include <unordered_set>

#include "bench/bench_common.h"
#include "common/string_util.h"
#include "core/selection_util.h"
#include "core/target_selection.h"
#include "viz/tsne.h"

using namespace freehgc;
using namespace freehgc::bench;

namespace {

/// Target-type nodes reachable from `selected` within `hops` hops over the
/// typed adjacency (BFS across all relations).
std::unordered_set<int64_t> CapturedNodes(
    const HeteroGraph& g, const std::vector<int32_t>& selected, int hops) {
  // Frontier entries are (type, id) encoded as type * 2^32 + id.
  auto encode = [](TypeId t, int32_t v) {
    return (static_cast<int64_t>(t) << 32) | static_cast<uint32_t>(v);
  };
  std::unordered_set<int64_t> visited;
  std::vector<std::pair<TypeId, int32_t>> frontier;
  for (int32_t v : selected) {
    visited.insert(encode(g.target_type(), v));
    frontier.push_back({g.target_type(), v});
  }
  for (int h = 0; h < hops; ++h) {
    std::vector<std::pair<TypeId, int32_t>> next;
    for (const auto& [t, v] : frontier) {
      for (RelationId r = 0; r < g.NumRelations(); ++r) {
        if (g.relation(r).src_type != t) continue;
        for (int32_t u : g.relation(r).adj.RowIndices(v)) {
          const int64_t key = encode(g.relation(r).dst_type, u);
          if (visited.insert(key).second) {
            next.push_back({g.relation(r).dst_type, u});
          }
        }
      }
    }
    frontier = std::move(next);
  }
  return visited;
}

}  // namespace

int main() {
  PrintHeader("Fig. 9: selection interpretability (FreeHGC vs Herding)");
  auto env = MakeEnv("acm");
  const HeteroGraph& g = env->data->graph;
  const hgnn::EvalContext& ctx = env->data->ctx;
  const TypeId target = g.target_type();

  // 80-node sample of target nodes (from the training pool so both
  // selectors may pick any of them).
  Rng rng(7);
  std::vector<int32_t> sample = g.train_index();
  rng.Shuffle(sample);
  sample.resize(std::min<size_t>(sample.size(), 80));
  std::sort(sample.begin(), sample.end());

  // FreeHGC: rank the sample by the aggregated criterion score.
  std::vector<double> scores;
  core::CondenseTargetNodes(g, ctx.paths, ctx.options.max_row_nnz,
                            static_cast<int32_t>(g.train_index().size()) / 2,
                            {}, env->cache, &scores, env->env.exec);
  std::vector<int32_t> by_score = sample;
  std::stable_sort(by_score.begin(), by_score.end(),
                   [&](int32_t a, int32_t b) {
                     return scores[static_cast<size_t>(a)] >
                            scores[static_cast<size_t>(b)];
                   });
  std::vector<int32_t> free_sel(by_score.begin(), by_score.begin() + 10);

  // Herding on raw features over the same sample.
  std::vector<int32_t> herd_sel =
      core::HerdingSelect(g.Features(target), sample, 10);

  for (const auto& [label, sel] :
       std::vector<std::pair<std::string, std::vector<int32_t>>>{
           {"FreeHGC", free_sel}, {"Herding", herd_sel}}) {
    const auto captured = CapturedNodes(g, sel, /*hops=*/2);
    // Which sample nodes are captured?
    std::vector<int32_t> captured_sample;
    for (int32_t v : sample) {
      if (captured.count((static_cast<int64_t>(target) << 32) |
                         static_cast<uint32_t>(v)) > 0) {
        captured_sample.push_back(v);
      }
    }
    // Embed the sample, compute dispersion of the captured subset.
    Matrix feats = g.Features(target).GatherRows(sample);
    viz::TsneOptions topts;
    topts.iterations = 250;
    Matrix emb = viz::Tsne(feats, topts);
    std::vector<int32_t> captured_rows;
    std::vector<std::string> labels(sample.size(), "uncaptured");
    for (size_t i = 0; i < sample.size(); ++i) {
      const bool is_sel =
          std::count(sel.begin(), sel.end(), sample[i]) > 0;
      const bool is_cap = std::count(captured_sample.begin(),
                                     captured_sample.end(), sample[i]) > 0;
      if (is_sel) labels[i] = "selected";
      else if (is_cap) labels[i] = "captured";
      if (is_cap || is_sel) captured_rows.push_back(static_cast<int32_t>(i));
    }
    const Matrix captured_emb = emb.GatherRows(captured_rows);
    const viz::DispersionStats stats = viz::ComputeDispersion(captured_emb);
    std::printf(
        "%-8s |R(S)| total captured nodes = %5zu, captured in sample = "
        "%2zu/80, mean pairwise dist = %.2f, grid coverage = %.0f%%\n",
        label.c_str(), captured.size(), captured_sample.size(),
        stats.mean_pairwise_distance, 100.0 * stats.grid_coverage);
    const std::string path = "fig9_" + label + ".csv";
    viz::WriteScatterCsv(emb, labels, path);
    std::printf("         scatter written to %s\n", path.c_str());
  }
  return 0;
}
