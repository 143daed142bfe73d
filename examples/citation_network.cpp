// Scenario: an academic platform must retrain its author-field classifier
// (DBLP-style author/paper/term/venue graph) many times — hyper-parameter
// sweeps, architecture search, periodic refreshes. Instead of training on
// the full graph every time, it condenses once with FreeHGC and reuses the
// small graph, checking that the condensed model generalizes across HGNN
// architectures (the paper's Table IV property).
//
//   ./build/examples/citation_network

#include <cstdio>

#include "core/freehgc.h"
#include "datasets/generator.h"
#include "hgnn/trainer.h"

int main() {
  using namespace freehgc;

  const HeteroGraph graph = datasets::MakeDblp(/*seed=*/7);
  std::printf(
      "DBLP-style citation network: %lld nodes / %lld edges; target type "
      "'%s' with %d classes\n",
      static_cast<long long>(graph.TotalNodes()),
      static_cast<long long>(graph.TotalEdges()),
      graph.TypeName(graph.target_type()).c_str(), graph.num_classes());

  // The schema hierarchy drives Algorithm 2: papers bridge authors to
  // terms/venues.
  const auto roles = graph.ClassifySchema();
  for (TypeId t = 0; t < graph.NumNodeTypes(); ++t) {
    const char* role = roles[static_cast<size_t>(t)] == TypeRole::kRoot
                           ? "root"
                           : roles[static_cast<size_t>(t)] ==
                                     TypeRole::kFather
                                 ? "father"
                                 : "leaf";
    std::printf("  type %-7s -> %s\n", graph.TypeName(t).c_str(), role);
  }

  MetaPathOptions mp;
  mp.max_hops = datasets::RecommendedHops("dblp");
  mp.max_paths = 12;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(graph, mp);

  // Condense once.
  core::FreeHgcOptions opts;
  opts.ratio = 0.024;
  static_cast<MetaPathOptions&>(opts) = mp;
  auto condensed = core::Condense(graph, opts);
  if (!condensed.ok()) {
    std::printf("condense failed: %s\n",
                condensed.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\ncondensed to %lld nodes (%.1f%%) in %.2fs; storage %zu -> %zu "
      "bytes\n",
      static_cast<long long>(condensed->graph.TotalNodes()),
      100.0 * condensed->graph.TotalNodes() / graph.TotalNodes(),
      condensed->seconds, graph.MemoryBytes(),
      condensed->graph.MemoryBytes());

  // Reuse the one condensed graph across four HGNN architectures — the
  // "train many models cheaply" workflow that motivates condensation.
  std::printf("\n%-10s %12s %12s\n", "model", "condensed", "whole-graph");
  for (auto kind : {hgnn::HgnnKind::kHGB, hgnn::HgnnKind::kHGT,
                    hgnn::HgnnKind::kHAN, hgnn::HgnnKind::kSeHGNN}) {
    hgnn::HgnnConfig cfg;
    cfg.kind = kind;
    cfg.hidden = 32;
    cfg.epochs = 60;
    cfg.patience = 0;
    const auto small = hgnn::TrainAndEvaluate(ctx, condensed->graph, cfg);
    const auto whole = hgnn::WholeGraphBaseline(ctx, cfg);
    std::printf("%-10s %11.2f%% %11.2f%%  (train %.2fs vs %.2fs)\n",
                hgnn::HgnnKindName(kind), 100.0f * small.test_accuracy,
                100.0f * whole.test_accuracy, small.train_seconds,
                whole.train_seconds);
  }
  return 0;
}
