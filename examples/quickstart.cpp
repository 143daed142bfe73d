// Quickstart: condense a synthetic ACM-style heterogeneous graph with
// FreeHGC and check that an HGNN trained on the condensed graph holds up
// against whole-graph training.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/freehgc.h"
#include "datasets/generator.h"
#include "hgnn/trainer.h"
#include "pipeline/artifact_cache.h"

int main() {
  using namespace freehgc;

  // 1. Load (here: generate) a heterogeneous graph. ACM: papers cite
  //    papers and connect to authors, subjects and terms; papers carry
  //    3-class labels.
  const HeteroGraph graph = datasets::MakeAcm(/*seed=*/42);
  std::printf("ACM-style graph: %lld nodes, %lld edges, %d node types, "
              "%d relations\n",
              static_cast<long long>(graph.TotalNodes()),
              static_cast<long long>(graph.TotalEdges()),
              graph.NumNodeTypes(), graph.NumRelations());

  // 2. Build the evaluation context: meta-paths + pre-propagated features
  //    of the full graph (reused by training and testing).
  MetaPathOptions mp;
  mp.max_hops = datasets::RecommendedHops("acm");
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(graph, mp);
  std::printf("meta-path feature blocks: %zu\n", ctx.full_features.blocks.size());

  // 3. Condense to 2.4%% with FreeHGC — training-free, so this is fast.
  core::FreeHgcOptions opts;
  opts.ratio = 0.024;
  static_cast<MetaPathOptions&>(opts) = mp;
  pipeline::ArtifactCache cache;
  auto condensed = core::Condense(graph, opts, nullptr, &cache);
  if (!condensed.ok()) {
    std::printf("condensation failed: %s\n",
                condensed.status().ToString().c_str());
    return 1;
  }
  std::printf("condensed: %lld nodes (%.2f%%), %lld edges, in %.2fs\n",
              static_cast<long long>(condensed->graph.TotalNodes()),
              100.0 * condensed->graph.TotalNodes() / graph.TotalNodes(),
              static_cast<long long>(condensed->graph.TotalEdges()),
              condensed->seconds);

  // 4. Train an HGNN (SeHGNN-style fusion) on the condensed graph and
  //    evaluate on the full graph's test split.
  hgnn::HgnnConfig cfg;
  cfg.kind = hgnn::HgnnKind::kSeHGNN;
  const hgnn::EvalMetrics small = hgnn::TrainAndEvaluate(ctx, condensed->graph, cfg);
  const hgnn::EvalMetrics whole = hgnn::WholeGraphBaseline(ctx, cfg);
  std::printf("condensed-graph accuracy: %.2f%%  (train %.2fs)\n",
              100.0f * small.test_accuracy, small.train_seconds);
  std::printf("whole-graph accuracy:     %.2f%%  (train %.2fs)\n",
              100.0f * whole.test_accuracy, whole.train_seconds);
  std::printf("retention: %.1f%% of whole-graph accuracy with %.1f%% of "
              "the data\n",
              100.0f * small.test_accuracy / whole.test_accuracy,
              100.0 * condensed->graph.TotalNodes() / graph.TotalNodes());
  return 0;
}
