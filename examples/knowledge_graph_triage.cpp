// Scenario: an RDF knowledge graph (MUTAG-style, 46 edge types) must be
// shipped to an edge device for entity classification, where only a tiny
// fraction of the graph fits. The example compares condensation methods
// head-to-head at r = 1% — the Table V setting — and inspects what each
// condensed graph looks like.
//
//   ./build/examples/knowledge_graph_triage

#include <cstdio>

#include "baselines/coreset.h"
#include "baselines/gradient_matching.h"
#include "core/freehgc.h"
#include "datasets/generator.h"
#include "hgnn/trainer.h"
#include "pipeline/artifact_cache.h"

int main() {
  using namespace freehgc;

  const HeteroGraph graph = datasets::MakeMutag(/*seed=*/3);
  std::printf(
      "MUTAG-style knowledge graph: %lld nodes, %lld edges, %d node types, "
      "%d relations\n",
      static_cast<long long>(graph.TotalNodes()),
      static_cast<long long>(graph.TotalEdges()), graph.NumNodeTypes(),
      graph.NumRelations());

  MetaPathOptions mp;
  mp.max_hops = datasets::RecommendedHops("mutag");
  mp.max_paths = 12;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(graph, mp);
  hgnn::HgnnConfig cfg;
  cfg.hidden = 32;
  cfg.epochs = 60;
  cfg.patience = 0;
  const auto whole = hgnn::WholeGraphBaseline(ctx, cfg);
  std::printf("whole-graph accuracy: %.2f%%\n\n",
              100.0f * whole.test_accuracy);

  const double ratio = 0.01;

  // Herding coreset.
  {
    auto res = baselines::CoresetCondense(
        ctx, baselines::CoresetKind::kHerding, ratio, /*seed=*/1);
    if (res.ok()) {
      const auto m = hgnn::TrainAndEvaluate(ctx, res->graph, cfg);
      std::printf("Herding-HG : %.2f%%  (condense %.2fs, %zu bytes)\n",
                  100.0f * m.test_accuracy, res->seconds,
                  res->graph.MemoryBytes());
    }
  }
  // HGCond gradient matching.
  {
    baselines::GradientMatchingOptions gm;
    gm.ratio = ratio;
    gm.hetero = true;
    auto res = baselines::GradientMatchingCondense(ctx, gm);
    if (res.ok()) {
      const auto m = hgnn::TrainOnBlocks(ctx, res->blocks, res->labels, cfg);
      std::printf("HGCond     : %.2f%%  (condense %.2fs, %zu bytes)\n",
                  100.0f * m.test_accuracy, res->seconds,
                  res->MemoryBytes());
    }
  }
  // FreeHGC.
  {
    core::FreeHgcOptions opts;
    opts.ratio = ratio;
    static_cast<MetaPathOptions&>(opts) = mp;
    pipeline::ArtifactCache cache;
    auto res = core::Condense(graph, opts, nullptr, &cache);
    if (res.ok()) {
      const auto m = hgnn::TrainAndEvaluate(ctx, res->graph, cfg);
      std::printf("FreeHGC    : %.2f%%  (condense %.2fs, %zu bytes)\n",
                  100.0f * m.test_accuracy, res->seconds,
                  res->graph.MemoryBytes());
      std::printf("\nFreeHGC condensed graph per-type counts:\n");
      for (TypeId t = 0; t < res->graph.NumNodeTypes(); ++t) {
        std::printf("  %-10s %6d -> %4d\n", graph.TypeName(t).c_str(),
                    graph.NodeCount(t), res->graph.NodeCount(t));
      }
    }
  }
  return 0;
}
