// Scenario: a streaming service classifies movies into genres on an
// IMDB-style movie/director/actor/keyword graph, under a storage budget.
// Because FreeHGC is training-free, sweeping the condensation ratio is
// cheap: the example finds the smallest condensed graph that retains a
// target fraction of whole-graph accuracy (the flexible-ratio property of
// the paper's Fig. 7).
//
//   ./build/examples/movie_recommendation

#include <cstdio>
#include <string>

#include "core/freehgc.h"
#include "datasets/generator.h"
#include "hgnn/trainer.h"

int main() {
  using namespace freehgc;

  const HeteroGraph graph = datasets::MakeImdb(/*seed=*/11);
  std::printf("IMDB-style graph: %lld nodes, %lld edges, %d genres\n",
              static_cast<long long>(graph.TotalNodes()),
              static_cast<long long>(graph.TotalEdges()),
              graph.num_classes());

  MetaPathOptions mp;
  mp.max_hops = datasets::RecommendedHops("imdb");
  mp.max_paths = 12;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(graph, mp);

  hgnn::HgnnConfig cfg;
  cfg.hidden = 32;
  cfg.epochs = 60;
  cfg.patience = 0;
  const auto whole = hgnn::WholeGraphBaseline(ctx, cfg);
  std::printf("whole-graph accuracy: %.2f%% (training took %.2fs)\n\n",
              100.0f * whole.test_accuracy, whole.train_seconds);

  constexpr float kRetentionTarget = 0.95f;  // keep 95% of whole accuracy
  std::printf("%-8s %10s %10s %10s %12s\n", "ratio", "nodes", "accuracy",
              "retention", "condense(s)");
  for (double ratio : {0.012, 0.024, 0.048, 0.096, 0.12}) {
    core::FreeHgcOptions opts;
    opts.ratio = ratio;
    static_cast<MetaPathOptions&>(opts) = mp;
    auto condensed = core::Condense(graph, opts);
    if (!condensed.ok()) continue;
    const auto metrics = hgnn::TrainAndEvaluate(ctx, condensed->graph, cfg);
    const float retention = metrics.test_accuracy / whole.test_accuracy;
    std::printf("%-8s %10lld %9.2f%% %9.1f%% %12.2f%s\n",
                (std::to_string(100 * ratio).substr(0, 4) + "%").c_str(),
                static_cast<long long>(condensed->graph.TotalNodes()),
                100.0f * metrics.test_accuracy, 100.0f * retention,
                condensed->seconds,
                retention >= kRetentionTarget ? "  <- meets target" : "");
    if (retention >= kRetentionTarget) {
      std::printf(
          "\nsmallest graph meeting the %.0f%% retention target: %.1f%% of "
          "the data (%zu bytes instead of %zu)\n",
          100.0f * kRetentionTarget, 100 * ratio,
          condensed->graph.MemoryBytes(), graph.MemoryBytes());
      break;
    }
  }
  return 0;
}
