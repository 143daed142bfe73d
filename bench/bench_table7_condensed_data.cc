// Table VII: condensed graphs vs original graphs — test accuracy, storage
// footprint, and HGNN training time (TH = training the HGB-style model,
// TS = training the SeHGNN-style model) for Whole / HGCond / FreeHGC.
#include "baselines/gradient_matching.h"
#include "bench/bench_common.h"
#include "common/string_util.h"
#include "core/freehgc.h"

using namespace freehgc;
using namespace freehgc::bench;

namespace {

struct Cells {
  std::string acc, storage, th, ts;
};

Cells Measure(const Env& env, const std::vector<Matrix>* blocks,
              const std::vector<int32_t>* labels,
              const HeteroGraph* subgraph, size_t storage_bytes) {
  Cells out;
  out.storage = HumanBytes(storage_bytes);
  for (auto kind : {hgnn::HgnnKind::kHGB, hgnn::HgnnKind::kSeHGNN}) {
    hgnn::HgnnConfig cfg = pipeline::SweepSpec::DefaultEvalConfig();
    cfg.kind = kind;
    hgnn::EvalMetrics m;
    if (subgraph != nullptr) {
      m = hgnn::TrainAndEvaluate(env.data->ctx, *subgraph, cfg, env.env.exec);
    } else {
      m = hgnn::TrainOnBlocks(env.data->ctx, *blocks, *labels, cfg,
                              env.env.exec);
    }
    if (kind == hgnn::HgnnKind::kHGB) {
      out.th = StrFormat("%.2fs", m.train_seconds);
    } else {
      out.ts = StrFormat("%.2fs", m.train_seconds);
      out.acc = StrFormat("%.2f", m.test_accuracy * 100.0f);
    }
  }
  return out;
}

}  // namespace

int main() {
  PrintHeader(
      "Table VII: condensed vs original graphs (accuracy / storage / "
      "train time)");
  const std::vector<std::pair<std::string, double>> configs = {
      {"acm", 0.024},  {"dblp", 0.024},   {"imdb", 0.024},
      {"freebase", 0.024}, {"aminer", 0.002},
  };
  TablePrinter table({"Dataset", "Variant", "Accuracy", "Storage", "TH",
                      "TS"});
  for (const auto& [name, ratio] : configs) {
    auto env = MakeEnv(name);
    const HeteroGraph& graph = env->data->graph;
    const hgnn::EvalContext& ctx = env->data->ctx;

    // Whole graph.
    const Cells whole =
        Measure(*env, nullptr, nullptr, &graph, graph.MemoryBytes());
    table.AddRow({name + StrFormat(" r=%.1f%%", 100 * ratio), "Whole",
                  whole.acc, whole.storage, whole.th, whole.ts});

    // HGCond synthetic data.
    baselines::GradientMatchingOptions gm;
    gm.ratio = ratio;
    gm.hetero = true;
    gm.relay_inits = 5;
    gm.inner_iters = 6;
    gm.seed = 1;
    auto syn = baselines::GradientMatchingCondense(ctx, gm, env->env.exec);
    if (syn.ok()) {
      const Cells hg = Measure(*env, &syn->blocks, &syn->labels, nullptr,
                               syn->MemoryBytes());
      table.AddRow({"", "HGCond", hg.acc, hg.storage, hg.th, hg.ts});
    }

    // FreeHGC condensed graph.
    core::FreeHgcOptions fopts;
    fopts.ratio = ratio;
    static_cast<MetaPathOptions&>(fopts) = ctx.options;
    auto cond = core::Condense(graph, fopts, env->env.exec, env->env.cache);
    if (cond.ok()) {
      const Cells fr = Measure(*env, nullptr, nullptr, &cond->graph,
                               cond->graph.MemoryBytes());
      table.AddRow({"", "FreeHGC", fr.acc, fr.storage, fr.th, fr.ts});
    }
  }
  table.Print();
  std::printf(
      "Note: HGCond stores dense synthetic feature blocks; FreeHGC stores "
      "a sparse subgraph, hence the smaller footprint (paper Section "
      "V-H).\n");
  return 0;
}
