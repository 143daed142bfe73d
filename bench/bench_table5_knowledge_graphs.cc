// Table V: node classification on the knowledge graphs MUTAG
// (r = {0.5, 1.0, 2.0}%) and AM (r = {0.2, 0.4, 0.8}%), comparing
// Herding-HG, GCond, HGCond and FreeHGC against the whole-graph accuracy.
#include "bench/bench_common.h"
#include "common/string_util.h"

using namespace freehgc;
using namespace freehgc::bench;

int main() {
  PrintHeader("Table V: knowledge graphs MUTAG & AM (accuracy %)");
  const std::vector<std::pair<std::string, std::vector<double>>> configs = {
      {"mutag", {0.005, 0.010, 0.020}},
      {"am", {0.002, 0.004, 0.008}},
  };
  const std::vector<std::string> methods = {"herding", "gcond", "hgcond",
                                            "freehgc"};
  const hgnn::HgnnConfig cfg = pipeline::SweepSpec::DefaultEvalConfig();

  for (const auto& [name, ratios] : configs) {
    auto env = MakeEnv(name);
    const hgnn::EvalContext& ctx = env->data->ctx;
    const auto whole = hgnn::WholeGraphBaseline(ctx, cfg);
    std::printf("%s (Whole ACC: %.2f)\n", name.c_str(),
                100.0f * whole.test_accuracy);

    std::vector<std::string> headers = {"Method"};
    for (double r : ratios) headers.push_back(StrFormat("r=%.1f%%", 100 * r));
    TablePrinter table(std::move(headers));
    for (const std::string& m : methods) {
      std::vector<std::string> row = {pipeline::DisplayName(m)};
      for (double r : ratios) {
        pipeline::RunSpec run;
        run.ratio = r;
        const auto agg =
            pipeline::RunMethodSeeds(ctx, m, run, cfg, Seeds(), env->env);
        row.push_back(agg.oom ? "OOM" : pipeline::Cell(agg.accuracy));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
  return 0;
}
