// Table VIII: ablation study of FreeHGC's two components on ACM, DBLP and
// AMiner.
//   Condense target-type:  Variant#1 = no receptive-field maximization,
//                          Variant#2 = no meta-path similarity
//                          minimization, Variant#3 = Herding for targets.
//   Condense other-types:  Variant#4 = NIM only (Herding for leaves),
//                          Variant#5 = ILM only (Herding for fathers),
//                          Variant#6 = Herding for both.
// Delta columns report the drop relative to the full FreeHGC baseline.
#include "bench/bench_common.h"
#include "common/string_util.h"
#include "core/freehgc.h"

using namespace freehgc;
using namespace freehgc::bench;

namespace {

double RunVariant(const Env& env, double ratio,
                  const core::FreeHgcOptions& base) {
  std::vector<double> accs;
  for (uint64_t seed : Seeds()) {
    pipeline::RunSpec run;
    run.ratio = ratio;
    run.seed = seed;
    run.freehgc = base;
    auto res = pipeline::RunMethod(env.data->ctx, "freehgc", run,
                                   pipeline::SweepSpec::DefaultEvalConfig(),
                                   env.env);
    if (res.ok()) accs.push_back(res->accuracy);
  }
  return pipeline::Aggregate(accs).mean;
}

}  // namespace

int main() {
  PrintHeader("Table VIII: ablation study (accuracy %, Delta vs FreeHGC)");
  const std::vector<std::pair<std::string, std::vector<double>>> configs = {
      {"acm", {0.012, 0.024, 0.048}},
      {"dblp", {0.012, 0.024, 0.048}},
      {"aminer", {0.0005, 0.002, 0.008}},
  };

  struct Variant {
    std::string name;
    core::FreeHgcOptions opts;
  };
  std::vector<Variant> variants(7);
  variants[0].name = "FreeHGC";
  variants[1].name = "Variant#1 (no RF max)";
  variants[1].opts.target.use_receptive_field = false;
  variants[2].name = "Variant#2 (no J min)";
  variants[2].opts.target.use_jaccard = false;
  variants[3].name = "Variant#3 (Herding tgt)";
  variants[3].opts.target_strategy = core::TargetStrategy::kHerding;
  variants[4].name = "Variant#4 (NIM only)";
  variants[4].opts.leaf_strategy = core::LeafStrategy::kHerding;
  variants[5].name = "Variant#5 (ILM only)";
  variants[5].opts.father_strategy = core::FatherStrategy::kHerding;
  variants[6].name = "Variant#6 (Herding oth)";
  variants[6].opts.father_strategy = core::FatherStrategy::kHerding;
  variants[6].opts.leaf_strategy = core::LeafStrategy::kHerding;

  for (const auto& [name, ratios] : configs) {
    auto env = MakeEnv(name);
    std::vector<std::string> headers = {name};
    for (double r : ratios) {
      headers.push_back(StrFormat("r=%.2f%%", 100 * r));
      headers.push_back("Delta");
    }
    TablePrinter table(std::move(headers));

    std::vector<double> baseline;
    for (double r : ratios) {
      baseline.push_back(RunVariant(*env, r, variants[0].opts));
    }
    std::vector<std::string> base_row = {"FreeHGC (baseline)"};
    for (double acc : baseline) {
      base_row.push_back(StrFormat("%.1f", acc));
      base_row.push_back("");
    }
    table.AddRow(std::move(base_row));

    for (size_t v = 1; v < variants.size(); ++v) {
      std::vector<std::string> row = {variants[v].name};
      for (size_t i = 0; i < ratios.size(); ++i) {
        const double acc = RunVariant(*env, ratios[i], variants[v].opts);
        row.push_back(StrFormat("%.1f", acc));
        row.push_back(StrFormat("%+.1f", acc - baseline[i]));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
  return 0;
}
