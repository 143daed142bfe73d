// Table I (Section III empirical analysis): HGCond's poor generalization
// across HGNN models at r = 2.4%. The HSGC-relay condensed data is
// evaluated with HeteroSGC, HGT, HGB and SeHGNN and compared against each
// model's whole-graph accuracy ("WA"); the gap grows when the relay and
// the evaluation model differ — the motivation for a model-agnostic
// condenser.
#include "bench/bench_common.h"
#include "common/string_util.h"

using namespace freehgc;
using namespace freehgc::bench;

int main() {
  PrintHeader("Table I: HGCond generalization gap (accuracy % | WA)");
  const std::vector<std::string> datasets = {"acm", "dblp", "imdb",
                                             "freebase"};
  const std::vector<hgnn::HgnnKind> models = {
      hgnn::HgnnKind::kHeteroSGC, hgnn::HgnnKind::kHGT,
      hgnn::HgnnKind::kHGB, hgnn::HgnnKind::kSeHGNN};

  TablePrinter table(
      {"Dataset", "HSGC", "WA", "HGT", "WA", "HGB", "WA", "SeH", "WA"});
  for (const auto& name : datasets) {
    auto env = MakeEnv(name);
    const hgnn::EvalContext& ctx = env->data->ctx;
    std::vector<std::string> row = {name};
    for (auto kind : models) {
      hgnn::HgnnConfig cfg = pipeline::SweepSpec::DefaultEvalConfig();
      cfg.kind = kind;
      std::vector<double> accs;
      for (uint64_t seed : Seeds()) {
        pipeline::RunSpec run;
        run.ratio = 0.024;
        run.seed = seed;
        auto res = pipeline::RunMethod(ctx, "hgcond", run, cfg, env->env);
        if (res.ok() && !res->oom) accs.push_back(res->accuracy);
      }
      const auto whole = hgnn::WholeGraphBaseline(ctx, cfg);
      row.push_back(StrFormat("%.1f", pipeline::Aggregate(accs).mean));
      row.push_back(StrFormat("%.1f", 100.0f * whole.test_accuracy));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}
