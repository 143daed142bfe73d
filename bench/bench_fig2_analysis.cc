// Figure 2 (Section III empirical analysis).
//   (a) Low effectiveness: HGCond accuracy on ACM and IMDB stays flat or
//       degrades as r grows from 1.2% to 7.2% and never reaches the ideal
//       (whole-graph SeHGNN) accuracy, across four evaluator HGNNs.
//   (b) Low efficiency: condensation time of GCond vs HGCond grows with
//       the condensed-graph size, with HGCond consistently slower
//       (clustering init + OPS parameter exploration), on Freebase and
//       AMiner.
#include "bench/bench_common.h"
#include "common/string_util.h"

using namespace freehgc;
using namespace freehgc::bench;

int main() {
  PrintHeader("Fig. 2(a): HGCond accuracy vs ratio (flat/degrading)");
  const hgnn::HgnnConfig eval_cfg = pipeline::SweepSpec::DefaultEvalConfig();
  for (const std::string name : {"acm", "imdb"}) {
    auto env = MakeEnv(name);
    const hgnn::EvalContext& ctx = env->data->ctx;
    const auto ideal = hgnn::WholeGraphBaseline(ctx, eval_cfg);
    std::printf("%s ideal (whole-graph SeHGNN): %.2f\n", name.c_str(),
                100.0f * ideal.test_accuracy);
    TablePrinter table({"Evaluator", "r=1.2%", "r=2.4%", "r=4.8%", "r=7.2%"});
    for (auto kind : {hgnn::HgnnKind::kHeteroSGC, hgnn::HgnnKind::kHGT,
                      hgnn::HgnnKind::kHGB, hgnn::HgnnKind::kSeHGNN}) {
      hgnn::HgnnConfig cfg = eval_cfg;
      cfg.kind = kind;
      std::vector<std::string> row = {
          std::string("HGC-") + hgnn::HgnnKindName(kind)};
      for (double r : {0.012, 0.024, 0.048, 0.072}) {
        pipeline::RunSpec run;
        run.ratio = r;
        const auto agg =
            pipeline::RunMethodSeeds(ctx, "hgcond", run, cfg, {1, 2}, env->env);
        row.push_back(StrFormat("%.1f", agg.accuracy.mean));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }

  PrintHeader("Fig. 2(b): GCond vs HGCond condensation time vs size");
  for (const std::string name : {"freebase", "aminer"}) {
    auto env = MakeEnv(name, name == "aminer" ? 0.3 : 1.0);
    TablePrinter table({"Method", "r=1.2%", "r=2.4%", "r=4.8%", "r=9.6%"});
    for (const std::string key : {"gcond", "hgcond"}) {
      const pipeline::CondensationMethod* method =
          pipeline::MethodRegistry::Global().Find(key);
      std::vector<std::string> row = {method->display_name()};
      for (double r : {0.012, 0.024, 0.048, 0.096}) {
        pipeline::RunSpec run;
        run.ratio = r;
        auto res = method->Condense(env->data->ctx, run, env->env);
        row.push_back(res.ok() ? StrFormat("%.2fs", res->seconds) : "err");
      }
      table.AddRow(std::move(row));
    }
    std::printf("%s:\n", name.c_str());
    table.Print();
  }
  return 0;
}
