// Extension bench (paper Section IV-C remark): neighbor influence
// maximization with alternative node-importance functions. The paper uses
// Personalized PageRank and notes degree/betweenness/closeness centrality
// and hubs-and-authorities as drop-in replacements; this bench compares
// them (accuracy and NIM scoring time) on DBLP and AMiner at r = 2.4%.
#include "bench/bench_common.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/freehgc.h"

using namespace freehgc;
using namespace freehgc::bench;

int main() {
  PrintHeader("Extension: NIM with alternative importance functions");
  for (const std::string name : {"dblp", "aminer"}) {
    auto env = MakeEnv(name);
    std::printf("%s (r = 2.4%%):\n", name.c_str());
    TablePrinter table({"Scorer", "Accuracy", "Condense time"});
    for (auto scorer :
         {core::NimScorer::kPprPowerIteration, core::NimScorer::kPprPush,
          core::NimScorer::kDegree, core::NimScorer::kCloseness,
          core::NimScorer::kBetweenness, core::NimScorer::kHubs,
          core::NimScorer::kAuthorities}) {
      std::vector<double> accs;
      double seconds = 0.0;
      for (uint64_t seed : Seeds()) {
        pipeline::RunSpec run;
        run.ratio = 0.024;
        run.seed = seed;
        run.freehgc.nim.scorer = scorer;
        auto res = pipeline::RunMethod(
            env->data->ctx, "freehgc", run,
            pipeline::SweepSpec::DefaultEvalConfig(), env->env);
        if (res.ok()) {
          accs.push_back(res->accuracy);
          seconds += res->condense_seconds;
        }
      }
      table.AddRow({core::NimScorerName(scorer),
                    pipeline::Cell(pipeline::Aggregate(accs)),
                    StrFormat("%.2fs", seconds / Seeds().size())});
    }
    table.Print();
  }
  return 0;
}
