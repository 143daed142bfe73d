// Figure 8: condensation time of GCond, HGCond and FreeHGC on Freebase,
// MUTAG and AMiner (each method at its best-performing configuration).
// The paper reports FreeHGC up to 4.16x/4.67x (Freebase), 5.73x/6.27x
// (MUTAG) and 3.12x/11.19x (AMiner) faster than GCond/HGCond; the bench
// prints the measured factors.
//
// Every time is the median of kRepeats runs, under two accountings:
//   - shared: each method condenses the prepared dataset on its artifact
//     cache, which is what a served request pays once the propagated
//     features and FreeHGC's selection compositions exist (preparing
//     the dataset composes nothing; FreeHGC's first repeat composes into
//     the cache, so its median is a warm run). The bench exits nonzero
//     unless FreeHGC < GCond < HGCond here on every dataset.
//   - end to end: each method also pays its own preprocessing. GCond and
//     HGCond are charged the median uncached hgnn::BuildEvalContext;
//     FreeHGC runs a cold core::Condense with no cache, which composes
//     its meta-paths (the train-pool rows its selection reads, plus the
//     full products NIM scores). The bench also exits nonzero unless
//     FreeHGC < GCond here on every dataset.
//
// Besides the console table the harness writes BENCH_fig8_efficiency.json
// with the formatted table (TablePrinter::ToJson), the median seconds,
// FreeHGC's per-stage breakdown (metapath / target / father / leaf /
// assemble) for both accountings, and a snapshot of the kernel metrics
// registry — the machine-readable record behind the efficiency claim.
// Run with FREEHGC_TRACE=trace.json to additionally get a Chrome trace of
// every span (see DESIGN.md, "Observability").
#include <algorithm>

#include "bench/bench_common.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/freehgc.h"

using namespace freehgc;
using namespace freehgc::bench;

namespace {

constexpr int kRepeats = 3;

/// Index of the median of `v` (the upper one for even sizes).
size_t MedianIndex(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  return order[order.size() / 2];
}

double Median(const std::vector<double>& v) { return v[MedianIndex(v)]; }

}  // namespace

int main() {
  // Arm the exec.* per-invoke counters so the metrics snapshot in the
  // JSON companion is complete (kernel value counters are always on).
  obs::SetDetailedMetricsEnabled(true);
  PrintHeader("Fig. 8: condensation time comparison");
  TablePrinter table({"Dataset", "GCond", "HGCond", "FreeHGC",
                      "speedup vs GCond", "speedup vs HGCond", "GCond e2e",
                      "HGCond e2e", "FreeHGC e2e"});
  const std::vector<std::pair<std::string, double>> configs = {
      {"freebase", 0.024}, {"mutag", 0.020}, {"aminer", 0.002}};
  const pipeline::MethodRegistry& registry = pipeline::MethodRegistry::Global();
  std::string runs_json;
  std::vector<std::string> unordered, slow_end_to_end;
  for (const auto& [name, ratio] : configs) {
    auto env = MakeEnv(name);
    const HeteroGraph& graph = env->data->graph;
    const hgnn::EvalContext& ctx = env->data->ctx;

    pipeline::RunSpec run;
    run.ratio = ratio;
    core::FreeHgcOptions fopts;
    fopts.ratio = ratio;
    static_cast<MetaPathOptions&>(fopts) = ctx.options;

    std::vector<double> build_s, gcond_s, hgcond_s, free_s, cold_s;
    std::vector<core::StageSeconds> stages, cold_stages;
    for (int rep = 0; rep < kRepeats; ++rep) {
      Timer build_timer;
      hgnn::BuildEvalContext(graph, ctx.options, env->env.exec);
      build_s.push_back(build_timer.ElapsedSeconds());
      for (const std::string key : {"gcond", "hgcond"}) {
        auto res = registry.Find(key)->Condense(ctx, run, env->env);
        FREEHGC_CHECK(res.ok()) << key << ": " << res.status().ToString();
        (key == "gcond" ? gcond_s : hgcond_s).push_back(res->seconds);
      }

      auto shared = core::Condense(graph, fopts, env->env.exec, env->env.cache);
      auto cold = core::Condense(graph, fopts);
      FREEHGC_CHECK(shared.ok() && cold.ok());
      free_s.push_back(shared->seconds);
      stages.push_back(shared->stage_seconds);
      cold_s.push_back(cold->seconds);
      cold_stages.push_back(cold->stage_seconds);
    }

    const double gcond = Median(gcond_s), hgcond = Median(hgcond_s),
                 free = Median(free_s), build = Median(build_s);
    const double free_e2e = Median(cold_s);
    if (!(free < gcond && gcond < hgcond)) unordered.push_back(name);
    if (!(free_e2e < build + gcond)) slow_end_to_end.push_back(name);
    table.AddRow({name, StrFormat("%.3fs", gcond), StrFormat("%.3fs", hgcond),
                  StrFormat("%.3fs", free), StrFormat("%.2fx", gcond / free),
                  StrFormat("%.2fx", hgcond / free),
                  StrFormat("%.3fs", build + gcond),
                  StrFormat("%.3fs", build + hgcond),
                  StrFormat("%.3fs", free_e2e)});
    if (!runs_json.empty()) runs_json += ",\n";
    runs_json += StrFormat(
        "    {\"dataset\": \"%s\", \"ratio\": %.4f, "
        "\"gcond_seconds\": %.6f, \"hgcond_seconds\": %.6f, "
        "\"freehgc_seconds\": %.6f, \"freehgc_stage_seconds\": %s, "
        "\"evalctx_build_seconds\": %.6f, "
        "\"gcond_end_to_end_seconds\": %.6f, "
        "\"hgcond_end_to_end_seconds\": %.6f, "
        "\"freehgc_end_to_end_seconds\": %.6f, "
        "\"freehgc_end_to_end_stage_seconds\": %s}",
        name.c_str(), ratio, gcond, hgcond, free,
        StageSecondsJson(stages[MedianIndex(free_s)]).c_str(),
        build, build + gcond, build + hgcond, free_e2e,
        StageSecondsJson(cold_stages[MedianIndex(cold_s)]).c_str());
  }
  table.Print();
  WriteTextFile("BENCH_fig8_efficiency.json",
                StrFormat("{\n  \"threads\": %d,\n  \"repeats\": %d,\n"
                          "  \"ordered\": %s,\n"
                          "  \"end_to_end_ahead\": %s,\n"
                          "  \"table\": %s,\n"
                          "  \"runs\": [\n%s\n  ],\n"
                          "  \"metrics\": %s\n}\n",
                          BenchThreads(), kRepeats,
                          unordered.empty() ? "true" : "false",
                          slow_end_to_end.empty() ? "true" : "false",
                          table.ToJson().c_str(), runs_json.c_str(),
                          MetricsSnapshotJson().c_str()));
  int status = 0;
  if (!unordered.empty()) {
    std::printf("FAIL: FreeHGC < GCond < HGCond (shared medians) does not "
                "hold on %s\n",
                Join(unordered, ", ").c_str());
    status = 1;
  } else {
    std::printf("PASS: FreeHGC < GCond < HGCond (shared medians) on every "
                "dataset\n");
  }
  if (!slow_end_to_end.empty()) {
    std::printf("FAIL: FreeHGC e2e < GCond e2e does not hold on %s\n",
                Join(slow_end_to_end, ", ").c_str());
    status = 1;
  } else {
    std::printf("PASS: FreeHGC e2e < GCond e2e on every dataset\n");
  }
  return status;
}
