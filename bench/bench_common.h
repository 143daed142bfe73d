#ifndef FREEHGC_BENCH_BENCH_COMMON_H_
#define FREEHGC_BENCH_BENCH_COMMON_H_

// Shared setup for the per-table/figure benchmark harnesses. Every bench
// generates its synthetic datasets, runs the methods, and prints rows in
// the same structure as the corresponding table or figure of the paper
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "datasets/generator.h"
#include "exec/exec_context.h"
#include "hgnn/trainer.h"
#include "obs/metrics.h"
#include "pipeline/sweep.h"

namespace freehgc::bench {

/// Worker count every bench harness runs with: the FREEHGC_THREADS
/// environment override when set, hardware concurrency otherwise (the
/// same resolution ExecContext applies). Results are bit-identical for
/// any value; only wall-clock changes.
inline int BenchThreads() { return exec::DefaultExec().num_threads(); }

/// A dataset prepared by pipeline::PrepareDataset over its own artifact
/// cache. Benches pass `env` to every method run on it, so each run
/// reuses the dataset's propagated features and the meta-paths FreeHGC
/// composed on its first run, as a served request does.
struct Env {
  pipeline::ArtifactCache cache;
  pipeline::PipelineEnv env{nullptr, &cache};
  std::unique_ptr<pipeline::PreparedDataset> data;
};

/// Prepares preset `name`; `scale` <= 0 = pipeline::DefaultDatasetScale.
inline std::unique_ptr<Env> MakeEnv(const std::string& name,
                                    double scale = -1.0) {
  auto env = std::make_unique<Env>();
  pipeline::DatasetSpec spec;
  spec.name = name;
  spec.scale = scale;
  auto data = pipeline::PrepareDataset(spec, env->env);
  FREEHGC_CHECK(data.ok());
  env->data = std::move(data).value();
  return env;
}

/// Default seed set for mean ± std aggregation (the paper uses 5 seeds; 3
/// keeps the full suite within the 1-core budget).
inline std::vector<uint64_t> Seeds() { return {1, 2, 3}; }

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::fflush(stdout);
}

/// JSON object for a Condense stage breakdown, keyed like the paper's
/// pipeline stages. Benches embed this next to the opaque `seconds` so
/// BENCH_*.json attributes condensation time instead of just totaling it.
inline std::string StageSecondsJson(const core::StageSeconds& s) {
  return StrFormat(
      "{\"metapath\": %.6f, \"target\": %.6f, \"father\": %.6f, "
      "\"leaf\": %.6f, \"assemble\": %.6f, \"total\": %.6f}",
      s.metapath, s.target, s.father, s.leaf, s.assemble, s.Total());
}

/// Snapshot of every registered counter/gauge/histogram, as a JSON
/// object (see obs::MetricsRegistry::DumpJson for the schema).
inline std::string MetricsSnapshotJson() {
  return obs::MetricsRegistry::Global().DumpJson();
}

/// Writes `content` to `path`, logging on failure. Bench harnesses use
/// this for their machine-readable BENCH_*.json companions.
inline bool WriteTextFile(const std::string& path,
                          const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    FREEHGC_LOG(Warning) << "cannot write " << path;
    return false;
  }
  out << content;
  return true;
}

}  // namespace freehgc::bench

#endif  // FREEHGC_BENCH_BENCH_COMMON_H_
