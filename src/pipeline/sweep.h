#ifndef FREEHGC_PIPELINE_SWEEP_H_
#define FREEHGC_PIPELINE_SWEEP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "hgnn/models.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/method.h"

namespace freehgc::pipeline {

/// One dataset of a sweep grid: a preset name plus the ratios to condense
/// it at and the evaluation-context knobs the benches vary.
struct DatasetSpec {
  std::string name;
  std::vector<double> ratios;
  /// Preset scale; <= 0 = the repo default (AMiner halved, rest 1.0).
  double scale = -1.0;
  /// Cap on enumerated meta-paths (PrepareDataset's MetaPathOptions).
  int max_paths = 12;
  /// Meta-path hops; <= 0 = min(3, datasets::RecommendedHops(name)).
  int max_hops = -1;
  /// Generator seed (fixed across the grid: the test graph never changes).
  uint64_t graph_seed = 1;
};

/// A generated dataset and its evaluation context. `ctx.full` points at
/// `graph`, so the object stays where PrepareDataset put it.
struct PreparedDataset {
  PreparedDataset() = default;
  PreparedDataset(const PreparedDataset&) = delete;
  PreparedDataset& operator=(const PreparedDataset&) = delete;

  HeteroGraph graph;
  hgnn::EvalContext ctx;
};

/// Generates `ds` and builds its evaluation context: the preset at
/// `ds.scale` (or DefaultDatasetScale), meta-paths of `ds.max_hops` hops
/// (or min(3, RecommendedHops)), capped at `ds.max_paths`, built by
/// BuildEvalContext on `env`: with `env.cache` the context aliases the
/// cache's propagated blocks (preparing composes no meta-path; FreeHGC
/// composes its own on its first run on the env). The sweep and the
/// paper benches prepare their datasets here.
Result<std::unique_ptr<PreparedDataset>> PrepareDataset(
    const DatasetSpec& ds, const PipelineEnv& env = {});

/// Declarative sweep grid: dataset × ratio × method × model, each cell
/// aggregated over `seeds`. The benches are thin configurations of this.
struct SweepSpec {
  std::vector<DatasetSpec> datasets;
  /// Registry keys ("random", "herding", ..., "freehgc").
  std::vector<std::string> methods;
  std::vector<uint64_t> seeds = {1, 2, 3};
  /// Evaluator models; the eval config's kind is overridden per model.
  std::vector<hgnn::HgnnKind> models = {hgnn::HgnnKind::kSeHGNN};
  /// Also train-and-test on the whole graph, once per (dataset, model).
  bool whole_graph_baseline = false;
  /// Per-cell knobs; ratio and seed are overwritten by the grid.
  RunSpec base;
  /// Evaluator config shared by every cell (kind overridden per model).
  /// Defaults mirror the bench harnesses: SeHGNN, hidden 32, 60 epochs.
  hgnn::HgnnConfig eval_cfg = DefaultEvalConfig();
  /// When no external cache is supplied via PipelineEnv, whether the
  /// runner creates its own ArtifactCache (false = run fully uncached —
  /// the determinism tests compare this against a cached run).
  bool use_cache = true;

  static hgnn::HgnnConfig DefaultEvalConfig();
};

/// One aggregated grid cell.
struct SweepCell {
  std::string dataset;
  double ratio = 0.0;
  std::string method;  // registry key
  std::string model;   // HgnnKindName
  AggregatedRun agg;
  /// End-to-end wall-clock of the cell (all seeds: condense + train).
  double wall_seconds = 0.0;
};

/// Whole-graph baseline for one (dataset, model).
struct WholeCell {
  std::string dataset;
  std::string model;
  hgnn::EvalMetrics metrics;
};

/// Grid output plus the sweep-wide cache/timing record.
struct SweepResult {
  std::vector<SweepCell> cells;
  std::vector<WholeCell> wholes;
  /// Cache activity during this sweep (delta when an external cache was
  /// passed in; all-zero for uncached runs).
  ArtifactCache::Stats cache_stats;
  double total_seconds = 0.0;
  int threads = 0;

  /// Null when the cell is not in the grid. Matches ratio exactly (cells
  /// carry the spec's ratio values verbatim).
  const SweepCell* Find(const std::string& dataset, double ratio,
                        const std::string& method,
                        const std::string& model) const;
  const WholeCell* FindWhole(const std::string& dataset,
                             const std::string& model) const;

  /// Machine-readable record. The "cells"/"whole" sections contain only
  /// deterministic values (accuracies, storage, oom flags) — cached vs
  /// uncached and cold vs warm runs produce them byte-identically, which
  /// the CI cold/warm step diffs. Wall-clock and cache activity live in
  /// the separate "timing"/"cache" sections.
  std::string ToJson() const;
};

/// Executes a SweepSpec over one shared execution context and artifact
/// cache. Deterministic iteration order: dataset, then model, then ratio,
/// then method, then seeds; every cell value is bit-identical for any
/// thread count and for cached vs uncached execution.
class SweepRunner {
 public:
  /// `env.exec` null = process-default pool; `env.cache` null = the runner
  /// makes its own cache (or none, when !spec.use_cache). The runner keeps
  /// its own cache across Run() calls, so repeated Run()s warm-start.
  explicit SweepRunner(SweepSpec spec, PipelineEnv env = {});

  Result<SweepResult> Run();

  const SweepSpec& spec() const { return spec_; }

  /// The cache Run() uses (owned or external); null when uncached.
  ArtifactCache* cache();

 private:
  SweepSpec spec_;
  PipelineEnv env_;
  std::unique_ptr<ArtifactCache> owned_cache_;
};

/// Repo-default dataset scale (AMiner halved to fit the 1-core budget).
double DefaultDatasetScale(const std::string& name);

/// Prints one paper-style table per (dataset, model): rows are ratios,
/// columns are method display names, plus a Whole Dataset column when the
/// sweep ran baselines (the Table III / Fig. 7 shape).
void PrintRatioTables(const SweepResult& result, const SweepSpec& spec);

/// Prints one table per dataset at `ratio`: rows are methods, columns are
/// models plus Condensed Avg. (and Whole Avg. when baselines ran) — the
/// Table IV generalization shape.
void PrintModelTables(const SweepResult& result, const SweepSpec& spec,
                      double ratio);

}  // namespace freehgc::pipeline

#endif  // FREEHGC_PIPELINE_SWEEP_H_
