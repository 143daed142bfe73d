#ifndef FREEHGC_PIPELINE_METHOD_H_
#define FREEHGC_PIPELINE_METHOD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/gradient_matching.h"
#include "common/result.h"
#include "core/freehgc.h"
#include "exec/exec_context.h"
#include "hgnn/trainer.h"
#include "pipeline/artifact_cache.h"

namespace freehgc::pipeline {

/// Shared substrate a sweep threads through every cell: one execution
/// context (thread pool) and one artifact cache. Both borrowed, both
/// optional — null exec resolves to the process-default pool inside each
/// kernel, null cache means every cell recomputes from scratch. Cached and
/// uncached runs are bit-identical (the cache's determinism invariant).
struct PipelineEnv {
  exec::ExecContext* exec = nullptr;
  ArtifactCache* cache = nullptr;
};

/// Builds the evaluation context of `graph` (which must outlive it).
/// Without `env.cache` this is hgnn::BuildEvalContext. With it, the cache
/// owns the propagated blocks: they come from ArtifactCache::Propagated,
/// mapped blocks are copied as they are (sharing the mapping), and owned
/// blocks become zero-copy views that pin the cache entry for the
/// context's lifetime. `propagated` (optional) reports whether this call
/// ran the propagation rather than reusing the cache's blocks.
hgnn::EvalContext BuildEvalContext(const HeteroGraph& graph,
                                   const MetaPathOptions& opts,
                                   const PipelineEnv& env,
                                   bool* propagated = nullptr);

/// Knobs shared by every method in a sweep (per-cell: ratio + seed; the
/// rest is method configuration a sweep holds fixed).
struct RunSpec {
  double ratio = 0.024;
  uint64_t seed = 1;
  /// FreeHGC configuration. ratio and seed come from this spec; its
  /// MetaPathOptions base comes from the EvalContext.
  core::FreeHgcOptions freehgc;
  /// Gradient-matching configuration (ratio/seed/hetero overwritten).
  baselines::GradientMatchingOptions gm;
  int coarsening_rounds = 3;
};

/// What a condensation method produces: either a condensed subgraph
/// (selection/coarsening family, evaluated via TrainAndEvaluate) or
/// synthetic pre-propagated feature blocks (gradient-matching family,
/// evaluated via TrainOnBlocks).
struct CondensedData {
  bool synthetic = false;
  HeteroGraph graph;                 // !synthetic
  std::vector<Matrix> blocks;        // synthetic
  std::vector<int32_t> labels;       // synthetic
  /// Wall-clock seconds of the condensation stage.
  double seconds = 0.0;
  /// Storage footprint of the condensed data.
  size_t storage_bytes = 0;
};

/// One condense-then-train-then-test run.
struct MethodRun {
  /// Test accuracy on the full graph, in percent.
  float accuracy = 0.0f;
  float macro_f1 = 0.0f;
  /// Wall-clock seconds of the condensation stage.
  double condense_seconds = 0.0;
  /// Wall-clock seconds of HGNN training on the condensed data.
  double train_seconds = 0.0;
  /// Storage footprint of the condensed data.
  size_t storage_bytes = 0;
  /// Set when the (simulated) memory gate fired (GCond on AMiner).
  bool oom = false;
};

/// A condensation method behind the registry: one polymorphic Condense
/// entry point per method. Implementations are stateless (all run state
/// flows through spec/env), so one registered instance serves every
/// thread.
class CondensationMethod {
 public:
  virtual ~CondensationMethod() = default;

  /// Stable registry key, lowercase ("freehgc", "hgcond", ...).
  virtual const std::string& key() const = 0;

  /// Paper-style display name ("FreeHGC", "HGCond", ...).
  virtual const std::string& display_name() const = 0;

  /// Whether Condense reads ctx.paths and ctx.full_features. A method
  /// that does not reads only ctx.full and ctx.options, so a caller may
  /// hand it a context without propagated blocks.
  virtual bool reads_feature_blocks() const { return true; }

  /// Condenses ctx.full at spec.ratio/seed. ResourceExhausted is the
  /// contract for a (simulated) memory-gate failure; RunMethod maps it to
  /// MethodRun.oom rather than an error.
  virtual Result<CondensedData> Condense(const hgnn::EvalContext& ctx,
                                         const RunSpec& spec,
                                         const PipelineEnv& env) const = 0;
};

/// String-keyed method registry. The seven paper methods self-register at
/// static-init time; external experiments can Register additional ones.
class MethodRegistry {
 public:
  /// Process-wide registry, pre-populated with the builtin methods.
  static MethodRegistry& Global();

  /// Takes ownership; replaces any method already holding the same key.
  void Register(std::unique_ptr<CondensationMethod> method);

  /// Null when no method holds `key`.
  const CondensationMethod* Find(const std::string& key) const;

  /// Like Find, but an unknown key becomes a NotFound status whose
  /// message lists every registered key — the serve layer and CLIs
  /// forward it verbatim, so callers learn what exists.
  Result<const CondensationMethod*> FindOrError(const std::string& key) const;

  /// Registered keys, sorted.
  std::vector<std::string> Keys() const;

 private:
  struct Impl;
  MethodRegistry();
  std::unique_ptr<Impl> impl_;
};

/// Display name of the method registered as `key`; `key` itself when no
/// method holds it.
std::string DisplayName(const std::string& key);

/// Copies a train-and-evaluate outcome into a MethodRun: percent-scaled
/// accuracy and macro-F1 plus the training wall-clock.
void ApplyEvalMetrics(const hgnn::EvalMetrics& metrics, MethodRun& out);

/// Runs one method end to end: condense ctx.full at the requested ratio,
/// train `eval_cfg`'s HGNN on the result (seeded per run), evaluate on the
/// full test split. NotFound when `key` is not registered; a method's
/// ResourceExhausted becomes a run with oom=true.
Result<MethodRun> RunMethod(const hgnn::EvalContext& ctx,
                            const std::string& key, const RunSpec& spec,
                            const hgnn::HgnnConfig& eval_cfg,
                            const PipelineEnv& env = {});

/// Mean and sample standard deviation of a series.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};
MeanStd Aggregate(const std::vector<double>& values);

/// Accuracy aggregated over seeds; failures (e.g. OOM) surface as
/// oom=true when every seed fails.
struct AggregatedRun {
  MeanStd accuracy;
  double mean_condense_seconds = 0.0;
  double mean_train_seconds = 0.0;
  size_t storage_bytes = 0;
  bool oom = false;
};

/// Repeats RunMethod over `seeds` and aggregates.
AggregatedRun RunMethodSeeds(const hgnn::EvalContext& ctx,
                             const std::string& key, RunSpec spec,
                             const hgnn::HgnnConfig& eval_cfg,
                             const std::vector<uint64_t>& seeds,
                             const PipelineEnv& env = {});

/// "%.2f ± %.2f" cell formatter.
std::string Cell(const MeanStd& m);

}  // namespace freehgc::pipeline

#endif  // FREEHGC_PIPELINE_METHOD_H_
