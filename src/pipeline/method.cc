#include "pipeline/method.h"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "baselines/coarsening.h"
#include "baselines/coreset.h"
#include "common/string_util.h"

namespace freehgc::pipeline {

namespace {

/// Random-HG / Herding-HG / K-Center-HG (the coreset family).
class CoresetMethod final : public CondensationMethod {
 public:
  CoresetMethod(baselines::CoresetKind kind, std::string key,
                std::string display)
      : kind_(kind), key_(std::move(key)), display_(std::move(display)) {}

  const std::string& key() const override { return key_; }
  const std::string& display_name() const override { return display_; }

  Result<CondensedData> Condense(const hgnn::EvalContext& ctx,
                                 const RunSpec& spec,
                                 const PipelineEnv& env) const override {
    FREEHGC_ASSIGN_OR_RETURN(
        baselines::BaselineResult res,
        baselines::CoresetCondense(ctx, kind_, spec.ratio, spec.seed,
                                   env.exec));
    CondensedData out;
    out.graph = std::move(res.graph);
    out.seconds = res.seconds;
    out.storage_bytes = out.graph.MemoryBytes();
    return out;
  }

 private:
  baselines::CoresetKind kind_;
  std::string key_;
  std::string display_;
};

/// Coarsening-HG (variation-neighborhoods-style coarsener).
class CoarseningMethod final : public CondensationMethod {
 public:
  const std::string& key() const override {
    static const std::string k = "coarsening";
    return k;
  }
  const std::string& display_name() const override {
    static const std::string n = "Coarsening-HG";
    return n;
  }
  bool reads_feature_blocks() const override { return false; }

  Result<CondensedData> Condense(const hgnn::EvalContext& ctx,
                                 const RunSpec& spec,
                                 const PipelineEnv& env) const override {
    FREEHGC_ASSIGN_OR_RETURN(
        baselines::BaselineResult res,
        baselines::CoarseningCondense(*ctx.full, spec.ratio,
                                      spec.coarsening_rounds, spec.seed,
                                      env.exec));
    CondensedData out;
    out.graph = std::move(res.graph);
    out.seconds = res.seconds;
    out.storage_bytes = out.graph.MemoryBytes();
    return out;
  }
};

/// GCond / HGCond (the gradient-matching family; synthetic output).
class GradientMatchingMethod final : public CondensationMethod {
 public:
  GradientMatchingMethod(bool hetero, std::string key, std::string display)
      : hetero_(hetero), key_(std::move(key)), display_(std::move(display)) {}

  const std::string& key() const override { return key_; }
  const std::string& display_name() const override { return display_; }

  Result<CondensedData> Condense(const hgnn::EvalContext& ctx,
                                 const RunSpec& spec,
                                 const PipelineEnv& env) const override {
    baselines::GradientMatchingOptions gm = spec.gm;
    gm.ratio = spec.ratio;
    gm.seed = spec.seed;
    gm.hetero = hetero_;
    if (hetero_) {
      // HGCond's extra machinery: more relay explorations and inner
      // steps (OPS + clustering are switched on by `hetero`).
      gm.relay_inits = spec.gm.relay_inits + 2;
      gm.inner_iters = spec.gm.inner_iters + 2;
      gm.memory_budget_bytes = 0;  // sparse scheme: no dense-adjacency gate
    }
    FREEHGC_ASSIGN_OR_RETURN(
        baselines::SyntheticData res,
        baselines::GradientMatchingCondense(ctx, gm, env.exec));
    CondensedData out;
    out.synthetic = true;
    out.seconds = res.seconds;
    out.storage_bytes = res.MemoryBytes();
    out.blocks = std::move(res.blocks);
    out.labels = std::move(res.labels);
    return out;
  }

 private:
  bool hetero_;
  std::string key_;
  std::string display_;
};

/// FreeHGC (the paper's training-free condenser).
class FreeHgcMethod final : public CondensationMethod {
 public:
  const std::string& key() const override {
    static const std::string k = "freehgc";
    return k;
  }
  const std::string& display_name() const override {
    static const std::string n = "FreeHGC";
    return n;
  }
  // Selection reads the graph and its composed meta-paths only.
  bool reads_feature_blocks() const override { return false; }

  Result<CondensedData> Condense(const hgnn::EvalContext& ctx,
                                 const RunSpec& spec,
                                 const PipelineEnv& env) const override {
    core::FreeHgcOptions fopts = spec.freehgc;
    fopts.ratio = spec.ratio;
    fopts.seed = spec.seed;
    static_cast<MetaPathOptions&>(fopts) = ctx.options;
    FREEHGC_ASSIGN_OR_RETURN(
        core::CondensedResult res,
        core::Condense(*ctx.full, fopts, env.exec, env.cache));
    CondensedData out;
    out.graph = std::move(res.graph);
    out.seconds = res.seconds;
    out.storage_bytes = out.graph.MemoryBytes();
    return out;
  }
};

}  // namespace

struct MethodRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<CondensationMethod>> methods;
};

MethodRegistry::MethodRegistry() : impl_(std::make_unique<Impl>()) {}

MethodRegistry& MethodRegistry::Global() {
  // Leaked singleton (same idiom as MetricsRegistry), pre-populated with
  // the seven paper methods.
  static MethodRegistry* registry = [] {
    auto* r = new MethodRegistry();
    r->Register(std::make_unique<CoresetMethod>(
        baselines::CoresetKind::kRandom, "random", "Random-HG"));
    r->Register(std::make_unique<CoresetMethod>(
        baselines::CoresetKind::kHerding, "herding", "Herding-HG"));
    r->Register(std::make_unique<CoresetMethod>(
        baselines::CoresetKind::kKCenter, "kcenter", "K-Center-HG"));
    r->Register(std::make_unique<CoarseningMethod>());
    r->Register(
        std::make_unique<GradientMatchingMethod>(false, "gcond", "GCond"));
    r->Register(
        std::make_unique<GradientMatchingMethod>(true, "hgcond", "HGCond"));
    r->Register(std::make_unique<FreeHgcMethod>());
    return r;
  }();
  return *registry;
}

void MethodRegistry::Register(std::unique_ptr<CondensationMethod> method) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->methods[method->key()] = std::move(method);
}

const CondensationMethod* MethodRegistry::Find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->methods.find(key);
  return it == impl_->methods.end() ? nullptr : it->second.get();
}

Result<const CondensationMethod*> MethodRegistry::FindOrError(
    const std::string& key) const {
  const CondensationMethod* method = Find(key);
  if (method == nullptr) {
    return Status::NotFound(StrFormat(
        "no condensation method registered as '%s' (registered: %s)",
        key.c_str(), Join(Keys(), ", ").c_str()));
  }
  return method;
}

std::vector<std::string> MethodRegistry::Keys() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> keys;
  keys.reserve(impl_->methods.size());
  for (const auto& [key, method] : impl_->methods) keys.push_back(key);
  return keys;
}

hgnn::EvalContext BuildEvalContext(const HeteroGraph& graph,
                                   const MetaPathOptions& opts,
                                   const PipelineEnv& env, bool* propagated) {
  if (env.cache == nullptr) {
    if (propagated != nullptr) *propagated = true;
    return hgnn::BuildEvalContext(graph, opts, env.exec);
  }
  hgnn::EvalContext ctx;
  ctx.full = &graph;
  ctx.options = opts;
  ctx.paths = EnumerateMetaPaths(graph, graph.target_type(), opts);
  const std::shared_ptr<const hgnn::PropagatedFeatures> pin =
      env.cache->Propagated(graph, ctx.paths, opts.max_row_nnz, env.exec,
                            propagated);
  hgnn::PropagatedFeatures& f = ctx.full_features;
  f.names = pin->names;
  f.end_types = pin->end_types;
  f.blocks.reserve(pin->blocks.size());
  for (const Matrix& b : pin->blocks) {
    f.blocks.push_back(
        b.is_mapped()
            ? b
            : Matrix::FromView(b.rows(), b.cols(),
                               {b.data(), static_cast<size_t>(b.size())},
                               pin));
  }
  return ctx;
}

std::string DisplayName(const std::string& key) {
  const CondensationMethod* m = MethodRegistry::Global().Find(key);
  return m != nullptr ? m->display_name() : key;
}

void ApplyEvalMetrics(const hgnn::EvalMetrics& metrics, MethodRun& out) {
  out.accuracy = metrics.test_accuracy * 100.0f;
  out.macro_f1 = metrics.macro_f1 * 100.0f;
  out.train_seconds = metrics.train_seconds;
}

Result<MethodRun> RunMethod(const hgnn::EvalContext& ctx,
                            const std::string& key, const RunSpec& spec,
                            const hgnn::HgnnConfig& eval_cfg,
                            const PipelineEnv& env) {
  FREEHGC_ASSIGN_OR_RETURN(const CondensationMethod* method,
                           MethodRegistry::Global().FindOrError(key));
  MethodRun out;
  auto data = method->Condense(ctx, spec, env);
  if (!data.ok()) {
    if (data.status().code() == StatusCode::kResourceExhausted) {
      out.oom = true;
      return out;
    }
    return data.status();
  }
  out.condense_seconds = data->seconds;
  out.storage_bytes = data->storage_bytes;

  hgnn::HgnnConfig cfg = eval_cfg;
  cfg.seed = spec.seed ^ 0xeea1ULL;
  if (data->synthetic) {
    ApplyEvalMetrics(
        hgnn::TrainOnBlocks(ctx, data->blocks, data->labels, cfg, env.exec),
        out);
  } else {
    ApplyEvalMetrics(
        hgnn::TrainAndEvaluate(ctx, data->graph, cfg, env.exec), out);
  }
  return out;
}

MeanStd Aggregate(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  double sum = 0.0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0.0;
    for (double v : values) sq += (v - out.mean) * (v - out.mean);
    out.std = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  return out;
}

AggregatedRun RunMethodSeeds(const hgnn::EvalContext& ctx,
                             const std::string& key, RunSpec spec,
                             const hgnn::HgnnConfig& eval_cfg,
                             const std::vector<uint64_t>& seeds,
                             const PipelineEnv& env) {
  AggregatedRun out;
  std::vector<double> accs;
  double condense = 0.0, train = 0.0;
  for (uint64_t seed : seeds) {
    spec.seed = seed;
    auto res = RunMethod(ctx, key, spec, eval_cfg, env);
    if (!res.ok()) continue;
    if (res->oom) {
      out.oom = true;
      continue;
    }
    accs.push_back(res->accuracy);
    condense += res->condense_seconds;
    train += res->train_seconds;
    out.storage_bytes = res->storage_bytes;
  }
  if (accs.empty()) {
    out.oom = true;
    return out;
  }
  out.accuracy = Aggregate(accs);
  out.mean_condense_seconds = condense / static_cast<double>(accs.size());
  out.mean_train_seconds = train / static_cast<double>(accs.size());
  return out;
}

std::string Cell(const MeanStd& m) {
  return StrFormat("%.2f ± %.2f", m.mean, m.std);
}

}  // namespace freehgc::pipeline
