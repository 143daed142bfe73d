#ifndef FREEHGC_SERVE_SERVICE_H_
#define FREEHGC_SERVE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "hgnn/models.h"
#include "hgnn/trainer.h"
#include "obs/access_log.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/method.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"

namespace freehgc::serve {

/// Service configuration: the scheduler's options (slots, queue, QoS)
/// plus the service-level ones below.
struct ServeOptions : SchedulerOptions {
  /// Coalesce identical in-flight requests: duplicates of a queued or
  /// executing (graph, method, ratio, seed, meta-path config, evaluate,
  /// return_graph) request ride its execution and receive a copy of its
  /// reply. Priority/deadline are excluded from the identity — a
  /// follower's fate is its leader's.
  bool coalesce_requests = true;
  /// When non-empty, every terminal request appends one JSONL line here
  /// (see obs::AccessLog). Open failure logs a warning and disables the
  /// log; it never fails service construction.
  std::string access_log_path;
  /// Evaluator config for CondenseRequest::evaluate. Serving default is
  /// smaller than the research default (hidden 32, 60 epochs, no early
  /// stopping) so evaluated requests have bounded latency.
  hgnn::HgnnConfig eval;
  /// Heap bytes the ArtifactCache's evictable tiers may keep resident
  /// (see ArtifactCache::SpillOptions). Takes effect only with a
  /// spill_dir; SIZE_MAX = unlimited.
  size_t artifact_budget_bytes = SIZE_MAX;
  /// Bytes of mapped graphs the GraphStore may keep resident (see
  /// GraphStore::SetResidentBudget). SIZE_MAX = unlimited.
  size_t store_resident_budget_bytes = SIZE_MAX;
  /// Directory for artifact spool files. Non-empty enables the
  /// ArtifactCache spill tier.
  std::string spill_dir;
  /// Spill-aware admission: when > 0 and a budget is configured, new
  /// submissions are shed with kResourceExhausted while a budgeted tier
  /// sits past `factor ×` its budget — the ArtifactCache resident tier
  /// (artifact_budget_bytes, spill enabled) or the GraphStore
  /// mapped-resident set (store_resident_budget_bytes). Shedding before
  /// the spill tier thrashes; counted in serve.shed.budget. 0 disables.
  double budget_shed_factor = 2.0;

  ServeOptions() {
    // Aging keeps low-priority work from starving under a sustained
    // high-priority stream.
    aging_quantum_ms = 250;
    eval.kind = hgnn::HgnnKind::kSeHGNN;
    eval.hidden = 32;
    eval.epochs = 60;
    eval.patience = 0;
  }
};

/// The condensation service: a GraphStore of resident graphs, one shared
/// ArtifactCache, a coalesced per-(graph, meta-path config) EvalContext
/// cache, and a RequestScheduler whose work body runs MethodRegistry
/// condensers against the shared state.
///
/// Coalescing: requests against the same (graph fingerprint, max_hops,
/// max_paths, max_row_nnz) share one EvalContext — the enumerate-paths +
/// propagate step runs once (the first request builds, concurrent
/// duplicates block on the build, later ones hit). The build is
/// pipeline::BuildEvalContext on the shared ArtifactCache, so the cache
/// owns the context's propagated blocks in every spill mode; it composes
/// nothing, and FreeHGC's selection composes into the same cache on its
/// first request. Determinism: all shared artifacts
/// are outputs of deterministic kernels, so concurrent requests return
/// results bit-identical to sequential execution (tests/serve_test.cc).
class ServeService {
 public:
  explicit ServeService(ServeOptions options = {});
  ~ServeService();

  ServeService(const ServeService&) = delete;
  ServeService& operator=(const ServeService&) = delete;

  GraphStore& store() { return store_; }
  pipeline::ArtifactCache& cache() { return cache_; }
  const ServeOptions& options() const { return options_; }

  /// Asynchronous submission (validated first: unknown graph names and
  /// out-of-range ratios fail here, before occupying a queue slot).
  Result<TicketPtr> Submit(CondenseRequest request);

  /// Synchronous convenience: Submit + Wait.
  Result<CondenseReply> Condense(CondenseRequest request);

  /// Cancels a still-queued request (see RequestScheduler::Cancel).
  bool Cancel(uint64_t id);

  /// Stops admission and drains (or cancels queued) requests. Idempotent;
  /// the destructor drains if never called.
  void Shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  SchedulerStats scheduler_stats() const { return scheduler_->stats(); }

  /// This service's serve.* metrics (RequestScheduler::metrics()); the
  /// METRICS wire op exposes them after the process-global registry.
  obs::MetricsRegistry& metrics() { return scheduler_->metrics(); }

  /// How many EvalContexts were actually built — the coalescing test
  /// asserts this stays at 1 for K same-config requests.
  int64_t eval_context_builds() const { return evalctx_builds_.Value(); }

  /// One-line-per-field JSON summary (request counters, store and cache
  /// occupancy, latency quantiles) — what the server dumps on shutdown.
  std::string StatsJson() const;

  /// Liveness summary for the HEALTH wire op: status, uptime, slot and
  /// queue occupancy, resident graph count.
  std::string HealthJson() const;

  /// The access log wired into the scheduler (enabled() is false unless
  /// ServeOptions::access_log_path was set and opened).
  const obs::AccessLog& access_log() const { return access_log_; }

 private:
  struct EvalEntry;

  /// The scheduler work body (runs on a slot thread).
  Result<CondenseReply> Execute(const CondenseRequest& request,
                                const RequestContext& rctx);
  /// `built` (optional) reports whether this call built the entry (false
  /// = coalescing-cache hit).
  std::shared_ptr<EvalEntry> GetOrBuildEvalContext(
      const GraphStore::GraphRef& graph, const hgnn::PropagateOptions& opts,
      const pipeline::PipelineEnv& env, bool* built = nullptr);

  const ServeOptions options_;
  GraphStore store_;
  pipeline::ArtifactCache cache_;
  obs::AccessLog access_log_;  // before scheduler_: outlives its writers
  const int64_t start_ns_;

  /// (graph fingerprint, max_hops, max_paths, max_row_nnz) -> entry.
  using EvalKey = std::tuple<uint64_t, int, int, int64_t>;
  std::mutex eval_mu_;
  std::map<EvalKey, std::shared_ptr<EvalEntry>> eval_contexts_;

  std::unique_ptr<RequestScheduler> scheduler_;  // uses the above
  /// serve.evalctx.{builds,lookups} in the scheduler's registry.
  obs::Counter& evalctx_builds_;
  obs::Counter& evalctx_lookups_;
};

}  // namespace freehgc::serve

#endif  // FREEHGC_SERVE_SERVICE_H_
