#ifndef FREEHGC_SERVE_SERVICE_H_
#define FREEHGC_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

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
/// ArtifactCache, and a RequestScheduler whose work body runs
/// MethodRegistry condensers against the shared state.
///
/// Spill-aware admission: with a budget configured, Submit sheds new
/// requests with kResourceExhausted while a budgeted tier sits past
/// kBudgetShedFactor times its budget — the ArtifactCache resident tier
/// (artifact_budget_bytes, spill enabled) or the GraphStore
/// mapped-resident set (store_resident_budget_bytes). Shedding beats
/// queueing work the spill tier would thrash through; counted in
/// serve.shed.budget.
///
/// A request builds only what it reads. Its EvalContext gets propagated
/// feature blocks only when it evaluates or its method reads them
/// (CondensationMethod::reads_feature_blocks); FreeHGC and Coarsening-HG
/// condense from the graph alone. The blocks come from
/// pipeline::BuildEvalContext on the shared ArtifactCache, which owns
/// them and coalesces concurrent builds of one (graph fingerprint, path
/// list, max_row_nnz) key. A request holds its GraphRef only while it
/// runs, so the GraphStore may evict an idle graph; its cache entries
/// stay valid across the re-map because they are keyed by content.
/// Determinism: all shared artifacts are outputs of deterministic
/// kernels, so concurrent requests return results bit-identical to
/// sequential execution (tests/serve_test.cc).
class ServeService {
 public:
  /// How far past its budget a tier may grow before Submit sheds.
  static constexpr double kBudgetShedFactor = 2.0;

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
  /// METRICS wire op exposes them, then store().metrics() and
  /// cache().metrics(), after the process-global registry.
  obs::MetricsRegistry& metrics() { return scheduler_->metrics(); }

  /// How many requests ran a propagation build (serve.evalctx.builds):
  /// K concurrent evaluating requests on one cold graph count 1, and a
  /// request that reads no feature blocks never counts.
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
  /// The scheduler work body (runs on a slot thread).
  Result<CondenseReply> Execute(const CondenseRequest& request,
                                const RequestContext& rctx);

  const ServeOptions options_;
  GraphStore store_;
  pipeline::ArtifactCache cache_;
  obs::AccessLog access_log_;  // before scheduler_: outlives its writers
  const int64_t start_ns_;

  std::unique_ptr<RequestScheduler> scheduler_;  // uses the above
  /// serve.evalctx.builds in the scheduler's registry.
  obs::Counter& evalctx_builds_;
};

}  // namespace freehgc::serve

#endif  // FREEHGC_SERVE_SERVICE_H_
