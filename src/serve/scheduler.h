#ifndef FREEHGC_SERVE_SCHEDULER_H_
#define FREEHGC_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "exec/exec_context.h"
#include "obs/access_log.h"
#include "obs/metrics.h"

namespace freehgc::serve {

/// One condensation request against a resident graph.
struct CondenseRequest {
  /// GraphStore name of the graph to condense.
  std::string graph;
  /// MethodRegistry key ("freehgc", "herding", ...).
  std::string method = "freehgc";
  double ratio = 0.1;
  uint64_t seed = 1;
  /// Meta-path configuration, which Execute turns into a MetaPathOptions;
  /// together with `graph` this is the artifact identity — requests
  /// sharing it reuse the same cached evaluation context and composed
  /// adjacencies. max_hops <= 0 resolves to 2; Submit rejects
  /// max_paths < 1 and max_row_nnz < 0.
  int max_hops = 2;
  int max_paths = 12;
  int64_t max_row_nnz = 512;
  /// Also train an HGNN on the condensed output and report accuracy.
  bool evaluate = false;
  /// Ship the condensed graph back as a SerializeHeteroGraph container.
  bool return_graph = false;
  /// Admission priority: lower values run first; FIFO within a priority.
  int priority = 0;
  /// Queue deadline in milliseconds from submission (0 = none). A request
  /// whose deadline passes while still queued is never executed.
  int64_t deadline_ms = 0;
};

/// What a completed condense request returns.
struct CondenseReply {
  int64_t nodes = 0;
  int64_t edges = 0;
  size_t storage_bytes = 0;
  /// Wall-clock of the condensation stage alone.
  double condense_seconds = 0.0;
  /// Queue wait and end-to-end (admission to completion) wall-clock.
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  /// Test accuracy / macro-F1 in percent; valid when `evaluated`.
  bool evaluated = false;
  float accuracy = 0.0f;
  float macro_f1 = 0.0f;
  /// Serialized condensed graph (CondenseRequest::return_graph).
  std::string graph_bytes;
  /// Fingerprint of the full graph the request ran against.
  uint64_t graph_fingerprint = 0;
  /// Scheduler-assigned request id, echoed over the wire so client-side
  /// observations join against server-side spans and access-log lines.
  uint64_t request_id = 0;
  /// False when this request ran a propagation build; true when it
  /// reused the artifact cache's blocks or read no blocks at all.
  bool evalctx_hit = false;
};

/// Per-request execution context handed to the work body: the request id
/// (also installed as the tracing request id for the body's duration),
/// the worker slot index, and that slot's ExecContext.
struct RequestContext {
  uint64_t id = 0;
  int slot = -1;
  exec::ExecContext* exec = nullptr;
};

/// Completion handle for a submitted request. Wait() blocks until the
/// request reaches a terminal state: completed (value), failed (error
/// status), shed at shutdown (kUnavailable), cancelled (kCancelled), or
/// deadline-expired in the queue (kDeadlineExceeded).
class RequestTicket {
 public:
  uint64_t id() const { return id_; }
  const CondenseRequest& request() const { return request_; }

  /// Blocks until terminal; the reference stays valid while the ticket is
  /// alive. Idempotent.
  Result<CondenseReply>& Wait();

  /// Non-blocking: terminal yet?
  bool Done() const;

 private:
  friend class RequestScheduler;
  RequestTicket(uint64_t id, CondenseRequest request)
      : id_(id), request_(std::move(request)) {}

  const uint64_t id_;
  const CondenseRequest request_;
  int64_t submit_ns_ = 0;
  int64_t deadline_ns_ = 0;  // absolute (obs::NowNs clock); 0 = none
  /// Coalescing state, guarded by the *scheduler's* mu_ (not mu_ below):
  /// the key this ticket is registered under in inflight_by_key_ (0 =
  /// not coalescable), and the follower tickets that will receive a copy
  /// of this leader's result when it reaches a terminal state.
  uint64_t coalesce_key_ = 0;
  std::vector<std::shared_ptr<RequestTicket>> followers_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Result<CondenseReply>> result_;
};

using TicketPtr = std::shared_ptr<RequestTicket>;

/// How Shutdown treats requests still in the queue (running requests
/// always finish — cancellation is cooperative and request bodies are not
/// interrupted).
enum class ShutdownMode {
  /// Execute everything already admitted, then stop.
  kDrain,
  /// Fail queued requests with kUnavailable; only running ones finish.
  kCancelQueued,
};

/// Point-in-time snapshot of a scheduler's serve.* metrics
/// (RequestScheduler::stats()).
struct SchedulerStats {
  int64_t admitted = 0;
  int64_t completed = 0;   // terminal with a value
  int64_t failed = 0;      // terminal with an error from the work body
  int64_t shed = 0;        // rejected at admission (queue full or guard)
  int64_t shed_budget = 0;  // subset of shed: admission guard (memory
                            // budget pressure), not queue capacity
  int64_t shed_slo = 0;    // subset of shed: predicted latency past SLO
  int64_t cancelled = 0;   // removed from the queue by Cancel/shutdown
  int64_t expired = 0;     // queue deadline passed before execution
  int64_t coalesced = 0;   // admitted as followers of an identical
                           // in-flight request (never executed)
  int64_t aged = 0;        // dequeues where priority aging overrode the
                           // head-of-queue pick
  int64_t queue_depth = 0;
  int64_t inflight = 0;    // requests currently executing
};

/// Scheduler configuration.
struct SchedulerOptions {
  /// Worker slots, each driving its own ExecContext over the shared pool.
  int slots = 2;
  /// Bounded admission queue; beyond it submissions are shed.
  int queue_capacity = 32;
  /// The most threads one request uses: its slot's thread plus the
  /// threads_per_slot - 1 helpers every slot shares. 0 =
  /// exec::ThreadsPerSlot(slots), which makes the slots plus the helpers
  /// the machine's core count.
  int threads_per_slot = 0;
  /// Max requests *executing* at once. On a machine with fewer cores than
  /// slots, letting every slot run just time-slices the cores and
  /// multiplies every request's latency by the slot count; capping
  /// dispatch keeps extra slots as cheap standby capacity. 0 resolves to
  /// exec::ConcurrentSlotBudget(slots); values above `slots` clamp.
  int max_concurrent = 0;
  /// Priority aging quantum: a queued request's effective priority drops
  /// by 1 every `aging_quantum_ms` it waits, so low-priority work cannot
  /// be starved by a sustained stream of high-priority arrivals. 0
  /// disables aging (strict priority-FIFO).
  int64_t aging_quantum_ms = 0;
  /// Admission-time SLO: when > 0, a submission whose *predicted* queue
  /// wait (queue ahead of it / max_concurrent, draining at an EWMA of
  /// recent execution times) exceeds this many milliseconds is shed
  /// immediately with kResourceExhausted — the client gets a fast "no"
  /// instead of a reply that was always going to miss its SLO. The
  /// request's own execution time is excluded: admission control can
  /// shorten waits, not executions. 0 disables.
  int64_t slo_ms = 0;
};

/// Bounded-admission request scheduler: a priority-FIFO queue feeding N
/// worker slots. Each slot drives its own ExecContext (one driver per
/// context, the exec layer's contract), and every context borrows from
/// one exec::ThreadPool of threads_per_slot - 1 helpers: a lone request
/// gets every idle helper, busy slots split them, and the slots plus the
/// helpers stay within the machine's thread budget. What the slots also
/// share is whatever the work function closes over (the serve layer
/// passes the GraphStore + ArtifactCache, which are thread-safe).
///
/// Overload semantics: admission beyond `queue_capacity` queued requests
/// is shed immediately with kResourceExhausted — the queue never blocks a
/// submitter and never grows unboundedly. Queued requests can be
/// cancelled or expire (deadline) without ever executing; running
/// requests always run to completion.
///
/// QoS (SchedulerOptions): dispatch is capped at `max_concurrent`
/// executing requests so slots beyond the core budget park instead of
/// time-slicing; identical in-flight requests coalesce onto one
/// execution (set_coalesce_key); queued work ages toward the front
/// (aging_quantum_ms); and submissions predicted to miss `slo_ms` are
/// shed at admission with a distinct reason.
class RequestScheduler {
 public:
  /// The per-request work body, run on a worker slot's thread with that
  /// slot's ExecContext (via the RequestContext). Must be safe to call
  /// concurrently from different slots (all serve-layer shared state is
  /// thread-safe).
  using WorkFn = std::function<Result<CondenseReply>(
      const CondenseRequest&, const RequestContext&)>;

  /// Telemetry enrichment hook: fills service-level fields (cumulative
  /// cache counters) into an access record just before it is written.
  using AnnotateFn = std::function<void(obs::AccessRecord&)>;

  /// Admission guard consulted on every Submit after the capacity check:
  /// a non-OK status (by convention kResourceExhausted) sheds the request
  /// before it is queued. The serve layer uses it to shed under memory
  /// budget pressure (ArtifactCache/GraphStore resident bytes far past
  /// their budgets) instead of thrashing the spill tier. Called under the
  /// scheduler lock — must be fast and must not call back into the
  /// scheduler.
  using AdmissionGuard = std::function<Status()>;

  /// Work-identity hash for request coalescing: two requests with the
  /// same non-zero key are guaranteed (by the caller) to produce
  /// bit-identical replies, so only one needs to execute. Return 0 for
  /// "never coalesce this request". Called under the scheduler lock.
  using CoalesceKeyFn = std::function<uint64_t(const CondenseRequest&)>;

  explicit RequestScheduler(const SchedulerOptions& options, WorkFn work);

  /// Drains (kDrain) if Shutdown was never called.
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Wires the structured access log and the per-record annotation hook.
  /// Every terminal transition (ok/error/shed/cancelled/expired) then
  /// emits one access-log line and one flight-recorder record. Must be
  /// called before the first Submit; either argument may be null.
  void set_telemetry(obs::AccessLog* access_log, AnnotateFn annotate);

  /// Installs the admission guard (may be null to clear). Must be called
  /// before the first Submit.
  void set_admission_guard(AdmissionGuard guard);

  /// Installs the coalescing key (may be null to disable). With a key
  /// installed, a submission whose key matches a request still queued or
  /// executing is admitted as a *follower*: it never occupies a queue
  /// slot or executes, and when the leader reaches a terminal state every
  /// follower's ticket completes with a copy of the leader's result —
  /// bit-identical reply bytes, including the leader's request_id (the id
  /// that actually executed; the follower's own id appears in its
  /// access-log line). A follower's own deadline/priority are ignored —
  /// its fate is the leader's. Must be called before the first Submit.
  void set_coalesce_key(CoalesceKeyFn fn);

  /// Admits a request. kResourceExhausted when the queue is full,
  /// kUnavailable after Shutdown.
  Result<TicketPtr> Submit(CondenseRequest request);

  /// Removes a still-queued request; its ticket completes with
  /// kCancelled and the work body never runs. False when the request
  /// already started (or finished) — running work is never interrupted.
  bool Cancel(uint64_t id);

  /// Stops admission, disposes of the queue per `mode`, waits for every
  /// worker slot to go idle, and joins them. Idempotent.
  void Shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Snapshot of metrics(), taken under mu_ so the counters agree.
  SchedulerStats stats() const;

  /// This scheduler's own registry, the only store of its serve.*
  /// numbers (the service adds serve.evalctx.*). Per instance, so two
  /// schedulers in one process never mix their counts.
  obs::MetricsRegistry& metrics() { return metrics_; }

  int slots() const { return static_cast<int>(workers_.size()); }
  /// The helper pool every slot's ExecContext drives.
  const exec::ThreadPool& pool() const { return *pool_; }
  int queue_capacity() const { return queue_capacity_; }

 private:
  void WorkerLoop(int slot);
  void Complete(const TicketPtr& ticket, Result<CondenseReply> result);
  void UpdateGauges();  // callers hold mu_
  /// Detaches `leader`'s followers and unregisters its coalesce key;
  /// callers hold mu_. Every terminal path must call this and then
  /// complete the returned tickets with a copy of the leader's result.
  std::vector<TicketPtr> TakeFollowers(const TicketPtr& leader);
  /// Completes coalesced followers with a copy of the leader's terminal
  /// result and emits their telemetry. Never called under mu_.
  void FinishFollowers(const std::vector<TicketPtr>& followers,
                       const Result<CondenseReply>& result, int slot,
                       obs::RequestOutcome outcome, std::string_view reason);
  /// Dequeue pick honoring priority aging; callers hold mu_ and guarantee
  /// a non-empty queue. Counts serve.aged when aging overrode begin().
  std::map<std::pair<int, uint64_t>, TicketPtr>::iterator PickNext();
  /// Emits the access-log line + flight-recorder record for a request
  /// reaching a terminal state. Never called under mu_ (the access log
  /// does a write(2)).
  void RecordTerminal(uint64_t id, int slot, const CondenseRequest& request,
                      int64_t submit_ns, int64_t queue_ns, int64_t exec_ns,
                      obs::RequestOutcome outcome, std::string_view reason,
                      bool evalctx_hit, uint64_t fingerprint);

  /// Cached references into metrics_, registered at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& reg);
    obs::Gauge& queue_depth;
    obs::Gauge& inflight;
    obs::Counter& admitted;
    obs::Counter& completed;
    obs::Counter& failed;
    obs::Counter& shed;
    obs::Counter& shed_budget;
    obs::Counter& shed_slo;
    obs::Counter& cancelled;
    obs::Counter& expired;
    obs::Counter& coalesced;
    obs::Counter& aged;
    obs::Histogram& queue_ns;
    obs::Histogram& exec_ns;
    obs::Histogram& total_ns;
  };

  obs::MetricsRegistry metrics_;
  Metrics m_;
  const int queue_capacity_;
  int max_concurrent_ = 1;
  int64_t aging_quantum_ns_ = 0;  // 0 = aging off
  int64_t slo_ns_ = 0;            // 0 = SLO shedding off
  WorkFn work_;
  obs::AccessLog* access_log_ = nullptr;  // not owned
  AnnotateFn annotate_;
  AdmissionGuard admission_guard_;
  CoalesceKeyFn coalesce_key_fn_;
  std::unique_ptr<exec::ThreadPool> pool_;  // outlives slot_exec_
  std::vector<std::unique_ptr<exec::ExecContext>> slot_exec_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: dispatchable work or stop
  std::condition_variable drain_cv_;  // Shutdown: queue empty + idle
  /// (priority, admission seq) -> ticket; begin() is the next request
  /// (PickNext may override it when aging is on).
  std::map<std::pair<int, uint64_t>, TicketPtr> queue_;
  /// Coalesce key -> leader ticket, for every leader still queued or
  /// executing; erased when the leader reaches a terminal state.
  std::unordered_map<uint64_t, TicketPtr> inflight_by_key_;
  /// EWMA of completed executions' exec_ns (0 until the first
  /// completion); the SLO admission predictor.
  double ewma_exec_ns_ = 0.0;
  /// Requests executing now: gates dispatch (work_cv_) and drain; the
  /// serve.inflight gauge mirrors it.
  int inflight_ = 0;
  uint64_t next_id_ = 1;
  bool accepting_ = true;
  bool stop_ = false;
};

}  // namespace freehgc::serve

#endif  // FREEHGC_SERVE_SCHEDULER_H_
