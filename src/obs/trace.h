#ifndef FREEHGC_OBS_TRACE_H_
#define FREEHGC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace freehgc::obs {

/// Scoped-span tracer.
///
/// Usage: `FREEHGC_TRACE_SPAN("spgemm");` at the top of a scope records a
/// begin/end timestamp pair attributed to the calling thread. Spans nest
/// naturally (each is an independent [begin, end] interval; viewers stack
/// them by containment). Recording goes into per-thread ring buffers, so
/// hot kernels never contend on a lock; a span costs two steady_clock
/// reads plus one ring-slot write when tracing is on, and a single relaxed
/// atomic load + branch when it is off.
///
/// Export is Chrome trace-event JSON ("X" complete events), loadable in
/// chrome://tracing or https://ui.perfetto.dev. Setting the environment
/// variable FREEHGC_TRACE=<path> (picked up by InitObservabilityFromEnv,
/// which every ExecContext constructor calls) enables tracing for the
/// whole process and writes the trace to <path> at exit.
///
/// Span names must be string literals (or otherwise outlive the process):
/// the ring buffer stores the pointer, not a copy.

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

/// Whether spans are currently being recorded.
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Turns span recording on/off (process-global). Usually driven by the
/// FREEHGC_TRACE environment variable rather than called directly.
void SetTracingEnabled(bool enabled);

/// Nanoseconds on the process-global monotonic clock (origin = first
/// call, so values stay small). Also used by the exec layer's busy-time
/// accounting.
int64_t NowNs();

/// One recorded span, as returned by SnapshotSpans.
struct SpanRecord {
  const char* name;
  int64_t begin_ns;
  int64_t end_ns;
  uint64_t request;  // serving-layer request id; 0 = none
  uint32_t tid;      // stable per-thread id (registration order)
  int32_t worker;    // ParallelFor worker index, -1 when not applicable
};

namespace internal {
// constinit: no dynamic initialization, so an access needs no call
// through the TLS wrapper, whose init hook is a weak null symbol that
// UBSan reports as a store to a null pointer.
extern constinit thread_local uint64_t g_current_request_id;
}  // namespace internal

/// The serving-layer request id attached to spans recorded by the
/// calling thread (0 = none). Scheduler slots set it for the duration of
/// a request body via ScopedRequestId; the Chrome-trace export emits it
/// as a "req" arg so a request's full queue-wait/eval/kernel span tree
/// is reconstructible by filtering on one id.
inline uint64_t CurrentRequestId() { return internal::g_current_request_id; }

/// RAII request-id scope (nest-safe: restores the previous id).
class ScopedRequestId {
 public:
  explicit ScopedRequestId(uint64_t id)
      : prev_(internal::g_current_request_id) {
    internal::g_current_request_id = id;
  }
  ~ScopedRequestId() { internal::g_current_request_id = prev_; }

  ScopedRequestId(const ScopedRequestId&) = delete;
  ScopedRequestId& operator=(const ScopedRequestId&) = delete;

 private:
  uint64_t prev_;
};

/// Copies every span recorded so far (all threads, oldest first per
/// thread). Intended for tests; export paths use WriteChromeTrace.
std::vector<SpanRecord> SnapshotSpans();

/// Number of spans dropped because a thread's ring buffer wrapped.
int64_t DroppedSpans();

/// Discards all recorded spans (buffers stay registered). Tests only.
void ClearTrace();

/// Labels the calling thread in the exported trace (e.g. "worker-3").
/// The thread pool calls this for its workers; the ExecContext
/// constructor labels its driving thread "main".
void SetCurrentThreadName(const std::string& name);

/// Like SetCurrentThreadName, but keeps an existing label. Used for
/// default labels ("main") that must not clobber explicit ones.
void SetCurrentThreadNameIfUnset(const std::string& name);

/// Writes the Chrome trace-event JSON file. Returns false (and logs a
/// warning) if the file cannot be written.
bool WriteChromeTrace(const std::string& path);

/// Reads FREEHGC_TRACE / FREEHGC_METRICS / FREEHGC_LOG_LEVEL once per
/// process: enables tracing and registers an at-exit Chrome-trace writer
/// when FREEHGC_TRACE=<path> is set, registers an at-exit metrics
/// DumpJson writer when FREEHGC_METRICS=<path> is set. Idempotent and
/// thread-safe; called from the ExecContext constructor so any pipeline
/// entry point arms it.
void InitObservabilityFromEnv();

/// RAII span. Prefer the FREEHGC_TRACE_SPAN macro.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int32_t worker = -1) {
    if (TracingEnabled()) {
      name_ = name;
      worker_ = worker;
      begin_ns_ = NowNs();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) Record(name_, begin_ns_, NowNs(), worker_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static void Record(const char* name, int64_t begin_ns, int64_t end_ns,
                     int32_t worker);

  const char* name_ = nullptr;  // nullptr => disabled at construction
  int32_t worker_ = -1;
  int64_t begin_ns_ = 0;
};

#define FREEHGC_OBS_CONCAT_INNER(a, b) a##b
#define FREEHGC_OBS_CONCAT(a, b) FREEHGC_OBS_CONCAT_INNER(a, b)

/// Records a span covering the rest of the current scope.
#define FREEHGC_TRACE_SPAN(name)    \
  ::freehgc::obs::ScopedSpan FREEHGC_OBS_CONCAT(freehgc_span_, \
                                                __LINE__)(name)

/// Same, with an explicit ParallelFor worker index attached.
#define FREEHGC_TRACE_SPAN_WORKER(name, worker) \
  ::freehgc::obs::ScopedSpan FREEHGC_OBS_CONCAT(freehgc_span_, \
                                                __LINE__)(name, worker)

}  // namespace freehgc::obs

#endif  // FREEHGC_OBS_TRACE_H_
