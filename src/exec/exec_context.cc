#include "exec/exec_context.h"

#include <cstdlib>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace freehgc::exec {

int DefaultNumThreads() {
  if (const char* env = std::getenv("FREEHGC_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ThreadsPerSlot(int slots) {
  if (slots < 1) slots = 1;
  const int per_slot = DefaultNumThreads() - slots + 1;
  return per_slot > 0 ? per_slot : 1;
}

int ConcurrentSlotBudget(int slots) {
  if (slots < 1) slots = 1;
  const int cores = DefaultNumThreads();
  return slots < cores ? slots : cores;
}

ExecContext::ExecContext(int num_threads)
    : owned_pool_(std::make_unique<ThreadPool>(
          num_threads > 0 ? num_threads : DefaultNumThreads())),
      pool_(owned_pool_.get()) {
  obs::InitObservabilityFromEnv();
  // The constructing thread drives ParallelFor invokes as worker 0;
  // label it for the trace unless the embedder already named it.
  obs::SetCurrentThreadNameIfUnset("main");
}

ExecContext::ExecContext(ThreadPool& shared) : pool_(&shared) {
  obs::InitObservabilityFromEnv();
  obs::SetCurrentThreadNameIfUnset("main");
}

ExecContext::~ExecContext() = default;

void ExecContext::NoteParallelFor(int64_t num_chunks, int64_t busy_ns,
                                  int64_t wall_ns, int workers) {
  static obs::Counter& calls =
      obs::MetricsRegistry::Global().GetCounter("exec.parallel_for_calls");
  static obs::Counter& chunks =
      obs::MetricsRegistry::Global().GetCounter("exec.chunks");
  static obs::Counter& busy =
      obs::MetricsRegistry::Global().GetCounter("exec.worker_busy_ns");
  static obs::Counter& idle =
      obs::MetricsRegistry::Global().GetCounter("exec.worker_idle_ns");
  static obs::Gauge& ws_hwm = obs::MetricsRegistry::Global().GetGauge(
      "exec.workspace_bytes_hwm");
  calls.Increment();
  chunks.Add(num_chunks);
  busy.Add(busy_ns);
  // Idle = the participants' capacity over the invoke's wall time not
  // spent in chunks (workers waiting on the slowest chunk, wake-up
  // latency). Helpers busy with another driver's invoke never joined, so
  // they are not capacity this invoke left idle.
  const int64_t capacity_ns = wall_ns * static_cast<int64_t>(workers);
  if (capacity_ns > busy_ns) idle.Add(capacity_ns - busy_ns);
  const size_t bytes = ws_.BytesReserved() + pool_->HelperWorkspaceBytes();
  ws_hwm.UpdateMax(static_cast<int64_t>(bytes));
}

ExecContext& DefaultExec() {
  static ExecContext* ctx = new ExecContext(0);
  return *ctx;
}

Workspace& NestedWorkspace() {
  static thread_local Workspace ws;
  return ws;
}

}  // namespace freehgc::exec
