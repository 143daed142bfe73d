#ifndef FREEHGC_PERFBENCH_REPLAY_H_
#define FREEHGC_PERFBENCH_REPLAY_H_

// Layer replay for the traced run: one request class at a time, the
// public functions ServeService::Execute chains are called in-process,
// each inside its own span, on an ExecContext the size of one serving
// slot. The same class is then run once through an in-process
// ServeService in the same cache state, whose exec time is what the
// replay's spans must add up to.

#include <cstddef>
#include <string>

#include "harness.h"
#include "serve/scheduler.h"

namespace freehgc::perfbench {

struct ReplayClass {
  /// Upload container of the graph the request names.
  const std::string* container = nullptr;
  serve::CondenseRequest request;
  /// The server had built this class's EvalContext before the request
  /// arrived (otherwise the request builds it).
  bool warm = true;
  /// The request path includes the upload (a cold job).
  bool upload = false;
  /// The server's --slots (0 = its default); sets the replay's threads.
  int slots = 0;
  /// Non-empty: mirror a server run with --spill-dir/--spool-dir under
  /// these budgets (files go below this directory).
  std::string spill_dir;
  size_t artifact_budget_bytes = SIZE_MAX;
  size_t resident_budget_bytes = SIZE_MAX;
};

struct ReplayResult {
  /// Median duration of the replay's execute span (the sum of its
  /// subtree's self times).
  double replay_exec_ms = 0.0;
  /// Median exec time (total - queue) of the same class in an in-process
  /// ServeService.
  double service_exec_ms = 0.0;
};

/// Replays `c` a few times, each under a "replay.request" root span on
/// `rec` and on one slot's worth of threads, alternating with in-process
/// ServeService runs of the same class.
Result<ReplayResult> Replay(const ReplayClass& c, SpanRecorder* rec);

}  // namespace freehgc::perfbench

#endif  // FREEHGC_PERFBENCH_REPLAY_H_
