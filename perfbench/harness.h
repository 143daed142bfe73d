#ifndef FREEHGC_PERFBENCH_HARNESS_H_
#define FREEHGC_PERFBENCH_HARNESS_H_

// Building blocks of freehgc_bench: a freehgc_server child process, an
// open-loop replay with a lateness cap on top of loadgen::RunOpenLoop, and
// an in-memory span recorder that writes Chrome trace JSON and a
// per-layer self-time table.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/loadgen/loadgen.h"
#include "common/result.h"

namespace freehgc::perfbench {

/// One freehgc_server child. The destructor stops and reaps it, so no
/// exit path of the benchmark leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary --port=0 --port-file=<dir>/<tag>.port <flags...>`
  /// with stdout/stderr in <dir>/<tag>.log and waits until the port file
  /// names the bound port (at most 20 s).
  Status Start(const std::string& binary, const std::string& dir,
               const std::string& tag, const std::vector<std::string>& flags);

  int port() const { return port_; }
  /// Spawn to bound-port wall time.
  double start_ms() const { return start_ms_; }
  /// Peak resident set (VmHWM of /proc/<pid>/status) in MB; 0 when the
  /// process is gone or the field is unreadable.
  double PeakRssMb() const;

  /// SIGTERM, then SIGKILL if the server has not exited within 10 s;
  /// always waits for the child. Idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  double start_ms_ = 0.0;
};

/// Outcome of one scheduled arrival of an open-loop run.
struct ArrivalOutcome {
  enum class Kind : uint8_t { kOk, kFailed, kLateDrop };
  Kind kind = Kind::kFailed;
  /// Scheduled arrival to reply, for kOk.
  int64_t latency_ns = 0;
};

/// Sends arrival `index` (its request and the client thread it is pinned
/// to, in [0, threads)). The status classifies the outcome.
using ArrivalFn = std::function<Status(
    size_t index, const serve::CondenseRequest& request, int thread)>;

/// Replays `schedule` through loadgen::RunOpenLoop on `threads` threads,
/// arrival i pinned to thread i % threads (RunOpenLoop's contract, which
/// is what lets a caller keep one pre-opened connection per thread). An
/// arrival more than `late_cap_ns` behind schedule when its thread gets
/// to it is not sent and counts as a late drop, so a saturated step still
/// ends on time; late_cap_ns <= 0 sends everything. Latency runs from the
/// scheduled arrival. `max_lag_ms` (optional) receives the generator's
/// worst send lag behind schedule.
std::vector<ArrivalOutcome> RunCappedOpenLoop(
    const loadgen::LoadSpec& spec,
    const std::vector<loadgen::Arrival>& schedule, int threads,
    int64_t late_cap_ns, const ArrivalFn& send, double* max_lag_ms);

/// One recorded span. Times are obs::NowNs() values.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans; -1 = root
  uint64_t request_id = 0;
};

/// Per-span-name row of the layer table.
struct LayerRow {
  int64_t count = 0;
  double self_p50_ms = 0.0;
  double self_total_ms = 0.0;
};

/// Thread-safe in-memory span store. Spans are written out only at the
/// end (WriteChromeTrace), never while the workload runs.
class SpanRecorder {
 public:
  /// Opens a span starting now; returns its index (a parent handle).
  int Begin(std::string name, int parent, uint64_t request_id = 0);
  /// Closes a span opened by Begin.
  void End(int span);
  /// Records a span with known bounds (e.g. rebuilt from reply fields).
  int Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
          uint64_t request_id);

  /// Rewrites the request id of `span` and of every span below it (the
  /// id of a client span is known only once the reply arrives).
  void SetRequestId(int span, uint64_t request_id);

  std::vector<Span> spans() const;

  /// Self time of every span: its duration minus the part of it that its
  /// children's intervals cover.
  std::vector<int64_t> SelfTimesNs() const;

  /// Count, self-time p50 and self-time total per span name.
  std::map<std::string, LayerRow> LayerTable() const;

  /// Chrome trace-event JSON ("X" events; parent and request id as args).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace freehgc::perfbench

#endif  // FREEHGC_PERFBENCH_HARNESS_H_
