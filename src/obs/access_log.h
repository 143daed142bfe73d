#ifndef FREEHGC_OBS_ACCESS_LOG_H_
#define FREEHGC_OBS_ACCESS_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/flight_recorder.h"

namespace freehgc::obs {

/// One access-log entry: everything known about a request at its
/// terminal transition. String fields are views — the record only lives
/// for the duration of one Append call.
struct AccessRecord {
  uint64_t id = 0;
  int32_t slot = -1;  // worker slot; -1 for shed/cancelled/expired
  std::string_view graph;
  std::string_view method;
  uint64_t fingerprint = 0;
  int32_t priority = 0;
  int64_t queue_ns = 0;
  int64_t exec_ns = 0;
  int64_t total_ns = 0;
  RequestOutcome outcome = RequestOutcome::kOk;
  /// Status message for non-OK outcomes (shed/expired reason, error).
  std::string_view reason;
  bool evalctx_hit = false;
  /// Cumulative artifact-cache counters at completion time (monotone
  /// across the log, so per-request deltas are recoverable by diffing
  /// consecutive entries); -1 = not annotated.
  int64_t cache_hits = -1;
  int64_t cache_misses = -1;
};

/// Structured JSONL access log: exactly one line per terminal request,
/// written at the transition. Lock-free by construction — each slot
/// thread formats its own line into a stack buffer and emits it with a
/// single O_APPEND write(2), which the kernel serializes at the file
/// offset, so concurrent slots never interleave bytes and there is no
/// user-space mutex to contend on (tests/telemetry_test.cc drives four
/// slots concurrently and checks line integrity).
///
/// Disabled (default-constructed / never opened) cost is one branch.
class AccessLog {
 public:
  AccessLog() = default;
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Opens (creates or appends to) the log file.
  Status Open(const std::string& path);
  void Close();

  bool enabled() const { return fd_ >= 0; }

  /// Formats and appends one line; no-op when not enabled.
  void Append(const AccessRecord& rec);

  int64_t lines_written() const {
    return lines_.load(std::memory_order_relaxed);
  }

  /// The line format, exposed for golden tests (no trailing newline).
  static std::string FormatLine(const AccessRecord& rec);

 private:
  int fd_ = -1;
  std::atomic<int64_t> lines_{0};
};

}  // namespace freehgc::obs

#endif  // FREEHGC_OBS_ACCESS_LOG_H_
