#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"

namespace freehgc::obs {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
constinit thread_local uint64_t g_current_request_id = 0;
}  // namespace internal

namespace {

/// Ring capacity per thread. A span record is 32 bytes, so each active
/// thread holds at most 2 MiB of trace data; older spans are overwritten
/// (and counted as dropped) once a thread wraps.
constexpr size_t kRingCapacity = 1 << 16;

struct ThreadBuffer {
  explicit ThreadBuffer(uint32_t id) : tid(id) {}

  uint32_t tid;
  std::string name;
  // Allocated on first record, so threads that only register a name
  // (pool workers with tracing off) cost a few bytes, not 2 MiB.
  std::vector<SpanRecord> ring;
  size_t next = 0;        // next write slot
  uint64_t recorded = 0;  // total spans ever recorded by this thread
};

struct Registry {
  std::mutex mu;
  // Owned here and never freed: threads keep raw pointers, and the
  // at-exit trace writer reads the buffers after thread_local teardown.
  std::vector<ThreadBuffer*> buffers;
};

Registry& GlobalRegistry() {
  static Registry* r = new Registry();
  return *r;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buf = [] {
    Registry& reg = GlobalRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto* b = new ThreadBuffer(static_cast<uint32_t>(reg.buffers.size()));
    reg.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

std::string g_trace_path;    // set once by InitObservabilityFromEnv
std::string g_metrics_path;  // ditto

void WriteTraceAtExit() {
  if (!g_trace_path.empty()) WriteChromeTrace(g_trace_path);
}

void WriteMetricsAtExit() {
  if (g_metrics_path.empty()) return;
  std::ofstream out(g_metrics_path);
  if (!out) {
    FREEHGC_LOG(Warning) << "FREEHGC_METRICS: cannot write "
                         << g_metrics_path;
    return;
  }
  out << MetricsRegistry::Global().DumpJson() << "\n";
}

/// Minimal JSON string escaping for names (quotes, backslashes, control
/// characters); span names are identifiers in practice.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void SetTracingEnabled(bool enabled) {
  internal::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

void ScopedSpan::Record(const char* name, int64_t begin_ns, int64_t end_ns,
                        int32_t worker) {
  ThreadBuffer& buf = LocalBuffer();
  if (buf.ring.empty()) buf.ring.resize(kRingCapacity);
  SpanRecord& slot = buf.ring[buf.next];
  slot.name = name;
  slot.begin_ns = begin_ns;
  slot.end_ns = end_ns;
  slot.request = internal::g_current_request_id;
  slot.tid = buf.tid;
  slot.worker = worker;
  buf.next = (buf.next + 1) % kRingCapacity;
  ++buf.recorded;
}

std::vector<SpanRecord> SnapshotSpans() {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<SpanRecord> out;
  for (const ThreadBuffer* buf : reg.buffers) {
    const uint64_t kept = std::min<uint64_t>(buf->recorded, kRingCapacity);
    // Oldest surviving span first: when the ring wrapped, that is the
    // slot `next` points at; otherwise slot 0.
    const size_t start = buf->recorded > kRingCapacity ? buf->next : 0;
    for (uint64_t i = 0; i < kept; ++i) {
      out.push_back(buf->ring[(start + i) % kRingCapacity]);
    }
  }
  return out;
}

int64_t DroppedSpans() {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  int64_t dropped = 0;
  for (const ThreadBuffer* buf : reg.buffers) {
    if (buf->recorded > kRingCapacity) {
      dropped += static_cast<int64_t>(buf->recorded - kRingCapacity);
    }
  }
  return dropped;
}

void ClearTrace() {
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (ThreadBuffer* buf : reg.buffers) {
    buf->next = 0;
    buf->recorded = 0;
  }
}

void SetCurrentThreadName(const std::string& name) {
  ThreadBuffer& buf = LocalBuffer();
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  buf.name = name;
}

void SetCurrentThreadNameIfUnset(const std::string& name) {
  ThreadBuffer& buf = LocalBuffer();
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (buf.name.empty()) buf.name = name;
}

bool WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    FREEHGC_LOG(Warning) << "trace export: cannot write " << path;
    return false;
  }
  const std::vector<SpanRecord> spans = SnapshotSpans();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  // Thread-name metadata events so viewers label the worker rows.
  {
    Registry& reg = GlobalRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const ThreadBuffer* buf : reg.buffers) {
      const std::string name =
          buf->name.empty() ? "thread-" + std::to_string(buf->tid)
                            : buf->name;
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s  {\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                    "\"name\": \"thread_name\", \"args\": {\"name\": "
                    "\"%s\"}}",
                    first ? "" : ",\n", buf->tid,
                    JsonEscape(name).c_str());
      out << line;
      first = false;
    }
  }
  for (const SpanRecord& s : spans) {
    char line[384];
    const double ts_us = static_cast<double>(s.begin_ns) / 1e3;
    const double dur_us = static_cast<double>(s.end_ns - s.begin_ns) / 1e3;
    // Optional args: ParallelFor worker index and serving request id.
    // Filtering on "req" in the viewer isolates one request's span tree.
    char args[96] = "";
    if (s.worker >= 0 && s.request != 0) {
      std::snprintf(args, sizeof(args),
                    ", \"args\": {\"worker\": %d, \"req\": %llu}", s.worker,
                    static_cast<unsigned long long>(s.request));
    } else if (s.worker >= 0) {
      std::snprintf(args, sizeof(args), ", \"args\": {\"worker\": %d}",
                    s.worker);
    } else if (s.request != 0) {
      std::snprintf(args, sizeof(args), ", \"args\": {\"req\": %llu}",
                    static_cast<unsigned long long>(s.request));
    }
    std::snprintf(line, sizeof(line),
                  "%s  {\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f%s}",
                  first ? "" : ",\n", s.tid, JsonEscape(s.name).c_str(),
                  ts_us, dur_us, args);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  if (const int64_t dropped = DroppedSpans()) {
    FREEHGC_LOG(Warning) << "trace export: " << dropped
                         << " spans dropped (ring buffers wrapped)";
  }
  return true;
}

void InitObservabilityFromEnv() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* path = std::getenv("FREEHGC_TRACE")) {
      if (*path != '\0') {
        g_trace_path = path;
        SetTracingEnabled(true);
        SetDetailedMetricsEnabled(true);
        std::atexit(WriteTraceAtExit);
      }
    }
    if (const char* path = std::getenv("FREEHGC_METRICS")) {
      if (*path != '\0') {
        g_metrics_path = path;
        SetDetailedMetricsEnabled(true);
        std::atexit(WriteMetricsAtExit);
      }
    }
  });
}

}  // namespace freehgc::obs
