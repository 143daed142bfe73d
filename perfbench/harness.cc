#include "harness.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/string_util.h"
#include "obs/trace.h"

namespace freehgc::perfbench {

// ---------------------------------------------------------------------------
// ServerProcess

Status ServerProcess::Start(const std::string& binary, const std::string& dir,
                            const std::string& tag,
                            const std::vector<std::string>& flags) {
  Stop();
  const std::string port_file = dir + "/" + tag + ".port";
  const std::string log_file = dir + "/" + tag + ".log";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {binary, "--port=0",
                                   "--port-file=" + port_file};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int64_t t0 = obs::NowNs();
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    // Client sockets of this process must not stay open in the child, or
    // a server would never see its peer disconnect.
    ::close_range(3, ~0U, 0);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = pid;
  for (int waited_ms = 0; waited_ms < 20000; ++waited_ms) {
    if (FILE* f = std::fopen(port_file.c_str(), "r")) {
      int port = 0;
      const bool ok = std::fscanf(f, "%d", &port) == 1 && port > 0;
      std::fclose(f);
      if (ok) {
        port_ = port;
        start_ms_ = static_cast<double>(obs::NowNs() - t0) * 1e-6;
        return Status::OK();
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal(StrFormat(
          "%s exited before binding a port (see %s)", binary.c_str(),
          log_file.c_str()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Stop();
  return Status::DeadlineExceeded("server never wrote " + port_file);
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in(StrFormat("/proc/%d/status", static_cast<int>(pid_)));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 2000; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) != 0) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

// ---------------------------------------------------------------------------
// Capped open loop

std::vector<ArrivalOutcome> RunCappedOpenLoop(
    const loadgen::LoadSpec& spec,
    const std::vector<loadgen::Arrival>& schedule, int threads,
    int64_t late_cap_ns, const ArrivalFn& send, double* max_lag_ms) {
  if (threads < 1) threads = 1;
  // RunOpenLoop hands the callback a request and its class index only.
  // One class per arrival turns that index into the arrival index, which
  // gives the callback the scheduled time and the pinned thread.
  loadgen::LoadSpec per_arrival;
  per_arrival.seed = spec.seed;
  per_arrival.phases = spec.phases;
  std::vector<loadgen::Arrival> indexed = schedule;
  per_arrival.classes.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    per_arrival.classes.push_back(spec.classes[schedule[i].class_index]);
    indexed[i].class_index = static_cast<uint32_t>(i);
  }

  std::vector<ArrivalOutcome> out(schedule.size());
  // RunOpenLoop takes its own start time a few microseconds after this
  // one, so lateness and latency here are overstated by that much.
  const int64_t t0 = obs::NowNs();
  const loadgen::RunReport report = loadgen::RunOpenLoop(
      per_arrival, indexed, threads,
      [&](const serve::CondenseRequest& request, uint32_t i) -> Status {
        const int64_t target_ns = t0 + schedule[i].offset_ns;
        ArrivalOutcome& o = out[i];  // written by its pinned thread only
        if (late_cap_ns > 0 && obs::NowNs() - target_ns > late_cap_ns) {
          o.kind = ArrivalOutcome::Kind::kLateDrop;
          return Status::Cancelled("late drop");
        }
        const Status st =
            send(i, request, static_cast<int>(i % static_cast<size_t>(threads)));
        o.kind = st.ok() ? ArrivalOutcome::Kind::kOk
                         : ArrivalOutcome::Kind::kFailed;
        o.latency_ns = obs::NowNs() - target_ns;
        return st;
      });
  if (max_lag_ms != nullptr) {
    *max_lag_ms = 0.0;
    for (const loadgen::PhaseReport& p : report.phases) {
      *max_lag_ms = std::max(*max_lag_ms, p.max_lag_ms);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// SpanRecorder

int SpanRecorder::Begin(std::string name, int parent, uint64_t request_id) {
  const int64_t now = obs::NowNs();
  return Add(std::move(name), now, now, parent, request_id);
}

void SpanRecorder::End(int span) {
  const int64_t now = obs::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

int SpanRecorder::Add(std::string name, int64_t start_ns, int64_t end_ns,
                      int parent, uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.request_id = request_id;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::SetRequestId(int span, uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Children are always recorded after their parent, so one forward pass
  // reaches every descendant.
  std::vector<bool> below(spans_.size(), false);
  below[static_cast<size_t>(span)] = true;
  for (size_t i = static_cast<size_t>(span); i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (i != static_cast<size_t>(span) &&
        (p < 0 || !below[static_cast<size_t>(p)])) {
      continue;
    }
    below[i] = true;
    spans_[i].request_id = request_id;
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<int64_t> SpanRecorder::SelfTimesNs() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(all.size(), 0);
  for (size_t i = 0; i < all.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, all[i].start_ns);
      hi = std::min(hi, all[i].end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (all[i].end_ns - all[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, LayerRow> SpanRecorder::LayerTable() const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimesNs();
  std::map<std::string, std::vector<int64_t>> by_name;
  for (size_t i = 0; i < all.size(); ++i) {
    by_name[all[i].name].push_back(self[i]);
  }
  std::map<std::string, LayerRow> table;
  for (auto& [name, samples] : by_name) {
    LayerRow row;
    row.count = static_cast<int64_t>(samples.size());
    for (int64_t ns : samples) row.self_total_ms += static_cast<double>(ns) * 1e-6;
    row.self_p50_ms = loadgen::QuantileMs(std::move(samples), 0.5);
    table[name] = row;
  }
  return table;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    // One lane per root span, so concurrent requests do not interleave.
    size_t root = i;
    while (all[root].parent >= 0) root = static_cast<size_t>(all[root].parent);
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"parent\": %d, \"req\": %llu}}%s\n",
                 s.name.c_str(), root, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<unsigned long long>(s.request_id),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace freehgc::perfbench
