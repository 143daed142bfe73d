// Multi-process cluster benchmark (ISSUE 9 acceptance): forks the real
// freehgc_meta + freehgc_server binaries, uploads a graph through the
// cluster::Router, and measures
//
//   (a) scale-out — warm condensation throughput over 1/2/4 shards with
//       the graph replicated everywhere: each shard count runs 3 closed-
//       loop trials of at least 1 s each and reports their median (both
//       land in the JSON). Gate: 4-shard median throughput >=
//       2.5x the 1-shard run, enforced when the machine has >= 4 cores
//       (the shards are separate processes; on fewer cores they time-
//       slice one another and the measurement is recorded, not gated —
//       the reason lands in BENCH_cluster.json).
//   (b) failover — 2 shards holding 2 replicas, one SIGKILLed mid-run:
//       every subsequent request must still succeed through the router,
//       and the meta service must report the dead shard. Always gated.
//
// Writes BENCH_cluster.json. Binaries are found next to this one
// (build/bench -> build/tools); override with --bin-dir=PATH.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/router.h"
#include "graph/serialize.h"
#include "obs/trace.h"

namespace freehgc::bench {
namespace {

std::string g_bin_dir;
std::string g_tmp_dir;

// ---------------------------------------------------------------------------
// Child-process plumbing.

pid_t Spawn(const std::vector<std::string>& args,
            const std::string& log_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  FREEHGC_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

int WaitForPortFile(const std::string& path) {
  for (int i = 0; i < 400; ++i) {
    if (FILE* f = std::fopen(path.c_str(), "r")) {
      int port = 0;
      const bool ok = std::fscanf(f, "%d", &port) == 1 && port > 0;
      std::fclose(f);
      if (ok) return port;
    }
    ::usleep(25 * 1000);
  }
  FREEHGC_CHECK(false) << "port file " << path << " never appeared";
  return 0;
}

void StopProcess(pid_t pid, int sig) {
  if (pid <= 0) return;
  ::kill(pid, sig);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

/// One meta service + N shard processes, found via port files in the
/// bench's temp directory.
struct Cluster {
  pid_t meta_pid = -1;
  int meta_port = 0;
  std::vector<pid_t> shard_pids;
  std::vector<int> shard_ports;

  void Start(int shards, int ttl_ms) {
    const std::string meta_pf = g_tmp_dir + "/meta.port";
    ::unlink(meta_pf.c_str());
    meta_pid = Spawn({g_bin_dir + "/freehgc_meta", "--port=0",
                      "--port-file=" + meta_pf,
                      StrFormat("--heartbeat-ttl-ms=%d", ttl_ms)},
                     g_tmp_dir + "/meta.log");
    meta_port = WaitForPortFile(meta_pf);
    for (int i = 0; i < shards; ++i) {
      const std::string pf = StrFormat("%s/s%d.port", g_tmp_dir.c_str(), i);
      ::unlink(pf.c_str());
      shard_pids.push_back(Spawn(
          {g_bin_dir + "/freehgc_server", "--port=0", "--port-file=" + pf,
           "--slots=1", "--queue-capacity=64",
           StrFormat("--meta=%d", meta_port),
           StrFormat("--shard-id=%d", i + 1), "--heartbeat-ms=100"},
          StrFormat("%s/s%d.log", g_tmp_dir.c_str(), i)));
      shard_ports.push_back(WaitForPortFile(pf));
    }
  }

  void Stop() {
    for (pid_t pid : shard_pids) StopProcess(pid, SIGTERM);
    shard_pids.clear();
    StopProcess(meta_pid, SIGTERM);
    meta_pid = -1;
  }
};

// ---------------------------------------------------------------------------
// Workload.

std::vector<serve::CondenseRequest> MakeWorkload(int total) {
  std::vector<serve::CondenseRequest> reqs;
  reqs.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    serve::CondenseRequest req;
    req.graph = "acm";
    req.method = "freehgc";
    req.ratio = 0.05;
    req.seed = static_cast<uint64_t>(1 + i % 5);
    req.max_paths = 6;
    reqs.push_back(req);
  }
  return reqs;
}

/// Closed-loop run of the workload through the router with `clients`
/// submitter threads; returns wall seconds (aborts on any failure).
double RunWorkload(cluster::Router& router,
                   const std::vector<serve::CondenseRequest>& workload,
                   int clients) {
  const int64_t t0 = obs::NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < workload.size();
           i += static_cast<size_t>(clients)) {
        auto reply = router.Condense(workload[i]);
        FREEHGC_CHECK(reply.ok()) << reply.status().ToString();
      }
    });
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(obs::NowNs() - t0) * 1e-9;
}

/// Scale-out trials per shard count, and the minimum wall time of each:
/// a few dozen requests finish in well under 0.1 s, too short for the
/// 4v1 ratio to mean anything.
constexpr int kScaleTrials = 3;
constexpr double kScaleTrialSeconds = 1.0;

struct Trial {
  int requests = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
};

/// Closed loop like RunWorkload, but each client cycles through its
/// slice of the workload until `min_seconds` have passed; the trial's
/// wall time runs until the last in-flight request returns.
Trial RunForDuration(cluster::Router& router,
                     const std::vector<serve::CondenseRequest>& workload,
                     int clients, double min_seconds) {
  const int64_t t0 = obs::NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(min_seconds * 1e9);
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); obs::NowNs() < deadline;
           i = (i + static_cast<size_t>(clients)) % workload.size()) {
        auto reply = router.Condense(workload[i]);
        FREEHGC_CHECK(reply.ok()) << reply.status().ToString();
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  Trial trial;
  trial.requests = done.load();
  trial.wall_seconds = static_cast<double>(obs::NowNs() - t0) * 1e-9;
  trial.throughput_rps =
      static_cast<double>(trial.requests) / trial.wall_seconds;
  return trial;
}

struct ScalePoint {
  int shards = 0;
  std::vector<Trial> trials;
  /// Median of the trials' throughputs.
  double throughput_rps = 0.0;
  int64_t resolves = 0;
  int64_t cache_hits = 0;
};

ScalePoint RunScalePoint(int shards, const std::string& container) {
  Cluster cluster;
  cluster.Start(shards, /*ttl_ms=*/2000);

  cluster::RouterOptions options;
  options.meta_port = cluster.meta_port;
  cluster::Router router(options);
  FREEHGC_CHECK(router.Connect().ok());
  auto info = router.Upload("acm", container, /*replicas=*/shards);
  FREEHGC_CHECK(info.ok()) << info.status().ToString();
  auto placement = router.Resolve("acm");
  FREEHGC_CHECK(placement.ok() &&
                placement->shards.size() == static_cast<size_t>(shards))
      << "graph not placed on all " << shards << " shard(s)";

  const auto workload = MakeWorkload(12 * shards);
  const int clients = 2 * shards;
  // Warm-up: every shard pays its EvalContext builds + SpGEMM once; the
  // measured trials are the steady state a serving cluster runs in.
  RunWorkload(router, workload, clients);

  ScalePoint point;
  point.shards = shards;
  std::vector<double> rps;
  for (int t = 0; t < kScaleTrials; ++t) {
    point.trials.push_back(
        RunForDuration(router, workload, clients, kScaleTrialSeconds));
    rps.push_back(point.trials.back().throughput_rps);
  }
  std::sort(rps.begin(), rps.end());
  point.throughput_rps = rps[rps.size() / 2];
  const cluster::RouterStats stats = router.stats();
  point.resolves = stats.resolves;
  point.cache_hits = stats.cache_hits;
  FREEHGC_CHECK(stats.failovers == 0 && stats.shards_marked_dead == 0)
      << "healthy-cluster run saw failovers";
  router.Close();
  cluster.Stop();
  return point;
}

struct FailoverResult {
  int requests_after_kill = 0;
  int succeeded = 0;
  int64_t failovers = 0;
  int64_t shards_marked_dead = 0;
  bool dead_shard_reported = false;
  double seconds_until_dead_reported = 0.0;
};

FailoverResult RunFailover(const std::string& container) {
  Cluster cluster;
  cluster.Start(/*shards=*/2, /*ttl_ms=*/500);

  cluster::RouterOptions options;
  options.meta_port = cluster.meta_port;
  options.backoff_ms = 20;
  cluster::Router router(options);
  FREEHGC_CHECK(router.Connect().ok());
  FREEHGC_CHECK(router.Upload("acm", container, /*replicas=*/2).ok());

  const auto workload = MakeWorkload(8);
  // Warm both shards, then kill one the hard way.
  RunWorkload(router, workload, /*clients=*/2);
  const pid_t victim = cluster.shard_pids[1];
  ::kill(victim, SIGKILL);
  int status = 0;
  ::waitpid(victim, &status, 0);
  cluster.shard_pids[1] = -1;

  FailoverResult result;
  result.requests_after_kill = static_cast<int>(workload.size());
  for (const serve::CondenseRequest& req : workload) {
    auto reply = router.Condense(req);
    FREEHGC_CHECK(reply.ok())
        << "request failed after shard kill: " << reply.status().ToString();
    ++result.succeeded;
  }

  // The meta service must declare the killed shard dead on its own
  // (heartbeat TTL), independent of the router's local suspicion.
  const int64_t t0 = obs::NowNs();
  for (int i = 0; i < 200 && !result.dead_shard_reported; ++i) {
    auto shards = router.Shards();
    FREEHGC_CHECK(shards.ok());
    for (const cluster::ShardStatus& s : *shards) {
      if (s.shard_id == 2 && !s.alive) result.dead_shard_reported = true;
    }
    if (!result.dead_shard_reported) ::usleep(50 * 1000);
  }
  result.seconds_until_dead_reported =
      static_cast<double>(obs::NowNs() - t0) * 1e-9;
  const cluster::RouterStats stats = router.stats();
  result.failovers = stats.failovers;
  result.shards_marked_dead = stats.shards_marked_dead;
  router.Close();
  cluster.Stop();
  return result;
}

int Run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bin-dir=", 0) == 0) {
      g_bin_dir = arg.substr(std::string("--bin-dir=").size());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (g_bin_dir.empty()) {
    char exe[4096] = {0};
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    FREEHGC_CHECK(n > 0) << "cannot resolve /proc/self/exe; pass --bin-dir";
    std::string dir(exe, static_cast<size_t>(n));
    dir = dir.substr(0, dir.rfind('/'));         // .../build/bench
    g_bin_dir = dir.substr(0, dir.rfind('/')) + "/tools";
  }
  char tmpl[] = "/tmp/freehgc_bench_cluster_XXXXXX";
  FREEHGC_CHECK(::mkdtemp(tmpl) != nullptr);
  g_tmp_dir = tmpl;

  PrintHeader("Sharded serving scale-out + failover (BENCH_cluster.json)");
  std::printf("binaries: %s, scratch: %s\n", g_bin_dir.c_str(),
              g_tmp_dir.c_str());

  auto container = SerializeHeteroGraph(
      *datasets::MakeByName("acm", 1, 0.3, &exec::DefaultExec()));
  FREEHGC_CHECK(container.ok());

  std::vector<ScalePoint> points;
  for (int shards : {1, 2, 4}) {
    const ScalePoint p = RunScalePoint(shards, *container);
    std::string trials;
    for (const Trial& t : p.trials) {
      trials += StrFormat(" %.2f (%d req/%.2fs)", t.throughput_rps,
                          t.requests, t.wall_seconds);
    }
    std::printf(
        "%d shard(s): %6.2f req/s median of%s; "
        "%lld resolves, %lld cache hits\n",
        p.shards, p.throughput_rps, trials.c_str(),
        static_cast<long long>(p.resolves),
        static_cast<long long>(p.cache_hits));
    std::fflush(stdout);
    points.push_back(p);
  }
  const double speedup =
      points.back().throughput_rps / points.front().throughput_rps;

  const unsigned cores = std::thread::hardware_concurrency();
  const bool scale_gate_enforced = cores >= 4;
  const char* scale_reason =
      scale_gate_enforced
          ? "machine has >= 4 cores; shard processes run in parallel"
          : "machine has < 4 cores; shard processes time-slice each "
            "other, so scale-out cannot manifest";
  std::printf("scale-out 4v1: %.2fx (%u cores; gate %s)\n", speedup, cores,
              scale_gate_enforced ? "ENFORCED" : "recorded only");

  const FailoverResult failover = RunFailover(*container);
  std::printf(
      "failover: %d/%d requests succeeded after SIGKILL "
      "(%lld failovers, dead shard reported in %.2fs)\n",
      failover.succeeded, failover.requests_after_kill,
      static_cast<long long>(failover.failovers),
      failover.seconds_until_dead_reported);

  std::string json = "{\n  \"bench\": \"cluster\",\n";
  json += StrFormat(
      "  \"workload\": {\"graph\": \"acm\", \"scale\": 0.3, \"method\": "
      "\"freehgc\", \"ratio\": 0.05, \"max_paths\": 6},\n");
  json += StrFormat("  \"cores\": %u,\n", cores);
  json += StrFormat("  \"scaleout_trial\": {\"trials\": %d, "
                    "\"min_seconds\": %.1f, \"statistic\": \"median\"},\n",
                    kScaleTrials, kScaleTrialSeconds);
  json += "  \"scaleout\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    std::string trials;
    for (size_t t = 0; t < p.trials.size(); ++t) {
      trials += StrFormat(
          "{\"requests\": %d, \"wall_seconds\": %.4f, "
          "\"throughput_rps\": %.3f}%s",
          p.trials[t].requests, p.trials[t].wall_seconds,
          p.trials[t].throughput_rps, t + 1 < p.trials.size() ? ", " : "");
    }
    json += StrFormat(
        "    {\"shards\": %d, \"trials\": [%s], "
        "\"throughput_rps\": %.3f, \"speedup_vs_1\": %.3f}%s\n",
        p.shards, trials.c_str(), p.throughput_rps,
        p.throughput_rps / points.front().throughput_rps,
        i + 1 < points.size() ? "," : "");
  }
  json += "  ],\n";
  json += StrFormat(
      "  \"failover\": {\"requests_after_kill\": %d, \"succeeded\": %d, "
      "\"router_failovers\": %lld, \"router_shards_marked_dead\": %lld, "
      "\"dead_shard_reported\": %s, "
      "\"seconds_until_dead_reported\": %.3f},\n",
      failover.requests_after_kill, failover.succeeded,
      static_cast<long long>(failover.failovers),
      static_cast<long long>(failover.shards_marked_dead),
      failover.dead_shard_reported ? "true" : "false",
      failover.seconds_until_dead_reported);
  json += "  \"gates\": {\n";
  json += StrFormat(
      "    \"scaleout_4v1\": {\"required\": 2.5, \"measured\": %.3f, "
      "\"enforced\": %s, \"pass\": %s, \"reason\": \"%s\"},\n",
      speedup, scale_gate_enforced ? "true" : "false",
      speedup >= 2.5 ? "true" : "false", scale_reason);
  const bool failover_pass =
      failover.succeeded == failover.requests_after_kill &&
      failover.dead_shard_reported;
  json += StrFormat(
      "    \"failover\": {\"enforced\": true, \"pass\": %s}\n",
      failover_pass ? "true" : "false");
  json += "  }\n}\n";
  WriteTextFile("BENCH_cluster.json", json);
  std::printf("wrote BENCH_cluster.json\n");

  // Gates. Failover is unconditional; scale-out only where the hardware
  // can express it.
  FREEHGC_CHECK(failover_pass)
      << failover.succeeded << "/" << failover.requests_after_kill
      << " requests succeeded, dead_shard_reported="
      << failover.dead_shard_reported;
  if (scale_gate_enforced) {
    FREEHGC_CHECK(speedup >= 2.5)
        << "4-shard throughput is only " << speedup
        << "x the 1-shard run (gate: 2.5x)";
  }
  return 0;
}

}  // namespace
}  // namespace freehgc::bench

int main(int argc, char** argv) {
  return freehgc::bench::Run(argc, argv);
}
