// freehgc_top: live terminal dashboard for a running freehgc_server.
//
//   freehgc_top --port=P (or --port-file=PATH)
//               [--interval-ms=1000] [--iterations=0] [--once]
//
// Polls the METRICS wire op each interval and renders one line per poll:
// request throughput (qps over a 10 s sliding window), total-latency
// p50/p95/p99 reconstructed from the scraped histogram buckets, queue
// depth, inflight count, artifact-cache hit rate, the share of cache
// hits served from the resident tier (vs restored from spill files),
// resident graph/cache bytes, cumulative spilled bytes, and graph-store
// evictions. --iterations=N exits after N polls (0 = until interrupted);
// --once is --iterations=1 (handy in scripts and CI). An unknown flag or
// a malformed integer exits 2 with the usage.
//
// Everything shown is derived from the same Prometheus text any scraper
// sees — this tool is a reference consumer of the exposition format, not
// a privileged one.
//
// Cluster mode: --meta-port=P (instead of --port) asks the freehgc_meta
// service for the shard table each interval and scrapes METRICS from
// every live shard, printing one row per shard (qps, queue, inflight,
// resident bytes, completed) plus an aggregate TOTAL row. Dead shards
// show as a "dead" row so an operator sees holes in the cluster at a
// glance.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "cluster/meta_client.h"
#include "common/string_util.h"
#include "obs/exposition.h"
#include "obs/rate_window.h"
#include "obs/trace.h"
#include "serve/client.h"

namespace {

using freehgc::Status;
using freehgc::obs::PromSample;
using freehgc::serve::ServeClient;

constexpr char kUsage[] =
    "usage: freehgc_top --port=P (or --port-file=PATH) "
    "[--interval-ms=1000] [--iterations=0] [--once]\n"
    "       freehgc_top --meta-port=P (or --meta-port-file="
    "PATH) ...  # per-shard cluster dashboard\n";

[[noreturn]] void Usage(const std::string& reason) {
  std::fprintf(stderr, "freehgc_top: %s\n%s", reason.c_str(), kUsage);
  std::exit(2);
}

bool FlagValue(const std::string& arg, const char* prefix, std::string* out) {
  const std::string p = prefix;
  if (arg.rfind(p, 0) != 0) return false;
  *out = arg.substr(p.size());
  return true;
}

/// True when `arg` is `prefix` followed by a value, which is parsed into
/// `*out`; a malformed integer exits 2 with the usage.
template <typename T>
bool IntFlag(const std::string& arg, const char* prefix, T* out) {
  std::string v;
  if (!FlagValue(arg, prefix, &v)) return false;
  if (!freehgc::ParseInt(v.c_str(), out)) {
    Usage("bad integer value: " + arg);
  }
  return true;
}

bool ReadPortFile(const std::string& path, int* port) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  int value = 0;
  const bool ok = std::fscanf(f, "%d", &value) == 1;
  std::fclose(f);
  if (ok) *port = value;
  return ok;
}

double ValueOr(const std::vector<PromSample>& samples,
               const std::string& name, double fallback) {
  double v = fallback;
  freehgc::obs::FindPromValue(samples, name, &v);
  return v;
}

// Cluster dashboard: one row per shard, scraped through the meta
// service's shard table, plus an aggregate TOTAL row per poll.
int RunMetaMode(int meta_port, int interval_ms, long iterations) {
  freehgc::cluster::MetaClient meta;
  if (Status st = meta.Connect(meta_port); !st.ok()) {
    std::fprintf(stderr, "freehgc_top: %s\n", st.ToString().c_str());
    return 1;
  }
  std::map<uint32_t, freehgc::obs::RateWindow> qps;  // per shard
  for (long iter = 0; iterations == 0 || iter < iterations; ++iter) {
    if (iter != 0) ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
    auto shards = meta.ListShards();
    if (!shards.ok()) {
      std::fprintf(stderr, "freehgc_top: %s\n",
                   shards.status().ToString().c_str());
      return 1;
    }
    std::printf("%6s %6s %6s %10s %6s %9s %10s %9s %7s\n", "shard", "port",
                "state", "qps", "queue", "inflight", "resident", "completed",
                "graphs");
    double total_qps = 0, total_queue = 0, total_inflight = 0;
    double total_resident = 0, total_completed = 0, total_graphs = 0;
    const int64_t now_ns = freehgc::obs::NowNs();
    for (const auto& s : *shards) {
      if (!s.alive) {
        std::printf("%6u %6d %6s %10s %6s %9s %10s %9s %7s\n", s.shard_id,
                    s.port, "dead", "-", "-", "-", "-", "-", "-");
        continue;
      }
      // Scrape the shard's own METRICS: the heartbeat load is a coarse
      // snapshot, the exposition is authoritative.
      double terminal = static_cast<double>(s.load.completed);
      double queue = static_cast<double>(s.load.queue_depth);
      double inflight = static_cast<double>(s.load.inflight);
      double resident = static_cast<double>(s.load.resident_bytes);
      ServeClient shard;
      if (shard.Connect(s.port).ok()) {
        if (auto text = shard.Metrics(); text.ok()) {
          const std::vector<PromSample> samples =
              freehgc::obs::ParsePrometheusText(*text);
          terminal =
              ValueOr(samples, "freehgc_serve_requests_completed_total", 0) +
              ValueOr(samples, "freehgc_serve_requests_failed_total", 0);
          queue = ValueOr(samples, "freehgc_serve_queue_depth", queue);
          inflight = ValueOr(samples, "freehgc_serve_inflight", inflight);
          resident =
              ValueOr(samples, "freehgc_store_resident_bytes", resident);
        }
      }
      freehgc::obs::RateWindow& window = qps[s.shard_id];
      window.Add(now_ns, terminal);
      const double rate = window.RatePerSec();
      std::printf("%6u %6d %6s %10.1f %6.0f %9.0f %9.1fM %9.0f %7lld\n",
                  s.shard_id, s.port, "alive", rate, queue, inflight,
                  resident / 1e6, terminal,
                  static_cast<long long>(s.graphs));
      total_qps += rate;
      total_queue += queue;
      total_inflight += inflight;
      total_resident += resident;
      total_completed += terminal;
      total_graphs += static_cast<double>(s.graphs);
    }
    std::printf("%6s %6s %6s %10.1f %6.0f %9.0f %9.1fM %9.0f %7.0f\n\n",
                "TOTAL", "-", "-", total_qps, total_queue, total_inflight,
                total_resident / 1e6, total_completed, total_graphs);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int meta_port = 0;
  int interval_ms = 1000;
  long iterations = 0;  // 0 = forever
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (IntFlag(arg, "--port=", &port) ||
        IntFlag(arg, "--meta-port=", &meta_port) ||
        IntFlag(arg, "--interval-ms=", &interval_ms) ||
        IntFlag(arg, "--iterations=", &iterations)) {
      continue;
    }
    std::string v;
    if (FlagValue(arg, "--port-file=", &v)) {
      if (!ReadPortFile(v, &port)) Usage("cannot read port file " + v);
    } else if (FlagValue(arg, "--meta-port-file=", &v)) {
      if (!ReadPortFile(v, &meta_port)) Usage("cannot read port file " + v);
    } else if (arg == "--once") {
      iterations = 1;
    } else {
      Usage("unknown flag: " + arg);
    }
  }
  if (port <= 0 && meta_port <= 0) Usage("a port is required");
  if (interval_ms < 1) interval_ms = 1;
  if (meta_port > 0) return RunMetaMode(meta_port, interval_ms, iterations);

  ServeClient client;
  if (Status st = client.Connect(port); !st.ok()) {
    std::fprintf(stderr, "freehgc_top: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("%10s %9s %9s %9s %6s %9s %7s %6s %10s %8s %8s %6s\n", "qps",
              "p50ms", "p95ms", "p99ms", "queue", "inflight", "cache%",
              "tier%", "resident", "cacheMB", "spillMB", "evict");
  freehgc::obs::RateWindow qps;
  for (long iter = 0; iterations == 0 || iter < iterations; ++iter) {
    if (iter != 0) ::usleep(static_cast<useconds_t>(interval_ms) * 1000);
    auto text = client.Metrics();
    if (!text.ok()) {
      std::fprintf(stderr, "freehgc_top: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    const std::vector<PromSample> samples =
        freehgc::obs::ParsePrometheusText(*text);

    const double terminal =
        ValueOr(samples, "freehgc_serve_requests_completed_total", 0) +
        ValueOr(samples, "freehgc_serve_requests_failed_total", 0);
    qps.Add(freehgc::obs::NowNs(), terminal);

    const auto buckets = freehgc::obs::PromBuckets(
        samples, "freehgc_serve_latency_total_ns");
    const double p50 =
        freehgc::obs::QuantileFromCumulativeBuckets(buckets, 0.50) * 1e-6;
    const double p95 =
        freehgc::obs::QuantileFromCumulativeBuckets(buckets, 0.95) * 1e-6;
    const double p99 =
        freehgc::obs::QuantileFromCumulativeBuckets(buckets, 0.99) * 1e-6;

    const double hits =
        ValueOr(samples, "freehgc_pipeline_cache_hits_total", 0);
    const double misses =
        ValueOr(samples, "freehgc_pipeline_cache_misses_total", 0);
    const double hit_rate =
        hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0;
    // Share of hits served straight from the resident tier (the rest
    // were restored from spill files first).
    const double restores =
        ValueOr(samples, "freehgc_pipeline_cache_restores_total", 0);
    const double tier_rate = hits > 0 ? 100.0 * (hits - restores) / hits : 0.0;

    std::printf(
        "%10.1f %9.2f %9.2f %9.2f %6.0f %9.0f %7.1f %6.1f %9.1fM %8.1f "
        "%8.1f %6.0f\n",
        qps.RatePerSec(), p50, p95, p99,
        ValueOr(samples, "freehgc_serve_queue_depth", 0),
        ValueOr(samples, "freehgc_serve_inflight", 0), hit_rate, tier_rate,
        ValueOr(samples, "freehgc_store_resident_bytes", 0) / 1e6,
        ValueOr(samples, "freehgc_pipeline_cache_resident_bytes", 0) / 1e6,
        ValueOr(samples, "freehgc_pipeline_cache_spill_bytes_total", 0) / 1e6,
        ValueOr(samples, "freehgc_store_evictions_total", 0));
    std::fflush(stdout);
  }
  return 0;
}
