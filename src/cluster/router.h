#ifndef FREEHGC_CLUSTER_ROUTER_H_
#define FREEHGC_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "cluster/meta_client.h"
#include "cluster/types.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/graph_store.h"
#include "serve/scheduler.h"

namespace freehgc::cluster {

struct RouterOptions {
  /// Port of the freehgc_meta service.
  int meta_port = 0;
  /// Rounds over the candidate shards before a request is failed. The
  /// placement is force-refreshed from the meta service between rounds.
  int attempts = 3;
  /// Base backoff between rounds (exponential: base, 2x, 4x, ...).
  int64_t backoff_ms = 50;
  /// Long-poll duration of the background watch (also the worst-case
  /// Close() latency while the watch is idle).
  int64_t watch_timeout_ms = 500;
  /// Run the background watcher thread that invalidates the placement
  /// cache on meta events. Off = the cache refreshes only on misses and
  /// failover-triggered re-resolves.
  bool enable_watch = true;
  /// After this many successful requests against one graph with a single
  /// live replica, the router replicates it to a second shard
  /// (FetchGraph from the holder, upload, placement record). 0 disables.
  int64_t hot_threshold = 64;
};

struct RouterStats {
  int64_t requests = 0;
  int64_t resolves = 0;      // meta round-trips (cache misses + refreshes)
  int64_t cache_hits = 0;
  int64_t failovers = 0;     // a candidate shard failed, another was tried
  int64_t retries = 0;       // full rounds exhausted, backoff taken
  int64_t shards_marked_dead = 0;  // local suspicion from failed calls
  int64_t replications = 0;  // hot graphs copied to a second shard
  int64_t invalidations = 0;  // cache entries dropped by watch events
};

/// Client-side shard routing (the `freehgc_client --meta-port` and
/// bench_cluster engine): resolves a graph name to its shard placement
/// through the meta service, caches placements, and keeps the cache
/// honest with a background Watch. Requests rotate over live replicas;
/// a dead shard (connection refused, closed mid-request) is marked
/// suspect immediately — before the meta service's heartbeat TTL fires —
/// and the request fails over to the next replica with exponential
/// backoff between rounds. Graphs that get hot while single-homed are
/// replicated to a second shard automatically.
///
/// Thread-safe: many threads may Condense concurrently (each request
/// uses its own shard connection; the shared meta connection is
/// serialized). The router's own registry is the only store of its
/// cluster.router.* counters; stats() snapshots it.
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connects to the meta service and starts the watcher.
  Status Connect();
  void Close();

  /// Uploads a graph through the placement path: ask the meta service to
  /// plan `replicas` shards, upload to each, then record the placement.
  Result<serve::GraphInfo> Upload(const std::string& name,
                                  std::string_view container, int replicas);

  /// Routes one condensation request to a live replica (with failover).
  Result<serve::CondenseReply> Condense(const serve::CondenseRequest& req);

  /// Fresh placement for `name` (forces a meta round-trip).
  Result<Placement> Resolve(const std::string& name);

  /// Cluster membership as the meta service sees it.
  Result<std::vector<ShardStatus>> Shards();

  RouterStats stats() const;

 private:
  Result<Placement> ResolveCached(const std::string& name, bool refresh);
  /// Candidate ports for one request round: live, not locally suspect,
  /// rotated so concurrent requests spread over replicas.
  std::vector<ShardEndpoint> Candidates(const Placement& placement,
                                        const std::string& graph);
  void MarkSuspect(uint32_t shard_id);
  /// Fired after a successful request: replicate `name` when it crossed
  /// the hot threshold while single-homed. Best-effort (failures only
  /// log).
  void MaybeReplicate(const std::string& name);
  void WatcherLoop();

  const RouterOptions options_;
  MetaClient meta_;       // resolve/place; guarded by meta_mu_
  std::mutex meta_mu_;

  std::atomic<bool> stop_{false};
  std::thread watcher_;

  mutable std::mutex mu_;
  std::map<std::string, Placement> cache_;
  /// Shards we saw fail before the meta TTL did; cleared by rejoin
  /// events (or a watch resync).
  std::set<uint32_t> suspect_;
  std::map<std::string, int64_t> request_counts_;
  std::map<std::string, uint64_t> rr_;
  std::set<std::string> replicating_;  // replication in flight per graph

  /// Cached references into metrics_, one counter per RouterStats field,
  /// registered at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& reg);
    obs::Counter& requests;
    obs::Counter& resolves;
    obs::Counter& cache_hits;
    obs::Counter& failovers;
    obs::Counter& retries;
    obs::Counter& shards_marked_dead;
    obs::Counter& replications;
    obs::Counter& invalidations;
  };

  obs::MetricsRegistry metrics_;
  Metrics m_;
};

}  // namespace freehgc::cluster

#endif  // FREEHGC_CLUSTER_ROUTER_H_
