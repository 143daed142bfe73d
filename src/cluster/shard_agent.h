#ifndef FREEHGC_CLUSTER_SHARD_AGENT_H_
#define FREEHGC_CLUSTER_SHARD_AGENT_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/result.h"
#include "cluster/meta_client.h"
#include "serve/service.h"

namespace freehgc::cluster {

struct ShardAgentOptions {
  uint32_t shard_id = 0;
  /// Port of the freehgc_meta service.
  int meta_port = 0;
  /// This shard's own serve port (what it advertises for routing).
  int serve_port = 0;
  /// Heartbeat cadence; clamped to a third of the meta-announced TTL so
  /// one dropped beat never looks like a death.
  int64_t heartbeat_ms = 500;
};

/// The shard side of the cluster: a background thread that registers the
/// owning ServeService with the meta service, then heartbeats its
/// GraphStore catalog (so uploads/removals reconcile into the placement
/// map) and its load (resident bytes + queue depth from the scheduler).
/// Self-healing: a lost meta connection reconnects with backoff, and a
/// meta that forgot the shard (restart, TTL expiry) triggers
/// re-registration.
class ShardAgent {
 public:
  /// `service` must outlive the agent.
  ShardAgent(ShardAgentOptions options, serve::ServeService* service);
  ~ShardAgent();

  ShardAgent(const ShardAgent&) = delete;
  ShardAgent& operator=(const ShardAgent&) = delete;

  /// Connects, registers, and starts the heartbeat thread. Fails if the
  /// meta service is unreachable or is not a meta service.
  Status Start();

  /// Stops the heartbeat thread (no deregistration — the meta service's
  /// TTL declares the shard dead, which is exactly the failover path).
  void Stop();

 private:
  void Loop();
  /// Builds the current announcement from the service's store/scheduler.
  RegisterShardRequest Announcement() const;
  HeartbeatRequest HeartbeatBody() const;

  const ShardAgentOptions options_;
  serve::ServeService* const service_;
  MetaClient meta_;
  int64_t interval_ms_ = 500;

  mutable std::mutex mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace freehgc::cluster

#endif  // FREEHGC_CLUSTER_SHARD_AGENT_H_
