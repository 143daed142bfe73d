#include "cluster/shard_agent.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace freehgc::cluster {

ShardAgent::ShardAgent(ShardAgentOptions options,
                       serve::ServeService* service)
    : options_(std::move(options)), service_(service),
      interval_ms_(options_.heartbeat_ms > 0 ? options_.heartbeat_ms : 500) {}

ShardAgent::~ShardAgent() { Stop(); }

RegisterShardRequest ShardAgent::Announcement() const {
  RegisterShardRequest req;
  req.shard_id = options_.shard_id;
  req.port = options_.serve_port;
  for (const serve::GraphInfo& info : service_->store().List()) {
    GraphAd ad;
    ad.name = info.name;
    ad.fingerprint = info.fingerprint;
    ad.bytes = info.memory_bytes;
    req.ads.push_back(std::move(ad));
  }
  return req;
}

HeartbeatRequest ShardAgent::HeartbeatBody() const {
  HeartbeatRequest req;
  req.shard_id = options_.shard_id;
  const serve::SchedulerStats stats = service_->scheduler_stats();
  req.load.resident_bytes = service_->store().TotalBytes();
  req.load.queue_depth = stats.queue_depth;
  req.load.inflight = stats.inflight;
  req.load.completed = stats.completed;
  const RegisterShardRequest ann = Announcement();
  req.ads = ann.ads;
  return req;
}

Status ShardAgent::Start() {
  FREEHGC_RETURN_IF_ERROR(meta_.Connect(options_.meta_port));
  FREEHGC_ASSIGN_OR_RETURN(RegisterShardReply reply,
                           meta_.RegisterShard(Announcement()));
  if (reply.ttl_ms > 0) {
    interval_ms_ = std::min(interval_ms_, std::max<int64_t>(reply.ttl_ms / 3,
                                                            1));
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void ShardAgent::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ShardAgent::Loop() {
  auto& sent = obs::MetricsRegistry::Global()
                   .GetCounter("cluster.shard.heartbeats");
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                        [&] { return stop_; });
      if (stop_) return;
    }
    if (!meta_.connected()) {
      if (!meta_.Connect(options_.meta_port).ok()) continue;  // backoff =
      // one heartbeat interval per attempt.
      if (!meta_.RegisterShard(Announcement()).ok()) {
        meta_.Close();
        continue;
      }
    }
    auto version = meta_.Heartbeat(HeartbeatBody());
    if (version.ok()) {
      sent.Increment();
      continue;
    }
    if (version.status().code() == StatusCode::kNotFound) {
      // The meta service forgot us (restart / TTL expiry): re-register
      // on the live connection, keeping the same cadence.
      if (!meta_.RegisterShard(Announcement()).ok()) meta_.Close();
      continue;
    }
    FREEHGC_LOG(Warning) << "shard " << options_.shard_id
                         << ": heartbeat failed, reconnecting: "
                         << version.status().ToString();
    meta_.Close();
  }
}

}  // namespace freehgc::cluster
