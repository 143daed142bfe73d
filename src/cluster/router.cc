#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace freehgc::cluster {

Router::Metrics::Metrics(obs::MetricsRegistry& reg)
    : requests(reg.GetCounter("cluster.router.requests")),
      resolves(reg.GetCounter("cluster.router.resolves")),
      cache_hits(reg.GetCounter("cluster.router.cache_hits")),
      failovers(reg.GetCounter("cluster.router.failovers")),
      retries(reg.GetCounter("cluster.router.retries")),
      shards_marked_dead(reg.GetCounter("cluster.router.shards_marked_dead")),
      replications(reg.GetCounter("cluster.router.replications")),
      invalidations(reg.GetCounter("cluster.router.invalidations")) {}

Router::Router(RouterOptions options)
    : options_(std::move(options)), m_(metrics_) {}

Router::~Router() { Close(); }

Status Router::Connect() {
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    FREEHGC_RETURN_IF_ERROR(meta_.Connect(options_.meta_port));
  }
  if (options_.enable_watch) {
    watcher_ = std::thread([this] { WatcherLoop(); });
  }
  return Status::OK();
}

void Router::Close() {
  stop_.store(true, std::memory_order_release);
  if (watcher_.joinable()) watcher_.join();
  std::lock_guard<std::mutex> lock(meta_mu_);
  meta_.Close();
}

void Router::WatcherLoop() {
  // The watch long-polls on its own connection, so it never serializes
  // behind resolves on the shared meta client.
  MetaClient watch_meta;
  uint64_t since = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (!watch_meta.connected()) {
      if (!watch_meta.Connect(options_.meta_port).ok()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.watch_timeout_ms));
        continue;
      }
    }
    auto res = watch_meta.Watch(since, options_.watch_timeout_ms);
    if (!res.ok()) {
      watch_meta.Close();
      continue;
    }
    since = res->version;
    if (res->resync) {
      // We fell behind the bounded event log: drop everything and start
      // from the current version.
      std::lock_guard<std::mutex> lock(mu_);
      m_.invalidations.Add(static_cast<int64_t>(cache_.size()));
      cache_.clear();
      suspect_.clear();
      continue;
    }
    if (res->events.empty()) continue;
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetaEvent& e : res->events) {
      switch (e.type) {
        case MetaEventType::kPlacementChanged:
          if (cache_.erase(e.name) > 0) m_.invalidations.Increment();
          break;
        case MetaEventType::kShardJoined:
          suspect_.erase(e.shard_id);
          [[fallthrough]];
        case MetaEventType::kShardDead:
          // Membership changed: every cached placement's liveness flags
          // are stale.
          m_.invalidations.Add(static_cast<int64_t>(cache_.size()));
          cache_.clear();
          break;
      }
    }
  }
}

Result<Placement> Router::ResolveCached(const std::string& name,
                                        bool refresh) {
  if (!refresh) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(name);
    if (it != cache_.end()) {
      m_.cache_hits.Increment();
      return it->second;
    }
  }
  Result<Placement> placement = [&] {
    std::lock_guard<std::mutex> lock(meta_mu_);
    return meta_.Resolve(name);
  }();
  FREEHGC_RETURN_IF_ERROR(placement.status());
  m_.resolves.Increment();
  std::lock_guard<std::mutex> lock(mu_);
  cache_[name] = *placement;
  return *placement;
}

std::vector<ShardEndpoint> Router::Candidates(const Placement& placement,
                                              const std::string& graph) {
  std::vector<ShardEndpoint> live;
  uint64_t rotation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ShardEndpoint& ep : placement.shards) {
      if (ep.alive && suspect_.count(ep.shard_id) == 0) live.push_back(ep);
    }
    rotation = rr_[graph]++;
  }
  if (live.size() > 1) {
    std::rotate(live.begin(),
                live.begin() + static_cast<long>(rotation % live.size()),
                live.end());
  }
  return live;
}

void Router::MarkSuspect(uint32_t shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (suspect_.insert(shard_id).second) m_.shards_marked_dead.Increment();
}

Result<serve::CondenseReply> Router::Condense(
    const serve::CondenseRequest& req) {
  m_.requests.Increment();
  Status last_error = Status::Unavailable(
      StrFormat("no live shard holds graph '%s'", req.graph.c_str()));
  for (int round = 0; round < std::max(1, options_.attempts); ++round) {
    if (round > 0) {
      m_.retries.Increment();
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options_.backoff_ms << (round - 1)));
    }
    auto placement = ResolveCached(req.graph, /*refresh=*/round > 0);
    if (!placement.ok()) {
      last_error = placement.status();
      continue;
    }
    std::vector<ShardEndpoint> candidates = Candidates(*placement,
                                                       req.graph);
    if (candidates.empty() && round > 0) {
      // Meta liveness and local suspicion together ruled out every
      // replica; as a last resort try the suspects again (a shard that
      // merely restarted answers, a dead one fails fast).
      for (const ShardEndpoint& ep : placement->shards) {
        candidates.push_back(ep);
      }
    }
    bool first = true;
    for (const ShardEndpoint& ep : candidates) {
      if (!first) m_.failovers.Increment();
      first = false;
      serve::ServeClient shard;
      Status conn = shard.Connect(ep.port);
      if (!conn.ok()) {
        MarkSuspect(ep.shard_id);
        last_error = conn;
        continue;
      }
      auto reply = shard.Condense(req);
      if (reply.ok()) {
        MaybeReplicate(req.graph);
        return reply;
      }
      const StatusCode code = reply.status().code();
      if (code == StatusCode::kUnavailable || code == StatusCode::kInternal) {
        // Connection died mid-request (killed shard) — suspect it and
        // fail over.
        MarkSuspect(ep.shard_id);
        last_error = reply.status();
        continue;
      }
      if (code == StatusCode::kResourceExhausted) {
        // Overloaded, not dead: try a replica, leave liveness alone.
        last_error = reply.status();
        continue;
      }
      // Semantic errors (bad ratio, unknown method, ...) are the
      // caller's, not the shard's — no failover.
      return reply.status();
    }
  }
  return last_error;
}

Result<serve::GraphInfo> Router::Upload(const std::string& name,
                                        std::string_view container,
                                        int replicas) {
  PlaceRequest plan_req;
  plan_req.name = name;
  plan_req.bytes = container.size();
  plan_req.replicas = replicas;
  Result<Placement> plan = [&] {
    std::lock_guard<std::mutex> lock(meta_mu_);
    return meta_.Place(plan_req);
  }();
  FREEHGC_RETURN_IF_ERROR(plan.status());

  Result<serve::GraphInfo> info =
      Status::Unavailable("no shard accepted the upload");
  PlaceRequest record;
  record.name = name;
  record.bytes = container.size();
  for (const ShardEndpoint& ep : plan->shards) {
    serve::ServeClient shard;
    Status conn = shard.Connect(ep.port);
    if (!conn.ok()) {
      MarkSuspect(ep.shard_id);
      info = conn;
      continue;
    }
    auto uploaded = shard.UploadGraph(name, container);
    if (!uploaded.ok()) {
      info = uploaded.status();
      continue;
    }
    record.fingerprint = uploaded->fingerprint;
    record.shard_ids.push_back(ep.shard_id);
    info = *uploaded;
  }
  if (record.shard_ids.empty()) return info;
  Result<Placement> committed = [&] {
    std::lock_guard<std::mutex> lock(meta_mu_);
    return meta_.Place(record);
  }();
  FREEHGC_RETURN_IF_ERROR(committed.status());
  std::lock_guard<std::mutex> lock(mu_);
  cache_[name] = *committed;
  return info;
}

void Router::MaybeReplicate(const std::string& name) {
  if (options_.hot_threshold <= 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t count = ++request_counts_[name];
    // Trigger exactly at the threshold so steady-state requests don't pay
    // a meta round-trip re-checking an already-replicated graph.
    if (count != options_.hot_threshold) return;
    if (replicating_.count(name) > 0) return;
    replicating_.insert(name);
  }
  // Re-check single-homedness against a fresh placement, then copy
  // shard-to-shard: FetchGraph from the live holder, plan one extra
  // shard, upload, record. Best-effort: any failure leaves the cluster
  // as it was.
  Status st = [&]() -> Status {
    FREEHGC_ASSIGN_OR_RETURN(Placement placement, Resolve(name));
    std::vector<ShardEndpoint> live;
    for (const ShardEndpoint& ep : placement.shards) {
      if (ep.alive) live.push_back(ep);
    }
    if (live.size() != 1) return Status::OK();  // already replicated
    serve::ServeClient holder;
    FREEHGC_RETURN_IF_ERROR(holder.Connect(live[0].port));
    FREEHGC_ASSIGN_OR_RETURN(std::string container,
                             holder.FetchGraph(name));
    PlaceRequest plan_req;
    plan_req.name = name;
    plan_req.fingerprint = placement.fingerprint;
    plan_req.bytes = container.size();
    plan_req.replicas = 1;
    Result<Placement> plan = [&] {
      std::lock_guard<std::mutex> lock(meta_mu_);
      return meta_.Place(plan_req);
    }();
    FREEHGC_RETURN_IF_ERROR(plan.status());
    if (plan->shards.empty()) return Status::OK();  // nowhere to copy
    serve::ServeClient target;
    FREEHGC_RETURN_IF_ERROR(target.Connect(plan->shards[0].port));
    FREEHGC_ASSIGN_OR_RETURN(serve::GraphInfo uploaded,
                             target.UploadGraph(name, container));
    PlaceRequest record;
    record.name = name;
    record.fingerprint = uploaded.fingerprint;
    record.bytes = container.size();
    record.shard_ids.push_back(plan->shards[0].shard_id);
    Result<Placement> committed = [&] {
      std::lock_guard<std::mutex> lock(meta_mu_);
      return meta_.Place(record);
    }();
    FREEHGC_RETURN_IF_ERROR(committed.status());
    m_.replications.Increment();
    std::lock_guard<std::mutex> lock(mu_);
    cache_[name] = *committed;
    return Status::OK();
  }();
  if (!st.ok()) {
    FREEHGC_LOG(Warning) << "hot replication of '" << name
                         << "' failed: " << st.ToString();
  }
  std::lock_guard<std::mutex> lock(mu_);
  replicating_.erase(name);
}

Result<Placement> Router::Resolve(const std::string& name) {
  return ResolveCached(name, /*refresh=*/true);
}

Result<std::vector<ShardStatus>> Router::Shards() {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return meta_.ListShards();
}

RouterStats Router::stats() const {
  RouterStats s;
  s.requests = m_.requests.Value();
  s.resolves = m_.resolves.Value();
  s.cache_hits = m_.cache_hits.Value();
  s.failovers = m_.failovers.Value();
  s.retries = m_.retries.Value();
  s.shards_marked_dead = m_.shards_marked_dead.Value();
  s.replications = m_.replications.Value();
  s.invalidations = m_.invalidations.Value();
  return s;
}

}  // namespace freehgc::cluster
