#include "serve/service.h"

#include <utility>

#include "common/content_hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "graph/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/method.h"

namespace freehgc::serve {

ServeService::ServeService(ServeOptions options)
    : options_(std::move(options)),
      start_ns_(obs::NowNs()),
      scheduler_(std::make_unique<RequestScheduler>(
          options_,
          [this](const CondenseRequest& request, const RequestContext& rctx) {
            return Execute(request, rctx);
          })),
      evalctx_builds_(
          scheduler_->metrics().GetCounter("serve.evalctx.builds")) {
  if (!options_.access_log_path.empty()) {
    const Status st = access_log_.Open(options_.access_log_path);
    if (!st.ok()) {
      FREEHGC_LOG(Warning) << "access log disabled: " << st.message();
    }
  }
  if (options_.store_resident_budget_bytes != SIZE_MAX) {
    store_.SetResidentBudget(options_.store_resident_budget_bytes);
  }
  if (!options_.spill_dir.empty()) {
    pipeline::ArtifactCache::SpillOptions sp;
    sp.resident_bytes_budget = options_.artifact_budget_bytes;
    sp.spill_dir = options_.spill_dir;
    const Status st = cache_.ConfigureSpill(sp);
    if (!st.ok()) {
      FREEHGC_LOG(Warning) << "artifact spill disabled: " << st.message();
    }
  } else if (options_.artifact_budget_bytes != SIZE_MAX) {
    FREEHGC_LOG(Warning)
        << "artifact budget ignored: no spill dir configured";
  }
  if (options_.coalesce_requests) {
    // Work identity for request coalescing. Everything Execute() reads
    // from the request is mixed in except priority and deadline (which
    // change scheduling, not the reply) — two requests with equal keys
    // produce bit-identical replies because every stage downstream is
    // deterministic. Graph *name* (not fingerprint) keys the store
    // lookup, so a re-registered name never aliases: re-registration
    // happens outside any in-flight window in practice, and the name is
    // what Execute() resolves.
    scheduler_->set_coalesce_key([](const CondenseRequest& r) -> uint64_t {
      ContentHash f;
      f.Bytes(r.graph.data(), r.graph.size());
      f.Pod(uint8_t{0});
      f.Bytes(r.method.data(), r.method.size());
      f.Pod(uint8_t{0});
      f.Pod(r.ratio);
      f.Pod(r.seed);
      f.Pod(r.max_hops);
      f.Pod(r.max_paths);
      f.Pod(r.max_row_nnz);
      f.Pod(r.evaluate);
      f.Pod(r.return_graph);
      const uint64_t h = f.Digest();
      return h != 0 ? h : 1;  // 0 means "don't coalesce"
    });
  }
  // Spill-aware admission: read the budgeted tiers' resident gauges on
  // every Submit and shed instead of queueing work that would only
  // deepen spill-tier thrashing.
  const size_t art_budget =
      cache_.spill_enabled() ? options_.artifact_budget_bytes : SIZE_MAX;
  const size_t store_budget = options_.store_resident_budget_bytes;
  if (art_budget != SIZE_MAX || store_budget != SIZE_MAX) {
    scheduler_->set_admission_guard([this, art_budget,
                                     store_budget]() -> Status {
      auto over = [](size_t resident, size_t budget) {
        return budget != SIZE_MAX &&
               static_cast<double>(resident) >
                   kBudgetShedFactor * static_cast<double>(budget);
      };
      const size_t cached = cache_.stats().resident_bytes;
      if (over(cached, art_budget)) {
        return Status::ResourceExhausted(StrFormat(
            "artifact cache under budget pressure (%zu resident bytes "
            "> %.1fx the %zu-byte budget); request shed",
            cached, kBudgetShedFactor, art_budget));
      }
      const size_t mapped = store_.MappedResidentBytes();
      if (over(mapped, store_budget)) {
        return Status::ResourceExhausted(StrFormat(
            "graph store under budget pressure (%zu mapped-resident "
            "bytes > %.1fx the %zu-byte budget); request shed",
            mapped, kBudgetShedFactor, store_budget));
      }
      return Status::OK();
    });
  }
  // Access-log annotation: stamp cumulative artifact-cache counters onto
  // each line so per-request deltas fall out of consecutive entries.
  scheduler_->set_telemetry(
      &access_log_, [this](obs::AccessRecord& rec) {
        const pipeline::ArtifactCache::Stats c = cache_.stats();
        rec.cache_hits = c.hits;
        rec.cache_misses = c.misses;
      });
}

ServeService::~ServeService() { Shutdown(ShutdownMode::kDrain); }

Result<TicketPtr> ServeService::Submit(CondenseRequest request) {
  if (request.ratio <= 0.0 || request.ratio > 1.0) {
    return Status::InvalidArgument(
        StrFormat("ratio must be in (0, 1], got %g", request.ratio));
  }
  // An uncapped enumeration grows several-fold per hop, and FreeHGC
  // composes every path, so one request could hold a slot and the heap.
  if (request.max_paths < 1 || request.max_row_nnz < 0) {
    return Status::InvalidArgument(StrFormat(
        "need max_paths >= 1 and max_row_nnz >= 0, got %d and %lld",
        request.max_paths, static_cast<long long>(request.max_row_nnz)));
  }
  // Validate graph + method now so a bad request fails fast instead of
  // occupying a queue slot only to fail on a worker.
  FREEHGC_RETURN_IF_ERROR(store_.Info(request.graph).status());
  FREEHGC_RETURN_IF_ERROR(
      pipeline::MethodRegistry::Global().FindOrError(request.method)
          .status());
  return scheduler_->Submit(std::move(request));
}

Result<CondenseReply> ServeService::Condense(CondenseRequest request) {
  FREEHGC_ASSIGN_OR_RETURN(TicketPtr ticket, Submit(std::move(request)));
  return ticket->Wait();
}

bool ServeService::Cancel(uint64_t id) { return scheduler_->Cancel(id); }

void ServeService::Shutdown(ShutdownMode mode) { scheduler_->Shutdown(mode); }

Result<CondenseReply> ServeService::Execute(const CondenseRequest& request,
                                            const RequestContext& rctx) {
  exec::ExecContext* ctx = rctx.exec;
  FREEHGC_ASSIGN_OR_RETURN(
      const pipeline::CondensationMethod* method,
      pipeline::MethodRegistry::Global().FindOrError(request.method));
  // Held until the reply is built, and no longer: an idle graph stays
  // evictable under the store's residency budget.
  FREEHGC_ASSIGN_OR_RETURN(GraphStore::GraphRef graph,
                           store_.Get(request.graph));
  // The one translation of the request's meta-path fields.
  const MetaPathOptions mp{
      .max_hops = request.max_hops > 0 ? request.max_hops : 2,
      .max_row_nnz = request.max_row_nnz,
      .max_paths = request.max_paths};
  const pipeline::PipelineEnv env(ctx, &cache_);
  hgnn::EvalContext ectx;
  bool propagated = false;
  if (request.evaluate || method->reads_feature_blocks()) {
    FREEHGC_TRACE_SPAN("serve.build_eval_context");
    ectx = pipeline::BuildEvalContext(*graph, mp, env, &propagated);
    if (propagated) evalctx_builds_.Increment();
  } else {
    ectx.full = graph.get();
    ectx.options = mp;
  }

  pipeline::RunSpec spec;
  spec.ratio = request.ratio;
  spec.seed = request.seed;
  FREEHGC_ASSIGN_OR_RETURN(pipeline::CondensedData data,
                           method->Condense(ectx, spec, env));

  CondenseReply reply;
  reply.request_id = rctx.id;
  reply.evalctx_hit = !propagated;
  reply.graph_fingerprint = graph->ContentFingerprint();
  reply.condense_seconds = data.seconds;
  reply.storage_bytes = data.storage_bytes;
  if (!data.synthetic) {
    reply.nodes = data.graph.TotalNodes();
    reply.edges = data.graph.TotalEdges();
  }

  if (request.evaluate) {
    // Same seed derivation as pipeline::RunMethod, so a served evaluation
    // reproduces the sweep's numbers exactly.
    hgnn::HgnnConfig cfg = options_.eval;
    cfg.seed = request.seed ^ 0xeea1ULL;
    const hgnn::EvalMetrics metrics =
        data.synthetic
            ? hgnn::TrainOnBlocks(ectx, data.blocks, data.labels, cfg,
                                  ctx)
            : hgnn::TrainAndEvaluate(ectx, data.graph, cfg, ctx);
    reply.evaluated = true;
    reply.accuracy = metrics.test_accuracy * 100.0f;
    reply.macro_f1 = metrics.macro_f1 * 100.0f;
  }

  if (request.return_graph) {
    if (data.synthetic) {
      return Status::InvalidArgument(StrFormat(
          "method '%s' produces synthetic feature blocks, not a graph; "
          "return_graph is unsupported for it",
          request.method.c_str()));
    }
    FREEHGC_ASSIGN_OR_RETURN(reply.graph_bytes,
                             SerializeHeteroGraph(data.graph));
  }
  // Pins taken during condensation are released now; spill anything the
  // in-request inserts could not evict, so the resident gauge is back
  // under budget by the time anyone scrapes it.
  if (cache_.spill_enabled()) cache_.TrimToBudget();
  return reply;
}

std::string ServeService::StatsJson() const {
  const SchedulerStats s = scheduler_->stats();
  const pipeline::ArtifactCache::Stats c = cache_.stats();
  obs::MetricsRegistry& reg = scheduler_->metrics();
  std::string out = "{\n";
  out += StrFormat("  \"slots\": %d,\n", scheduler_->slots());
  out += StrFormat("  \"queue_capacity\": %d,\n",
                   scheduler_->queue_capacity());
  out += StrFormat(
      "  \"requests\": {\"admitted\": %lld, \"completed\": %lld, "
      "\"failed\": %lld, \"shed\": %lld, \"shed_budget\": %lld, "
      "\"shed_slo\": %lld, \"cancelled\": %lld, \"expired\": %lld, "
      "\"coalesced\": %lld, \"aged\": %lld},\n",
      static_cast<long long>(s.admitted), static_cast<long long>(s.completed),
      static_cast<long long>(s.failed), static_cast<long long>(s.shed),
      static_cast<long long>(s.shed_budget),
      static_cast<long long>(s.shed_slo),
      static_cast<long long>(s.cancelled), static_cast<long long>(s.expired),
      static_cast<long long>(s.coalesced), static_cast<long long>(s.aged));
  out += StrFormat("  \"queue_depth\": %lld,\n",
                   static_cast<long long>(s.queue_depth));
  out += StrFormat("  \"inflight\": %lld,\n",
                   static_cast<long long>(s.inflight));
  out += StrFormat(
      "  \"store\": {\"graphs\": %lld, \"mapped\": %lld, \"bytes\": %zu, "
      "\"resident_bytes\": %zu, \"mapped_resident_bytes\": %zu, "
      "\"evictions\": %lld},\n",
      static_cast<long long>(store_.Count()),
      static_cast<long long>(store_.MappedCount()), store_.TotalBytes(),
      store_.ResidentBytes(), store_.MappedResidentBytes(),
      static_cast<long long>(store_.Evictions()));
  out += StrFormat(
      "  \"artifact_cache\": {\"hits\": %lld, \"misses\": %lld, "
      "\"bytes\": %zu, \"resident_bytes\": %zu, \"spills\": %lld, "
      "\"restores\": %lld, \"spill_bytes\": %zu},\n",
      static_cast<long long>(c.hits), static_cast<long long>(c.misses),
      c.bytes, c.resident_bytes,
      static_cast<long long>(c.spills), static_cast<long long>(c.restores),
      c.spill_bytes);
  out += StrFormat("  \"eval_context_builds\": %lld,\n",
                   static_cast<long long>(eval_context_builds()));
  // Quantiles come from the same registry as the counters above.
  auto quantiles_ms = [&reg](const char* key, const char* histogram,
                             const char* tail) {
    const obs::Histogram& h = reg.GetHistogram(histogram);
    return StrFormat(
        "  \"%s\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}%s\n", key,
        static_cast<double>(h.ApproxQuantile(0.50)) * 1e-6,
        static_cast<double>(h.ApproxQuantile(0.95)) * 1e-6,
        static_cast<double>(h.ApproxQuantile(0.99)) * 1e-6, tail);
  };
  out += quantiles_ms("queue_ms", "serve.latency.queue_ns", ",");
  out += quantiles_ms("exec_ms", "serve.latency.exec_ns", ",");
  out += quantiles_ms("latency_ms", "serve.latency.total_ns", "");
  out += "}\n";
  return out;
}

std::string ServeService::HealthJson() const {
  const SchedulerStats s = scheduler_->stats();
  return StrFormat(
      "{\"status\": \"ok\", \"uptime_seconds\": %.3f, \"slots\": %d, "
      "\"queue_depth\": %lld, \"inflight\": %lld, \"graphs\": %lld}",
      static_cast<double>(obs::NowNs() - start_ns_) * 1e-9,
      scheduler_->slots(), static_cast<long long>(s.queue_depth),
      static_cast<long long>(s.inflight),
      static_cast<long long>(store_.Count()));
}

}  // namespace freehgc::serve
