#include "replay.h"

#include <algorithm>
#include <vector>

#include "core/freehgc.h"
#include "exec/exec_context.h"
#include "graph/serialize.h"
#include "hgnn/propagate.h"
#include "hgnn/trainer.h"
#include "metapath/metapath.h"
#include "pipeline/artifact_cache.h"
#include "serve/graph_store.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace freehgc::perfbench {
namespace {

constexpr int kReplayReps = 3;

/// Runs `fn` inside a span named `name` below `parent`.
template <typename Fn>
auto Traced(SpanRecorder* rec, const char* name, int parent, Fn&& fn) {
  const int span = rec->Begin(name, parent);
  auto out = fn();
  rec->End(span);
  return out;
}

serve::ServeOptions MirrorOptions(const ReplayClass& c) {
  serve::ServeOptions opts;
  if (c.slots > 0) opts.slots = c.slots;
  if (!c.spill_dir.empty()) {
    opts.spill_dir = c.spill_dir + "/service-spill";
    opts.artifact_budget_bytes = c.artifact_budget_bytes;
    opts.store_resident_budget_bytes = c.resident_budget_bytes;
  }
  return opts;
}

/// Exec time of `c` through an in-process ServeService whose caches are in
/// the state the server's were in when the request ran.
Result<double> ServiceExecMs(const ReplayClass& c) {
  serve::ServeService service(MirrorOptions(c));
  if (!c.spill_dir.empty()) {
    FREEHGC_RETURN_IF_ERROR(
        service.store().SetSpoolDir(c.spill_dir + "/service-spool"));
  }
  FREEHGC_RETURN_IF_ERROR(
      service.store()
          .RegisterSerialized(c.request.graph, *c.container)
          .status());
  if (c.warm) {
    // A condense-only request under the same meta-path configuration,
    // like the server's set-up sends.
    serve::CondenseRequest warmup = c.request;
    warmup.seed += 7919;
    warmup.evaluate = false;
    warmup.return_graph = false;
    FREEHGC_RETURN_IF_ERROR(service.Condense(warmup).status());
  }
  FREEHGC_ASSIGN_OR_RETURN(serve::CondenseReply reply,
                           service.Condense(c.request));
  return (reply.total_seconds - reply.queue_seconds) * 1e3;
}

/// One traced replay; returns the duration of its execute span.
Result<double> ReplayExecMs(const ReplayClass& c, SpanRecorder* rec) {
  const serve::CondenseRequest& req = c.request;
  exec::ExecContext ex(exec::ThreadsPerSlot(MirrorOptions(c).slots));
  serve::GraphStore store;
  pipeline::ArtifactCache cache;
  if (!c.spill_dir.empty()) {
    pipeline::ArtifactCache::SpillOptions sp;
    sp.resident_bytes_budget = c.artifact_budget_bytes;
    sp.spill_dir = c.spill_dir + "/replay-spill";
    FREEHGC_RETURN_IF_ERROR(cache.ConfigureSpill(sp));
    FREEHGC_RETURN_IF_ERROR(store.SetSpoolDir(c.spill_dir + "/replay-spool"));
    store.SetResidentBudget(c.resident_budget_bytes);
  }

  hgnn::PropagateOptions popts;
  popts.max_hops = req.max_hops > 0 ? req.max_hops : 2;
  popts.max_paths = req.max_paths;
  popts.max_row_nnz = req.max_row_nnz;
  MetaPathOptions mp_opts;
  mp_opts.max_hops = popts.max_hops;
  mp_opts.max_paths = popts.max_paths;
  mp_opts.max_row_nnz = popts.max_row_nnz;
  core::FreeHgcOptions fopts;
  fopts.ratio = req.ratio;
  fopts.seed = req.seed;
  fopts.max_hops = popts.max_hops;
  fopts.max_paths = popts.max_paths;
  fopts.max_row_nnz = popts.max_row_nnz;

  // ServeService's two EvalContext builds: with a spill tier the blocks
  // come (streamed) through ArtifactCache::Propagated, without one
  // hgnn::BuildEvalContext propagates them directly.
  hgnn::EvalContext eval;
  eval.options = popts;
  auto propagate = [&](const HeteroGraph& g) {
    if (cache.spill_enabled()) {
      eval.full_features =
          *cache.Propagated(g, eval.paths, popts.max_row_nnz, &ex);
    } else {
      eval.full_features = hgnn::PropagateAlongPaths(
          g, eval.paths, popts.max_row_nnz, &ex, &cache);
    }
    return true;
  };

  // State the server already had before this request: the resident graph
  // and, for warm classes, the EvalContext plus the artifacts of one
  // earlier request under the same meta-path configuration.
  if (!c.upload) {
    FREEHGC_RETURN_IF_ERROR(
        store.RegisterSerialized(req.graph, *c.container).status());
  }
  if (c.warm) {
    FREEHGC_ASSIGN_OR_RETURN(serve::GraphStore::GraphRef g,
                             store.Get(req.graph));
    eval.paths = EnumerateMetaPaths(*g, g->target_type(), mp_opts);
    propagate(*g);
    core::FreeHgcOptions warmup = fopts;
    warmup.seed += 7919;
    FREEHGC_RETURN_IF_ERROR(core::Condense(*g, warmup, &ex, &cache).status());
  }

  const int root = rec->Begin("replay.request", -1, req.seed);
  if (c.upload) {
    const Status st = Traced(rec, "serve.graph_store.register", root, [&] {
      return store.RegisterSerialized(req.graph, *c.container).status();
    });
    FREEHGC_RETURN_IF_ERROR(st);
  }
  const int execute = rec->Begin("replay.execute", root);
  FREEHGC_ASSIGN_OR_RETURN(
      serve::GraphStore::GraphRef graph,
      Traced(rec, "serve.graph_store.get", execute,
             [&] { return store.Get(req.graph); }));
  if (!c.warm) {
    eval.paths = Traced(rec, "metapath.enumerate", execute, [&] {
      return EnumerateMetaPaths(*graph, graph->target_type(), mp_opts);
    });
    for (const MetaPath& p : eval.paths) {
      // Propagation composes only paths ending at a featured type.
      if (!graph->HasFeatures(p.end_type())) continue;
      Traced(rec, "metapath.compose", execute, [&] {
        return cache.Composed(*graph, p, popts.max_row_nnz, &ex) != nullptr;
      });
    }
    Traced(rec, "hgnn.propagate", execute, [&] { return propagate(*graph); });
  }
  eval.full = graph.get();

  const int condense = rec->Begin("core.condense", execute);
  FREEHGC_ASSIGN_OR_RETURN(core::CondensedResult res,
                           core::Condense(*graph, fopts, &ex, &cache));
  rec->End(condense);
  {
    // Stage children, rebuilt back to back from the reported
    // stage_seconds.
    const Span parent = rec->spans()[static_cast<size_t>(condense)];
    int64_t t = parent.start_ns;
    const std::pair<const char*, double> stages[] = {
        {"core.metapath", res.stage_seconds.metapath},
        {"core.target", res.stage_seconds.target},
        {"core.father", res.stage_seconds.father},
        {"core.leaf", res.stage_seconds.leaf},
        {"core.assemble", res.stage_seconds.assemble}};
    for (const auto& [name, seconds] : stages) {
      const int64_t end = t + static_cast<int64_t>(seconds * 1e9);
      rec->Add(name, t, end, condense, 0);
      t = end;
    }
  }

  serve::CondenseReply reply;
  reply.nodes = res.graph.TotalNodes();
  reply.edges = res.graph.TotalEdges();
  reply.condense_seconds = res.seconds;
  if (req.evaluate) {
    hgnn::HgnnConfig cfg = serve::ServeOptions().eval;
    cfg.seed = req.seed ^ 0xeea1ULL;
    const hgnn::EvalMetrics m = Traced(rec, "hgnn.train", execute, [&] {
      return hgnn::TrainAndEvaluate(eval, res.graph, cfg, &ex);
    });
    reply.evaluated = true;
    reply.accuracy = m.test_accuracy * 100.0f;
  }
  if (req.return_graph) {
    FREEHGC_ASSIGN_OR_RETURN(
        reply.graph_bytes, Traced(rec, "graph.serialize", execute, [&] {
          return SerializeHeteroGraph(res.graph);
        }));
  }
  if (cache.spill_enabled()) cache.TrimToBudget();
  rec->End(execute);

  const Status codec = Traced(rec, "serve.wire.codec", root, [&] {
    serve::WireWriter w;
    serve::EncodeCondenseReply(w, reply);
    serve::WireReader r(w.payload());
    return serve::DecodeCondenseReply(r).status();
  });
  FREEHGC_RETURN_IF_ERROR(codec);
  rec->End(root);

  const Span ex_span = rec->spans()[static_cast<size_t>(execute)];
  return static_cast<double>(ex_span.end_ns - ex_span.start_ns) * 1e-6;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

Result<ReplayResult> Replay(const ReplayClass& c, SpanRecorder* rec) {
  // Replay and service runs alternate, so a slow stretch of the machine
  // lands on both sides; the medians are compared.
  std::vector<double> replay, service;
  for (int i = 0; i < kReplayReps; ++i) {
    FREEHGC_ASSIGN_OR_RETURN(double r, ReplayExecMs(c, rec));
    FREEHGC_ASSIGN_OR_RETURN(double s, ServiceExecMs(c));
    replay.push_back(r);
    service.push_back(s);
  }
  return ReplayResult{Median(replay), Median(service)};
}

}  // namespace freehgc::perfbench
