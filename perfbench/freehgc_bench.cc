// freehgc_bench: end-to-end benchmark of freehgc_server over its wire
// protocol.
//
//   freehgc_bench --workload cold_job|warm_open|train_eval|out_of_core|all
//                 [--seed 1] [--seconds 10] [--trace 0|1] [--smoke]
//                 [--work-dir DIR]
//
// It spawns the real freehgc_server, generates every input itself from
// --seed, and talks to the server only through serve::ServeClient over
// TCP. Every run checks the replies against in-process runs of the same
// code (see Checker); the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the workload runs once
// untraced and once with client spans, a layer replay follows, and the
// metrics are the per-layer ones. Details of the run go to BENCH_e2e.json,
// spans of a traced run to BENCH_trace.json, both in the working
// directory. The work of a run is a fixed function of the workload,
// --seed and --seconds, so two commits given the same flags do the same
// work. perfbench/README.md defines every metric.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/loadgen/loadgen.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "datasets/generator.h"
#include "exec/exec_context.h"
#include "graph/serialize.h"
#include "harness.h"
#include "hgnn/trainer.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/method.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/service.h"

namespace freehgc::perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Configuration

const std::vector<std::string> kWorkloads = {"cold_job", "warm_open",
                                             "train_eval", "out_of_core"};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Servers' port files, logs, spool and spill files go below
  /// <work_dir>/freehgc_bench, which each run empties and removes.
  std::string work_dir = ".bench_build/work";
};

constexpr const char* kServerPath = FREEHGC_SERVER_PATH;
constexpr const char* kDetailPath = "BENCH_e2e.json";
constexpr const char* kTracePath = "BENCH_trace.json";

/// What --seed does not vary: the datasets (the generator seed of every
/// graph), the open-loop arrival schedules, and the accuracy probes. The
/// seed picks the request population instead (the condensation seeds of
/// every request and class), so the holdout seed asks different questions
/// of the same datasets under the same traffic shape.
constexpr uint64_t kDatasetSeed = 1;
constexpr uint64_t kScheduleSeed = 1;
constexpr uint64_t kProbeSeed = 1;
/// Server set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Open-loop service level: p90 latency limit and failed share.
constexpr double kSloP90Ms = 250.0;
constexpr double kSloFailFrac = 0.01;
/// Arrivals further behind schedule than this are not sent.
constexpr int64_t kLateCapNs = 1'000'000'000;

// ---------------------------------------------------------------------------
// Inputs

struct GraphSpec {
  std::string name;
  std::string preset;
  double scale = 1.0;
};

struct Input {
  GraphSpec spec;
  HeteroGraph graph;
  std::string container;
  uint64_t fingerprint = 0;
};

using Inputs = std::vector<std::unique_ptr<Input>>;

Result<Inputs> Generate(const std::vector<GraphSpec>& specs, uint64_t seed) {
  Inputs out;
  for (const GraphSpec& spec : specs) {
    auto in = std::make_unique<Input>();
    in->spec = spec;
    FREEHGC_ASSIGN_OR_RETURN(
        in->graph, datasets::MakeByName(spec.preset, seed, spec.scale,
                                        &exec::DefaultExec()));
    FREEHGC_ASSIGN_OR_RETURN(in->container, SerializeHeteroGraph(in->graph));
    in->fingerprint = in->graph.ContentFingerprint();
    out.push_back(std::move(in));
  }
  return out;
}

const Input& Find(const Inputs& inputs, const std::string& name) {
  for (const auto& in : inputs) {
    if (in->spec.name == name) return *in;
  }
  FREEHGC_CHECK(false) << "no input named " << name;
  return *inputs.front();
}

/// The five graphs of cold_job, train_eval and out_of_core, largest
/// first; smoke runs use two tiny ones.
std::vector<GraphSpec> FiveGraphs(bool smoke, double scale,
                                  double aminer_scale) {
  if (smoke) return {{"acm", "acm", 0.05}, {"dblp", "dblp", 0.03}};
  return {{"aminer", "aminer", aminer_scale},
          {"freebase", "freebase", scale},
          {"imdb", "imdb", scale},
          {"dblp", "dblp", scale},
          {"acm", "acm", scale}};
}

Result<Inputs> WorkloadInputs(const std::string& workload, bool smoke) {
  if (workload == "warm_open") {
    if (smoke) return Generate(FiveGraphs(true, 0.0, 0.0), kDatasetSeed);
    return Generate({{"acm", "acm", 0.3}, {"dblp", "dblp", 1.0}},
                    kDatasetSeed);
  }
  if (workload == "train_eval") {
    return Generate(FiveGraphs(smoke, 0.3, 0.075), kDatasetSeed);
  }
  return Generate(
      FiveGraphs(smoke, 1.0, workload == "out_of_core" ? 0.5 : 0.25),
      kDatasetSeed);
}

serve::CondenseRequest Request(const std::string& graph, double ratio,
                               uint64_t seed, int max_paths = 12) {
  serve::CondenseRequest r;
  r.graph = graph;
  r.ratio = ratio;
  r.seed = seed;
  r.max_paths = max_paths;
  return r;
}

std::string ClassKey(const serve::CondenseRequest& r) {
  return StrFormat("%s r=%.4f seed=%llu paths=%d hops=%d nnz=%lld eval=%d "
                   "graph=%d",
                   r.graph.c_str(), r.ratio,
                   static_cast<unsigned long long>(r.seed), r.max_paths,
                   r.max_hops, static_cast<long long>(r.max_row_nnz),
                   r.evaluate ? 1 : 0, r.return_graph ? 1 : 0);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of millisecond samples (loadgen::QuantileMs).
double Quantile(const std::vector<double>& ms, double q) {
  std::vector<int64_t> ns;
  ns.reserve(ms.size());
  for (double v : ms) ns.push_back(static_cast<int64_t>(v * 1e6));
  return loadgen::QuantileMs(std::move(ns), q);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Reply collection

/// The first reply seen for one request class.
struct ObservedClass {
  serve::CondenseRequest request;
  serve::CondenseReply reply;
};

/// Everything a workload's replies showed. Reply() is thread-safe; the
/// fields are read after the workload's threads have joined.
class Collector {
 public:
  /// One completed condense request against a graph uploaded with
  /// fingerprint `uploaded_fp`; `rtt_ms` is null for untimed requests.
  /// Checks the reply against the upload and against earlier replies of
  /// the same class.
  void Reply(const serve::CondenseRequest& req, uint64_t uploaded_fp,
             const double* rtt_ms, const serve::CondenseReply& reply) {
    std::lock_guard<std::mutex> lock(mu_);
    if (rtt_ms != nullptr) {
      ++replies;
      const double total_ms = reply.total_seconds * 1e3;
      const double queue_ms = reply.queue_seconds * 1e3;
      wire_overhead_ms.push_back(*rtt_ms - total_ms);
      queue_wait_ms.push_back(queue_ms);
      exec_ms.push_back(total_ms - queue_ms);
      if (reply.evalctx_hit) {
        ++evalctx_hits;
      } else if (!req.evaluate) {
        evalctx_build_ms.push_back(total_ms - queue_ms -
                                   reply.condense_seconds * 1e3);
      }
      if (req.return_graph) {
        reply_kb.push_back(static_cast<double>(reply.graph_bytes.size()) /
                           1024.0);
      }
    }
    if (req.evaluate) acc.push_back(reply.accuracy);
    const std::string key = ClassKey(req);
    if (reply.graph_fingerprint != uploaded_fp) {
      errors.push_back(StrFormat(
          "%s: reply graph_fingerprint %016llx != uploaded %016llx",
          key.c_str(),
          static_cast<unsigned long long>(reply.graph_fingerprint),
          static_cast<unsigned long long>(uploaded_fp)));
    }
    auto it = classes_.find(key);
    if (it == classes_.end()) {
      class_order.push_back(key);
      classes_[key] = ObservedClass{req, reply};
      return;
    }
    const serve::CondenseReply& first = it->second.reply;
    if (first.nodes != reply.nodes || first.edges != reply.edges ||
        first.accuracy != reply.accuracy ||
        first.graph_bytes != reply.graph_bytes) {
      errors.push_back(key + ": replies of one class differ");
    }
  }

  void Error(std::string what) {
    std::lock_guard<std::mutex> lock(mu_);
    errors.push_back(std::move(what));
  }

  const ObservedClass& Observed(const std::string& key) const {
    return classes_.at(key);
  }

  int64_t replies = 0;  // timed replies
  int64_t evalctx_hits = 0;
  std::vector<double> wire_overhead_ms, queue_wait_ms, exec_ms,
      evalctx_build_ms, reply_kb, acc;
  std::vector<std::string> class_order;
  std::vector<std::string> errors;

 private:
  std::mutex mu_;
  std::map<std::string, ObservedClass> classes_;
};

// ---------------------------------------------------------------------------
// Server counters, scraped with the METRICS op

struct CounterName {
  const char* registry;  // obs registry name
  bool gauge;
};

const CounterName kCounters[] = {
    {"serve.requests.completed", false},
    {"serve.requests.shed", false},
    {"serve.requests.expired", false},
    {"serve.coalesced", false},
    {"serve.evalctx.builds", false},
    {"pipeline.cache.hits", false},
    {"pipeline.cache.misses", false},
    {"pipeline.cache.plan_hits", false},
    {"pipeline.cache.plan_misses", false},
    {"pipeline.cache.spills", false},
    {"pipeline.cache.restores", false},
    {"pipeline.cache.spill_bytes", false},
    {"store.evictions", false},
    {"store.remaps", false},
    {"spgemm.flops", false},
    {"spgemm.output_nnz", false},
    {"ppr.iterations", false},
    {"metapath.compose_calls", false},
    {"hgnn.blocks_propagated", false},
    {"hgnn.epochs", false},
    {"pipeline.cache.bytes", true},
    {"pipeline.cache.resident_bytes", true},
};

using Counters = std::map<std::string, double>;

Result<Counters> Scrape(serve::ServeClient& client) {
  FREEHGC_ASSIGN_OR_RETURN(std::string text, client.Metrics());
  const std::vector<obs::PromSample> samples = obs::ParsePrometheusText(text);
  Counters out;
  for (const CounterName& c : kCounters) {
    double v = 0.0;
    obs::FindPromValue(
        samples, obs::PrometheusName(c.registry) + (c.gauge ? "" : "_total"),
        &v);
    out[c.registry] = v;
  }
  return out;
}

/// Adds after - before to `sum`; gauges keep the last value.
void AddDelta(const Counters& before, const Counters& after, Counters* sum) {
  for (const CounterName& c : kCounters) {
    const double a = after.at(c.registry);
    double& s = (*sum)[c.registry];
    s = c.gauge ? a : s + a - before.at(c.registry);
  }
}

// ---------------------------------------------------------------------------
// Workload plumbing

struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  double throughput_rps = 0.0;
  double peak_rss_mb = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  Collector col;
  Counters counters;
  std::vector<double> server_start_ms;
  std::vector<double> upload_ms;
  double max_lag_ms = 0.0;
  int64_t late_drops = 0;
  std::vector<ReplayClass> replay;
  std::string detail;  // workload-specific JSON fields
};

/// Shared state of one workload run.
struct Ctx {
  const Config& cfg;
  const Inputs& inputs;
  std::string dir;    // scratch directory of this run
  SpanRecorder* rec;  // null = untraced
  RunResult* out;
};

Status StartServer(const Ctx& c, ServerProcess* proc, const std::string& tag,
                   const std::vector<std::string>& flags) {
  FREEHGC_RETURN_IF_ERROR(proc->Start(kServerPath, c.dir, tag, flags));
  c.out->server_start_ms.push_back(proc->start_ms());
  return Status::OK();
}

Status Upload(const Ctx& c, serve::ServeClient& client, const Input& in,
              int parent = -1) {
  const int span =
      c.rec != nullptr ? c.rec->Begin("client.upload", parent) : -1;
  const int64_t t0 = obs::NowNs();
  FREEHGC_ASSIGN_OR_RETURN(serve::GraphInfo info,
                           client.UploadGraph(in.spec.name, in.container));
  const int64_t t1 = obs::NowNs();
  if (span >= 0) c.rec->End(span);
  c.out->upload_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  if (info.fingerprint != in.fingerprint) {
    return Status::Internal(StrFormat(
        "upload of %s registered fingerprint %016llx, expected %016llx",
        in.spec.name.c_str(),
        static_cast<unsigned long long>(info.fingerprint),
        static_cast<unsigned long long>(in.fingerprint)));
  }
  return Status::OK();
}

/// One timed condense round trip, recorded in the collector. Traced, it
/// is a client.condense span whose "reported.*" children are rebuilt
/// from the reply's queue/exec/condense durations, centred in the round
/// trip.
Status Send(const Ctx& c, serve::ServeClient& client,
            const serve::CondenseRequest& req, int parent = -1,
            double* rtt_ms_out = nullptr) {
  const int span =
      c.rec != nullptr ? c.rec->Begin("client.condense", parent) : -1;
  const int64_t t0 = obs::NowNs();
  Result<serve::CondenseReply> reply = client.Condense(req);
  const int64_t t1 = obs::NowNs();
  if (!reply.ok()) return reply.status();
  const double rtt_ms = static_cast<double>(t1 - t0) * 1e-6;
  if (rtt_ms_out != nullptr) *rtt_ms_out = rtt_ms;
  if (span >= 0) {
    c.rec->End(span);
    const int64_t total = static_cast<int64_t>(reply->total_seconds * 1e9);
    const int64_t queue = static_cast<int64_t>(reply->queue_seconds * 1e9);
    const int64_t cond = static_cast<int64_t>(reply->condense_seconds * 1e9);
    const int64_t s0 = t0 + std::max<int64_t>(0, (t1 - t0 - total) / 2);
    const uint64_t id = reply->request_id;
    c.rec->Add("reported.queue", s0, s0 + queue, span, id);
    const int exec =
        c.rec->Add("reported.exec", s0 + queue, s0 + total, span, id);
    c.rec->Add("reported.condense", s0 + queue, s0 + queue + cond, exec, id);
    c.rec->SetRequestId(span, id);
  }
  c.out->col.Reply(req, Find(c.inputs, req.graph).fingerprint, &rtt_ms,
                   *reply);
  return Status::OK();
}

/// Accuracy probes, sent untimed after the measured window: one
/// evaluate=true request per graph, so every workload reports the
/// accuracy its server configuration serves.
Status Probe(const Ctx& c, serve::ServeClient& client,
             const std::vector<std::string>& graphs) {
  for (const std::string& g : graphs) {
    serve::CondenseRequest req = Request(g, 0.024, kProbeSeed);
    req.evaluate = true;
    FREEHGC_ASSIGN_OR_RETURN(serve::CondenseReply reply, client.Condense(req));
    c.out->col.Reply(req, Find(c.inputs, g).fingerprint, nullptr, reply);
  }
  return Status::OK();
}

/// Closed loop: every connection takes the next request of `reqs` as soon
/// as its previous reply lands, until none are left.
void ClosedLoop(const Ctx& c, std::vector<serve::ServeClient>& clients,
                const std::vector<serve::CondenseRequest>& reqs) {
  std::atomic<size_t> next{0};
  std::atomic<int64_t> failed{0};
  std::vector<std::vector<double>> lat(clients.size());
  const int64_t t0 = obs::NowNs();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < reqs.size(); i = next++) {
        const int root =
            c.rec != nullptr ? c.rec->Begin("client.request", -1) : -1;
        double rtt = 0.0;
        const Status st = Send(c, clients[t], reqs[i], root, &rtt);
        if (root >= 0) c.rec->End(root);
        if (!st.ok()) {
          ++failed;
          c.out->col.Error(ClassKey(reqs[i]) + ": " + st.ToString());
          continue;
        }
        lat[t].push_back(rtt);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = static_cast<double>(obs::NowNs() - t0) * 1e-9;
  for (const auto& l : lat) {
    c.out->latency_ms.insert(c.out->latency_ms.end(), l.begin(), l.end());
  }
  const int64_t n = static_cast<int64_t>(reqs.size());
  c.out->attempted += n;
  c.out->failed += failed.load();
  c.out->throughput_rps = static_cast<double>(n - failed.load()) / wall_s;
}

/// The set-up of warm_open, train_eval and out_of_core, repeated on fresh
/// servers (the last one stays up): spawn, connect, upload every graph,
/// then send `warmup` so the EvalContexts the workload relies on exist.
/// The warm-up goes out one request at a time, so which builds overlap,
/// and with it the server's memory high-water mark, does not depend on
/// timing. `flags_for(rep)` gives each server its flags.
Status RepeatedSetup(
    const Ctx& c, const std::vector<serve::CondenseRequest>& warmup,
    const std::function<std::vector<std::string>(int)>& flags_for,
    ServerProcess* server, std::vector<serve::ServeClient>& clients) {
  const int reps = c.cfg.smoke ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    for (auto& cl : clients) cl.Close();
    server->Stop();
    const int64_t t0 = obs::NowNs();
    FREEHGC_RETURN_IF_ERROR(StartServer(
        c, server, StrFormat("%s-setup%d", c.cfg.workload.c_str(), rep),
        flags_for(rep)));
    for (auto& cl : clients) {
      FREEHGC_RETURN_IF_ERROR(cl.Connect(server->port()));
    }
    for (const auto& in : c.inputs) {
      FREEHGC_RETURN_IF_ERROR(Upload(c, clients[0], *in));
    }
    for (const serve::CondenseRequest& req : warmup) {
      FREEHGC_RETURN_IF_ERROR(clients[0].Condense(req).status());
    }
    c.out->setup_s.push_back(static_cast<double>(obs::NowNs() - t0) * 1e-9);
  }
  return Status::OK();
}

std::vector<std::string> NoFlags(int) { return {}; }

// ---------------------------------------------------------------------------
// cold_job: a fresh server per job; upload, then four ratios with
// return_graph, closed loop on one connection.

const double kColdRatios[] = {0.012, 0.024, 0.048, 0.096};
/// Nominal seconds of one cycle over the five graphs (sizes the run).
constexpr double kColdCycleSeconds = 3.0;

Status ColdJob(const Ctx& c) {
  RunResult& out = *c.out;
  const Inputs& inputs = c.inputs;
  const int cycles =
      c.cfg.smoke ? 1
                  : std::max(1, static_cast<int>(std::lround(
                                    c.cfg.seconds / kColdCycleSeconds)));
  const int jobs = cycles * static_cast<int>(inputs.size());
  double busy_s = 0.0;
  for (int j = 0; j < jobs; ++j) {
    const Input& in = *inputs[static_cast<size_t>(j) % inputs.size()];
    ServerProcess server;
    serve::ServeClient client;
    const int64_t s0 = obs::NowNs();
    FREEHGC_RETURN_IF_ERROR(
        StartServer(c, &server, StrFormat("cold_job-%d", j), {}));
    FREEHGC_RETURN_IF_ERROR(client.Connect(server.port()));
    FREEHGC_RETURN_IF_ERROR(client.Ping());
    out.setup_s.push_back(static_cast<double>(obs::NowNs() - s0) * 1e-9);
    FREEHGC_ASSIGN_OR_RETURN(Counters before, Scrape(client));

    const int root = c.rec != nullptr ? c.rec->Begin("client.job", -1) : -1;
    const int64_t t0 = obs::NowNs();
    FREEHGC_RETURN_IF_ERROR(Upload(c, client, in, root));
    for (double r : kColdRatios) {
      serve::CondenseRequest req = Request(in.spec.name, r, c.cfg.seed * 1000);
      req.return_graph = true;
      ++out.attempted;
      const Status st = Send(c, client, req, root);
      if (!st.ok()) {
        ++out.failed;
        out.col.Error(ClassKey(req) + ": " + st.ToString());
      }
    }
    const int64_t t1 = obs::NowNs();
    if (root >= 0) c.rec->End(root);
    out.latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    busy_s += static_cast<double>(t1 - t0) * 1e-9;

    FREEHGC_ASSIGN_OR_RETURN(Counters after, Scrape(client));
    AddDelta(before, after, &out.counters);
    out.peak_rss_mb = std::max(out.peak_rss_mb, server.PeakRssMb());
    if (j + 1 == jobs) {
      FREEHGC_RETURN_IF_ERROR(Probe(c, client, {in.spec.name}));
    }
    if (j < static_cast<int>(inputs.size())) {
      ReplayClass rc;
      rc.container = &in.container;
      rc.request = Request(in.spec.name, kColdRatios[0], c.cfg.seed * 1000);
      rc.request.return_graph = true;
      rc.warm = false;
      rc.upload = true;
      out.replay.push_back(rc);
    }
  }
  out.throughput_rps =
      static_cast<double>(jobs * std::size(kColdRatios)) / busy_s;
  out.detail = StrFormat("\"jobs\": %d", jobs);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// warm_open: open loop over 120 Pareto-weighted warm classes at fixed
// rates: a steady step, then a rate ladder up to the first step that
// misses the service level.

const int kWarmPaths[] = {4, 6, 8};
const double kWarmRatios[] = {0.024, 0.048};
/// Fixed absolute rates, ~1.19x apart, so the crossing is interpolated
/// between close steps and parent and change face the same offered load.
const double kLadderRps[] = {40,  48,  57,  68,  80,  95,  113, 135, 160,
                             190, 226, 269, 320, 381, 453, 539, 640};
constexpr double kSteadyRps = 20.0;
constexpr int kOpenThreads = 4;

struct StepResult {
  double rps = 0.0;
  int64_t arrivals = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t late = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;  // every arrival; a late drop counts as the cap
  double p99_ms = 0.0;
  bool pass = false;
};

Result<StepResult> OpenStep(const Ctx& c,
                            std::vector<serve::ServeClient>& clients,
                            const std::vector<loadgen::RequestClass>& classes,
                            double rps, double seconds, uint64_t seed,
                            std::vector<double>* ok_latency_ms) {
  loadgen::LoadSpec spec;
  spec.seed = seed;
  spec.classes = classes;
  spec.phases.push_back({StrFormat("%.0frps", rps), seconds, rps, rps});
  const std::vector<loadgen::Arrival> schedule = loadgen::BuildSchedule(spec);
  double lag = 0.0;
  const std::vector<ArrivalOutcome> outcomes = RunCappedOpenLoop(
      spec, schedule, kOpenThreads, kLateCapNs,
      [&](size_t, const serve::CondenseRequest& req, int thread) {
        const int root =
            c.rec != nullptr ? c.rec->Begin("client.request", -1) : -1;
        const Status st =
            Send(c, clients[static_cast<size_t>(thread)], req, root);
        if (root >= 0) c.rec->End(root);
        if (!st.ok()) c.out->col.Error(ClassKey(req) + ": " + st.ToString());
        return st;
      },
      &lag);
  StepResult s;
  s.rps = rps;
  s.arrivals = static_cast<int64_t>(outcomes.size());
  std::vector<double> all_ms, ok_ms;
  for (const ArrivalOutcome& o : outcomes) {
    switch (o.kind) {
      case ArrivalOutcome::Kind::kOk:
        ++s.ok;
        ok_ms.push_back(static_cast<double>(o.latency_ns) * 1e-6);
        all_ms.push_back(ok_ms.back());
        break;
      case ArrivalOutcome::Kind::kFailed:
        ++s.failed;
        all_ms.push_back(static_cast<double>(kLateCapNs) * 1e-6);
        break;
      case ArrivalOutcome::Kind::kLateDrop:
        ++s.late;
        all_ms.push_back(static_cast<double>(kLateCapNs) * 1e-6);
        break;
    }
  }
  s.p50_ms = Quantile(ok_ms, 0.50);
  s.p90_ms = Quantile(all_ms, 0.90);
  s.p99_ms = Quantile(ok_ms, 0.99);
  s.pass = s.arrivals > 0 && s.p90_ms <= kSloP90Ms &&
           static_cast<double>(s.failed + s.late) <=
               kSloFailFrac * static_cast<double>(s.arrivals);
  c.out->max_lag_ms = std::max(c.out->max_lag_ms, lag);
  c.out->late_drops += s.late;
  c.out->attempted += s.ok + s.failed;
  c.out->failed += s.failed;
  if (ok_latency_ms != nullptr) *ok_latency_ms = ok_ms;
  return s;
}

/// Rate at which p90 crosses the service level, log-interpolated between
/// the last passing step and the first failing one.
double CrossingRate(const StepResult& pass, const StepResult& fail) {
  const double p_lo = std::max(pass.p90_ms, 1e-3);
  const double p_hi = std::max(fail.p90_ms, kSloP90Ms * 1.0001);
  if (p_hi <= p_lo) return pass.rps;
  const double frac = std::log(kSloP90Ms / p_lo) / std::log(p_hi / p_lo);
  return pass.rps * std::pow(fail.rps / pass.rps, std::clamp(frac, 0.0, 1.0));
}

std::string StepJson(const StepResult& s) {
  return StrFormat(
      "{\"rps\": %.0f, \"arrivals\": %lld, \"ok\": %lld, \"late\": %lld, "
      "\"failed\": %lld, \"p50_ms\": %.3f, \"p90_ms\": %.3f, "
      "\"p99_ms\": %.3f, \"pass\": %s}",
      s.rps, static_cast<long long>(s.arrivals), static_cast<long long>(s.ok),
      static_cast<long long>(s.late), static_cast<long long>(s.failed),
      s.p50_ms, s.p90_ms, s.p99_ms, s.pass ? "true" : "false");
}

Status WarmOpen(const Ctx& c) {
  RunResult& out = *c.out;
  const uint64_t seed_base = c.cfg.seed * 1000;
  std::vector<loadgen::RequestClass> classes;
  std::vector<serve::CondenseRequest> warmup;
  for (const auto& in : c.inputs) {
    for (int p : kWarmPaths) {
      warmup.push_back(Request(in->spec.name, kWarmRatios[0], seed_base, p));
      for (double r : kWarmRatios) {
        for (uint64_t s = 1; s <= 10; ++s) {
          loadgen::RequestClass cls;
          cls.request = Request(in->spec.name, r, seed_base + s, p);
          cls.name = ClassKey(cls.request);
          classes.push_back(cls);
        }
      }
    }
  }
  ServerProcess server;
  std::vector<serve::ServeClient> clients(kOpenThreads);
  FREEHGC_RETURN_IF_ERROR(RepeatedSetup(c, warmup, NoFlags, &server, clients));
  FREEHGC_ASSIGN_OR_RETURN(Counters before, Scrape(clients[0]));

  const double steady_s = c.cfg.smoke ? 1.0 : 0.5 * c.cfg.seconds;
  const double step_s = c.cfg.smoke ? 0.5 : c.cfg.seconds / 5.0;
  FREEHGC_ASSIGN_OR_RETURN(StepResult steady,
                           OpenStep(c, clients, classes, kSteadyRps, steady_s,
                                    kScheduleSeed, &out.latency_ms));
  std::string steps;
  StepResult last_pass = steady;
  double max_rate = kSteadyRps;
  for (double rps : kLadderRps) {
    FREEHGC_ASSIGN_OR_RETURN(
        StepResult s,
        OpenStep(c, clients, classes, rps, step_s,
                 kScheduleSeed + static_cast<uint64_t>(rps), nullptr));
    steps += (steps.empty() ? "" : ", ") + StepJson(s);
    if (!s.pass) {
      max_rate = CrossingRate(last_pass, s);
      break;
    }
    last_pass = s;
    max_rate = rps;
    if (c.cfg.smoke) break;
  }
  out.throughput_rps = max_rate;

  FREEHGC_ASSIGN_OR_RETURN(Counters after, Scrape(clients[0]));
  AddDelta(before, after, &out.counters);
  out.peak_rss_mb = server.PeakRssMb();
  std::vector<std::string> graphs;
  for (const auto& in : c.inputs) graphs.push_back(in->spec.name);
  FREEHGC_RETURN_IF_ERROR(Probe(c, clients[0], graphs));

  for (const auto& in : c.inputs) {
    ReplayClass rc;
    rc.container = &in->container;
    rc.request = Request(in->spec.name, kWarmRatios[0], seed_base + 1,
                         kWarmPaths[0]);
    out.replay.push_back(rc);
  }
  out.detail = StrFormat("\"steady\": %s, \"ladder\": [%s]",
                         StepJson(steady).c_str(), steps.c_str());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// train_eval: evaluate=true requests over the five graphs in a fixed
// order, closed loop on two connections.

const double kTrainRatios[] = {0.012, 0.024};
/// Nominal seconds of one round (5 graphs x 2 ratios; sizes the run).
constexpr double kTrainRoundSeconds = 1.5;

Status TrainEval(const Ctx& c) {
  RunResult& out = *c.out;
  const uint64_t seed_base = c.cfg.seed * 1000;
  std::vector<serve::CondenseRequest> warmup;
  for (const auto& in : c.inputs) {
    warmup.push_back(Request(in->spec.name, kTrainRatios[0], seed_base));
  }
  ServerProcess server;
  std::vector<serve::ServeClient> clients(2);
  FREEHGC_RETURN_IF_ERROR(RepeatedSetup(c, warmup, NoFlags, &server, clients));

  const int rounds =
      c.cfg.smoke ? 1
                  : std::max(1, static_cast<int>(std::lround(
                                    c.cfg.seconds / kTrainRoundSeconds)));
  std::vector<serve::CondenseRequest> reqs;
  for (int k = 1; k <= rounds; ++k) {
    for (const auto& in : c.inputs) {
      for (double r : kTrainRatios) {
        serve::CondenseRequest req =
            Request(in->spec.name, r, seed_base + static_cast<uint64_t>(k));
        req.evaluate = true;
        reqs.push_back(req);
      }
    }
  }
  FREEHGC_ASSIGN_OR_RETURN(Counters before, Scrape(clients[0]));
  ClosedLoop(c, clients, reqs);
  FREEHGC_ASSIGN_OR_RETURN(Counters after, Scrape(clients[0]));
  AddDelta(before, after, &out.counters);
  out.peak_rss_mb = server.PeakRssMb();

  for (const auto& in : c.inputs) {
    ReplayClass rc;
    rc.container = &in->container;
    rc.request = reqs.front();
    rc.request.graph = in->spec.name;
    out.replay.push_back(rc);
  }
  out.detail = StrFormat("\"rounds\": %d", rounds);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// out_of_core: graphs spooled and mapped, artifacts several times the
// artifact budget, closed loop on two connections.

const int kOocPaths[] = {4, 8, 12};
constexpr size_t kOocArtifactBudgetBytes = size_t{64} << 20;
constexpr size_t kOocResidentBudgetBytes = size_t{16} << 20;
/// Requests per second of --seconds (sizes the run).
constexpr double kOocRequestsPerSecond = 20.0;
/// Every kOocStreamEvery-th request asks for a new max_row_nnz on dblp,
/// which builds (and streams to a spool file) a new EvalContext.
constexpr int kOocStreamEvery = 20;

Status OutOfCore(const Ctx& c) {
  RunResult& out = *c.out;
  const uint64_t seed_base = c.cfg.seed * 1000;
  std::vector<serve::CondenseRequest> cls;
  for (const auto& in : c.inputs) {
    for (int p : kOocPaths) {
      cls.push_back(Request(in->spec.name, 0.024, seed_base, p));
    }
  }
  // One slot: with two, which slot's scratch arenas grew for which
  // EvalContext build depends on timing, and the peak RSS with it.
  auto flags = [&](int rep) {
    return std::vector<std::string>{
        StrFormat("--spool-dir=%s/spool%d", c.dir.c_str(), rep),
        StrFormat("--spill-dir=%s/spill%d", c.dir.c_str(), rep),
        StrFormat("--resident-budget=%zu", kOocResidentBudgetBytes),
        StrFormat("--artifact-budget=%zu", kOocArtifactBudgetBytes),
        "--slots=1"};
  };
  ServerProcess server;
  std::vector<serve::ServeClient> clients(2);
  FREEHGC_RETURN_IF_ERROR(RepeatedSetup(c, cls, flags, &server, clients));

  const int n = c.cfg.smoke ? 2 * kOocStreamEvery
                            : static_cast<int>(std::lround(
                                  c.cfg.seconds * kOocRequestsPerSecond));
  std::vector<serve::CondenseRequest> reqs;
  int streamed = 0;
  for (int i = 0; i < n; ++i) {
    if ((i + 1) % kOocStreamEvery == 0) {
      serve::CondenseRequest r =
          Request("dblp", 0.024, seed_base, kOocPaths[0]);
      r.max_row_nnz = 512 + ++streamed;
      reqs.push_back(r);
      continue;
    }
    serve::CondenseRequest r = cls[static_cast<size_t>(i) % cls.size()];
    r.seed = seed_base + 1 + static_cast<uint64_t>(i) / cls.size();
    reqs.push_back(r);
  }
  FREEHGC_ASSIGN_OR_RETURN(Counters before, Scrape(clients[0]));
  ClosedLoop(c, clients, reqs);
  FREEHGC_ASSIGN_OR_RETURN(Counters after, Scrape(clients[0]));
  AddDelta(before, after, &out.counters);
  out.peak_rss_mb = server.PeakRssMb();
  FREEHGC_RETURN_IF_ERROR(Probe(c, clients[0], {"acm", "dblp"}));

  for (size_t i = 0; i < c.inputs.size(); ++i) {
    ReplayClass rc;
    rc.request = reqs[i * std::size(kOocPaths)];
    rc.container = &Find(c.inputs, rc.request.graph).container;
    rc.spill_dir = c.dir + "/replay";
    rc.artifact_budget_bytes = kOocArtifactBudgetBytes;
    rc.resident_budget_bytes = kOocResidentBudgetBytes;
    rc.slots = 1;
    out.replay.push_back(rc);
  }
  out.detail =
      StrFormat("\"requests\": %d, \"streamed_builds\": %d", n, streamed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output checks against in-process runs

/// Recomputes served classes in-process on the benchmark's own copy of
/// each graph: the condensed node and edge counts, the ContentFingerprint
/// of return_graph bytes, and (evaluate) the accuracy pipeline::RunMethod
/// gives with ServeOptions().eval.
class Checker {
 public:
  explicit Checker(const Inputs& inputs) : inputs_(inputs) {}

  Status Check(const ObservedClass& o) {
    const serve::CondenseRequest& req = o.request;
    hgnn::PropagateOptions popts;
    popts.max_hops = req.max_hops > 0 ? req.max_hops : 2;
    popts.max_paths = req.max_paths;
    popts.max_row_nnz = req.max_row_nnz;
    auto& eval = contexts_[{req.graph, popts.max_hops, popts.max_paths,
                            popts.max_row_nnz}];
    if (!eval) {
      eval = std::make_unique<hgnn::EvalContext>(hgnn::BuildEvalContext(
          Find(inputs_, req.graph).graph, popts, &ex_, &cache_));
    }
    pipeline::RunSpec spec;
    spec.ratio = req.ratio;
    spec.seed = req.seed;
    const pipeline::PipelineEnv env{&ex_, &cache_};
    FREEHGC_ASSIGN_OR_RETURN(
        const pipeline::CondensationMethod* method,
        pipeline::MethodRegistry::Global().FindOrError(req.method));
    FREEHGC_ASSIGN_OR_RETURN(pipeline::CondensedData data,
                             method->Condense(*eval, spec, env));
    const std::string key = ClassKey(req);
    if (data.graph.TotalNodes() != o.reply.nodes ||
        data.graph.TotalEdges() != o.reply.edges) {
      return Status::Internal(StrFormat(
          "%s: served %lld nodes / %lld edges, in-process %lld / %lld",
          key.c_str(), static_cast<long long>(o.reply.nodes),
          static_cast<long long>(o.reply.edges),
          static_cast<long long>(data.graph.TotalNodes()),
          static_cast<long long>(data.graph.TotalEdges())));
    }
    if (req.return_graph) {
      FREEHGC_ASSIGN_OR_RETURN(HeteroGraph served,
                               DeserializeHeteroGraph(o.reply.graph_bytes));
      if (served.ContentFingerprint() != data.graph.ContentFingerprint()) {
        return Status::Internal(key + ": returned graph differs in content");
      }
    }
    if (req.evaluate) {
      FREEHGC_ASSIGN_OR_RETURN(
          pipeline::MethodRun run,
          pipeline::RunMethod(*eval, req.method, spec,
                              serve::ServeOptions().eval, env));
      if (run.accuracy != o.reply.accuracy) {
        return Status::Internal(StrFormat("%s: served accuracy %.4f, "
                                          "RunMethod %.4f",
                                          key.c_str(), o.reply.accuracy,
                                          run.accuracy));
      }
    }
    return Status::OK();
  }

 private:
  const Inputs& inputs_;
  exec::ExecContext ex_;
  pipeline::ArtifactCache cache_;
  std::map<std::tuple<std::string, int, int, int64_t>,
           std::unique_ptr<hgnn::EvalContext>>
      contexts_;
};

/// Checks the classes of a run in the order they were first served, up
/// to a per-workload budget of condense-only and of evaluated classes (a
/// smoke run checks every class). Every reply's graph fingerprint and the
/// agreement of repeated classes were already checked by the Collector.
void CheckOutputs(const Config& cfg, const Inputs& inputs, Collector* col) {
  size_t plain_budget = 40;
  size_t eval_budget = 2;
  if (cfg.workload == "cold_job") plain_budget = 2 * std::size(kColdRatios);
  if (cfg.workload == "train_eval") eval_budget = 3;
  if (cfg.smoke) plain_budget = eval_budget = SIZE_MAX;
  Checker checker(inputs);
  size_t plain = 0, evaluated = 0;
  for (const std::string& key : col->class_order) {
    const ObservedClass& o = col->Observed(key);
    size_t& used = o.request.evaluate ? evaluated : plain;
    if (used >= (o.request.evaluate ? eval_budget : plain_budget)) continue;
    ++used;
    const Status st = checker.Check(o);
    if (!st.ok()) col->errors.push_back(st.message());
  }
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  return {{"setup_s", Median(r.setup_s), "s"},
          {"latency_p50_ms", Quantile(r.latency_ms, 0.50), "ms"},
          {"latency_p90_ms", Quantile(r.latency_ms, 0.90), "ms"},
          {"throughput_rps", r.throughput_rps, "req/s"},
          {"peak_rss_mb", r.peak_rss_mb, "MB"},
          {"acc_pct", Mean(r.col.acc), "%"}};
}

/// Per-layer metrics of a traced run: server counters, reply fields, and
/// the replay's layer table.
std::vector<Metric> PerLayer(const RunResult& r,
                             const std::map<std::string, LayerRow>& layers,
                             double overhead_frac, double coverage) {
  const Counters& k = r.counters;
  const Collector& col = r.col;
  auto self_p50 = [&](const char* span) {
    auto it = layers.find(span);
    return it == layers.end() ? 0.0 : it->second.self_p50_ms;
  };
  const double mb = 1.0 / (1024.0 * 1024.0);
  const double lookups =
      k.at("pipeline.cache.hits") + k.at("pipeline.cache.misses");
  const double plan_lookups =
      k.at("pipeline.cache.plan_hits") + k.at("pipeline.cache.plan_misses");
  return {
      {"serve.server.start_ms", Median(r.server_start_ms), "ms"},
      {"serve.wire.overhead_p50_ms", Quantile(col.wire_overhead_ms, 0.50),
       "ms"},
      {"serve.wire.overhead_p99_ms", Quantile(col.wire_overhead_ms, 0.99),
       "ms"},
      {"serve.wire.upload_ms", Median(r.upload_ms), "ms"},
      {"serve.scheduler.queue_p50_ms", Quantile(col.queue_wait_ms, 0.50),
       "ms"},
      {"serve.scheduler.queue_p99_ms", Quantile(col.queue_wait_ms, 0.99),
       "ms"},
      {"serve.scheduler.coalesced_frac",
       Ratio(k.at("serve.coalesced"), k.at("serve.requests.completed")),
       "ratio"},
      {"serve.scheduler.shed", k.at("serve.requests.shed"), "count"},
      {"serve.scheduler.expired", k.at("serve.requests.expired"), "count"},
      {"serve.service.exec_p50_ms", Quantile(col.exec_ms, 0.50), "ms"},
      {"serve.service.exec_p99_ms", Quantile(col.exec_ms, 0.99), "ms"},
      {"serve.service.evalctx_build_ms", Median(col.evalctx_build_ms), "ms"},
      {"serve.service.evalctx_builds", k.at("serve.evalctx.builds"), "count"},
      {"serve.service.evalctx_hit_frac",
       Ratio(static_cast<double>(col.evalctx_hits),
             static_cast<double>(col.replies)),
       "ratio"},
      {"serve.graph_store.remaps", k.at("store.remaps"), "count"},
      {"serve.graph_store.evictions", k.at("store.evictions"), "count"},
      {"serve.graph_store.get_ms", self_p50("serve.graph_store.get"), "ms"},
      {"pipeline.cache.hit_frac", Ratio(k.at("pipeline.cache.hits"), lookups),
       "ratio"},
      {"pipeline.cache.plan_hit_frac",
       Ratio(k.at("pipeline.cache.plan_hits"), plan_lookups), "ratio"},
      {"pipeline.cache.resident_mb",
       k.at("pipeline.cache.resident_bytes") * mb, "MB"},
      {"pipeline.cache.plan_mb",
       (k.at("pipeline.cache.bytes") - k.at("pipeline.cache.resident_bytes")) *
           mb,
       "MB"},
      {"pipeline.cache.spills", k.at("pipeline.cache.spills"), "count"},
      {"pipeline.cache.restores", k.at("pipeline.cache.restores"), "count"},
      {"pipeline.cache.spill_mb", k.at("pipeline.cache.spill_bytes") * mb,
       "MB"},
      {"metapath.enumerate_ms", self_p50("metapath.enumerate"), "ms"},
      {"metapath.compose_ms", self_p50("metapath.compose"), "ms"},
      {"metapath.compose_calls", k.at("metapath.compose_calls"), "count"},
      {"sparse.spgemm_flops", k.at("spgemm.flops"), "count"},
      {"sparse.spgemm_output_nnz", k.at("spgemm.output_nnz"), "count"},
      {"sparse.ppr_iterations", k.at("ppr.iterations"), "count"},
      {"hgnn.propagate_ms", self_p50("hgnn.propagate"), "ms"},
      {"hgnn.train_ms", self_p50("hgnn.train"), "ms"},
      {"hgnn.blocks_propagated", k.at("hgnn.blocks_propagated"), "count"},
      {"hgnn.epochs", k.at("hgnn.epochs"), "count"},
      {"core.metapath_ms", self_p50("core.metapath"), "ms"},
      {"core.target_ms", self_p50("core.target"), "ms"},
      {"core.father_ms", self_p50("core.father"), "ms"},
      {"core.leaf_ms", self_p50("core.leaf"), "ms"},
      {"core.assemble_ms", self_p50("core.assemble"), "ms"},
      {"graph.deserialize_ms", self_p50("serve.graph_store.register"), "ms"},
      {"graph.serialize_ms", self_p50("graph.serialize"), "ms"},
      {"graph.reply_kb", Median(col.reply_kb), "KB"},
      {"loadgen.max_lag_ms", r.max_lag_ms, "ms"},
      {"loadgen.late_drops", static_cast<double>(r.late_drops), "count"},
      {"trace.overhead_frac", overhead_frac, "ratio"},
      {"trace.replay_coverage", coverage, "ratio"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& m : metrics) {
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     out.empty() ? "" : ", ", m.name.c_str(), m.value,
                     m.unit.c_str());
  }
  return "{" + out + "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch == '\n' ? ' ' : ch;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Running one workload

Status RunWorkload(const Config& cfg, const Inputs& inputs,
                   const std::string& dir, SpanRecorder* rec,
                   RunResult* out) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir);
  const Ctx c{cfg, inputs, dir, rec, out};
  if (cfg.workload == "cold_job") return ColdJob(c);
  if (cfg.workload == "warm_open") return WarmOpen(c);
  if (cfg.workload == "train_eval") return TrainEval(c);
  return OutOfCore(c);
}

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::string detail;  // this workload's entry in kDetailPath
};

/// The traced half of a --trace 1 run: the workload again with client
/// spans, then the layer replay of its classes. Returns the per-layer
/// metrics and appends its JSON fields to `detail`.
Result<std::vector<Metric>> TracedRun(const Config& cfg, const Inputs& inputs,
                                      const std::string& dir,
                                      const RunResult& plain,
                                      std::vector<std::string>* errors,
                                      std::string* detail) {
  SpanRecorder rec;
  RunResult traced;
  FREEHGC_RETURN_IF_ERROR(RunWorkload(cfg, inputs, dir, &rec, &traced));
  errors->insert(errors->end(), traced.col.errors.begin(),
                 traced.col.errors.end());
  const double overhead = Ratio(Quantile(traced.latency_ms, 0.5),
                                Quantile(plain.latency_ms, 0.5)) -
                          1.0;
  std::vector<double> coverage;
  std::string replays;
  for (const ReplayClass& rc : traced.replay) {
    std::error_code ec;
    if (!rc.spill_dir.empty()) fs::create_directories(rc.spill_dir, ec);
    Result<ReplayResult> rr = Replay(rc, &rec);
    if (!rr.ok()) {
      errors->push_back("replay " + ClassKey(rc.request) + ": " +
                        rr.status().ToString());
      continue;
    }
    coverage.push_back(Ratio(rr->replay_exec_ms, rr->service_exec_ms));
    replays += StrFormat(
        "%s{\"class\": %s, \"replay_exec_ms\": %.3f, "
        "\"service_exec_ms\": %.3f}",
        replays.empty() ? "" : ", ", JsonString(ClassKey(rc.request)).c_str(),
        rr->replay_exec_ms, rr->service_exec_ms);
  }
  if (!rec.WriteChromeTrace(kTracePath)) {
    errors->push_back(std::string("cannot write ") + kTracePath);
  }
  const std::map<std::string, LayerRow> table = rec.LayerTable();
  std::string rows;
  for (const auto& [name, row] : table) {
    rows += StrFormat(
        "%s\"%s\": {\"count\": %lld, \"self_p50_ms\": %.4f, "
        "\"self_total_ms\": %.3f}",
        rows.empty() ? "" : ", ", name.c_str(),
        static_cast<long long>(row.count), row.self_p50_ms, row.self_total_ms);
    std::fprintf(stderr,
                 "  %-28s n=%-6lld self p50 %10.3f ms  total %10.1f ms\n",
                 name.c_str(), static_cast<long long>(row.count),
                 row.self_p50_ms, row.self_total_ms);
  }
  *detail += StrFormat(", \"layer_table\": {%s}, \"replay\": [%s]",
                       rows.c_str(), replays.c_str());
  return PerLayer(traced, table, overhead, Median(coverage));
}

Result<Outcome> RunOne(const Config& cfg) {
  const int64_t g0 = obs::NowNs();
  FREEHGC_ASSIGN_OR_RETURN(Inputs inputs,
                           WorkloadInputs(cfg.workload, cfg.smoke));
  const double generate_s = static_cast<double>(obs::NowNs() - g0) * 1e-9;
  const std::string dir = cfg.work_dir + "/freehgc_bench";

  RunResult plain;
  Status st = RunWorkload(cfg, inputs, dir, nullptr, &plain);
  std::vector<std::string> errors;
  Outcome out;
  std::string layer_detail;
  if (st.ok()) {
    CheckOutputs(cfg, inputs, &plain.col);
    errors = plain.col.errors;
    out.attempted = plain.attempted;
    out.failed = plain.failed;
    out.metrics = EndToEnd(plain);
    if (cfg.trace) {
      Result<std::vector<Metric>> layers =
          TracedRun(cfg, inputs, dir, plain, &errors, &layer_detail);
      if (layers.ok()) {
        out.metrics = std::move(*layers);
      } else {
        st = layers.status();
      }
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  FREEHGC_RETURN_IF_ERROR(st);

  out.correct = errors.empty();
  std::string errs, setups;
  for (size_t i = 0; i < errors.size(); ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", errors[i].c_str());
    if (i < 20) errs += (i > 0 ? ", " : "") + JsonString(errors[i]);
  }
  for (double v : plain.setup_s) {
    setups += StrFormat("%s%.4f", setups.empty() ? "" : ", ", v);
  }
  out.detail = StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"trace\": %s, \"smoke\": %s, \"generate_s\": %.3f, "
      "\"setup_s\": [%s], \"latency_samples\": %zu, \"replies\": %lld, "
      "\"classes\": %zu, %s, \"metrics\": %s%s, \"errors\": [%s]}",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? "true" : "false", cfg.smoke ? "true" : "false",
      generate_s, setups.c_str(), plain.latency_ms.size(),
      static_cast<long long>(plain.col.replies), plain.col.class_order.size(),
      plain.detail.c_str(), MetricsJson(out.metrics).c_str(),
      layer_detail.c_str(), errs.c_str());
  return out;
}

// ---------------------------------------------------------------------------
// main

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (arg == "--workload") {
      cfg->workload = value;
    } else if (arg == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      cfg->trace = value == "1";
    } else if (arg == "--smoke") {
      cfg->smoke = true;
    } else if (arg == "--work-dir") {
      cfg->work_dir = value;
    } else {
      return false;
    }
  }
  const bool known =
      cfg->workload == "all" || std::find(kWorkloads.begin(), kWorkloads.end(),
                                          cfg->workload) != kWorkloads.end();
  return known && cfg->seed > 0 && cfg->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: freehgc_bench --workload cold_job|warm_open|"
                 "train_eval|out_of_core|all [--seed N>0] [--seconds S>0] "
                 "[--trace 0|1] [--smoke] [--work-dir DIR]\n");
    return 2;
  }
  if (::access(kServerPath, X_OK) != 0) {
    std::fprintf(stderr, "freehgc_bench: %s is not executable\n",
                 kServerPath);
    return 1;
  }
  const std::vector<std::string> names =
      cfg.workload == "all" ? kWorkloads
                            : std::vector<std::string>{cfg.workload};
  Outcome total;
  std::string details;
  for (const std::string& name : names) {
    Config one = cfg;
    one.workload = name;
    std::fprintf(stderr, "freehgc_bench: %s, seed %llu, %.1f s%s%s\n",
                 name.c_str(), static_cast<unsigned long long>(cfg.seed),
                 cfg.seconds, cfg.trace ? ", traced" : "",
                 cfg.smoke ? ", smoke" : "");
    Result<Outcome> r = RunOne(one);
    if (!r.ok()) {
      std::fprintf(stderr, "freehgc_bench: %s failed: %s\n", name.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    for (const Metric& m : r->metrics) {
      std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    total.correct = total.correct && r->correct;
    total.attempted += r->attempted;
    total.failed += r->failed;
    total.metrics = r->metrics;
    details += (details.empty() ? "" : ",\n") + r->detail;
  }
  if (std::FILE* f = std::fopen(kDetailPath, "w")) {
    std::fprintf(f, "[\n%s\n]\n", details.c_str());
    std::fclose(f);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      total.correct ? "true" : "false",
      static_cast<long long>(total.attempted),
      static_cast<long long>(total.failed), MetricsJson(total.metrics).c_str());
  std::fflush(stdout);
  return total.correct ? 0 : 1;
}

}  // namespace
}  // namespace freehgc::perfbench

int main(int argc, char** argv) {
  return freehgc::perfbench::Main(argc, argv);
}
