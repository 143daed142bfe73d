// Serving-layer load bench (BENCH_serve.json): closed-loop phases measure
// service capacity at 1/2/4 worker slots (cold cache vs a duration-based
// warm sustain), then an open-loop ramp/sustain/overload section drives a
// 2-slot service at fixed arrival rates through bench/loadgen with a
// Pareto 80/20 class mix — the part a closed-loop driver cannot measure
// (tail latency and shedding under an offered load the server does not
// control).
//
// Workload: one resident mid-scale ACM graph, three meta-path
// configurations x five seeds (15 distinct request classes), all
// condense-only FreeHGC: they read no propagated feature blocks, so no
// phase runs a propagation build. The cold phase pays every SpGEMM; warm
// phases replay the mix against the populated ArtifactCache.
//
// Gates (FREEHGC_CHECK):
//   - warm throughput strictly exceeds cold at every slot count, and no
//     phase runs a propagation build;
//   - 4-slot cold p50 and throughput are no worse than 2-slot (the PR-4
//     era regression: slots time-slicing the cores made 4 slots ~2x
//     *slower* cold; the scheduler's concurrent-dispatch cap kills it);
//   - the open-loop section completes with zero protocol errors and the
//     overload phase actually sheds.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/loadgen/loadgen.h"
#include "bench_common.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "serve/service.h"

namespace freehgc::bench {
namespace {

struct PhaseResult {
  int64_t issued = 0;  // requests actually sent this phase
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Per-phase mean queue wait and execution time, recovered from the
  /// METRICS snapshot delta (freehgc_serve_latency_{queue,exec}_ns) —
  /// the split that shows whether added latency is contention (queue
  /// grows) or slower kernels (exec grows).
  double queue_mean_ms = 0.0;
  double exec_mean_ms = 0.0;
  int64_t eval_context_builds = 0;
  int64_t coalesced = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// Sample value from a scraped METRICS snapshot (0 when absent).
double Prom(const std::vector<obs::PromSample>& samples,
            const std::string& name) {
  double v = 0.0;
  obs::FindPromValue(samples, name, &v);
  return v;
}

/// The request mix: 3 meta-path configurations x `seeds_per_path` seeds
/// (distinct coalesce keys).
std::vector<serve::CondenseRequest> MakeWorkload(int seeds_per_path = 5) {
  const int path_caps[3] = {4, 6, 8};
  std::vector<serve::CondenseRequest> reqs;
  for (int p = 0; p < 3; ++p) {
    for (int s = 0; s < seeds_per_path; ++s) {
      serve::CondenseRequest req;
      req.graph = "acm";
      req.method = "freehgc";
      req.ratio = 0.05;
      req.seed = static_cast<uint64_t>(1 + s);
      req.max_paths = path_caps[p];
      reqs.push_back(req);
    }
  }
  return reqs;
}

/// Runs the workload closed-loop on `clients` submitter threads, each
/// cycling through its stripe of the request mix. duration_seconds > 0
/// keeps issuing until the deadline (the sustain shape — enough samples
/// for a stable p99); <= 0 makes exactly `passes` passes over the mix.
PhaseResult RunPhase(serve::ServeService& service,
                     const std::vector<serve::CondenseRequest>& workload,
                     int clients, double duration_seconds, int passes = 1) {
  const int64_t builds_before = service.eval_context_builds();
  const auto cache_before = service.cache().stats();
  // Scrape the service's registry exactly the way a remote poller would —
  // the phase breakdown below must be recoverable from METRICS alone.
  const auto prom_before =
      obs::ParsePrometheusText(obs::PrometheusText(service.metrics()));

  std::vector<std::vector<int64_t>> samples(static_cast<size_t>(clients));
  const int64_t t0 = obs::NowNs();
  const int64_t deadline_ns =
      duration_seconds > 0
          ? t0 + static_cast<int64_t>(duration_seconds * 1e9)
          : 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t n = workload.size();
      const size_t end = deadline_ns > 0
                             ? 0  // unused; deadline governs
                             : n * static_cast<size_t>(passes);
      for (size_t i = static_cast<size_t>(c);; i += static_cast<size_t>(clients)) {
        if (deadline_ns > 0) {
          if (obs::NowNs() >= deadline_ns) break;
        } else if (i >= end) {
          break;
        }
        const int64_t s0 = obs::NowNs();
        auto reply = service.Condense(workload[i % n]);
        FREEHGC_CHECK(reply.ok()) << reply.status().ToString();
        samples[static_cast<size_t>(c)].push_back(obs::NowNs() - s0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = static_cast<double>(obs::NowNs() - t0) * 1e-9;

  std::vector<int64_t> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  const auto cache_after = service.cache().stats();
  const auto prom_after =
      obs::ParsePrometheusText(obs::PrometheusText(service.metrics()));

  // Snapshot counters must agree with the bench's own accounting: every
  // request this phase issued completed (coalesced followers included),
  // each completion landed one queue-latency observation, and the
  // exec-latency histogram counts real executions only.
  const double completed_delta =
      Prom(prom_after, "freehgc_serve_requests_completed_total") -
      Prom(prom_before, "freehgc_serve_requests_completed_total");
  const double coalesced_delta =
      Prom(prom_after, "freehgc_serve_coalesced_total") -
      Prom(prom_before, "freehgc_serve_coalesced_total");
  FREEHGC_CHECK(completed_delta == static_cast<double>(all.size()))
      << "METRICS completed delta " << completed_delta << " != "
      << all.size() << " requests issued";
  const double queue_count =
      Prom(prom_after, "freehgc_serve_latency_queue_ns_count") -
      Prom(prom_before, "freehgc_serve_latency_queue_ns_count");
  const double exec_count =
      Prom(prom_after, "freehgc_serve_latency_exec_ns_count") -
      Prom(prom_before, "freehgc_serve_latency_exec_ns_count");
  FREEHGC_CHECK(queue_count == completed_delta &&
                exec_count == completed_delta - coalesced_delta)
      << "latency histogram counts (queue " << queue_count << ", exec "
      << exec_count << ") inconsistent with completed " << completed_delta
      << " / coalesced " << coalesced_delta;

  PhaseResult out;
  out.issued = static_cast<int64_t>(all.size());
  out.wall_seconds = wall;
  out.throughput_rps = static_cast<double>(all.size()) / wall;
  out.p50_ms = loadgen::QuantileMs(all, 0.50);
  out.p95_ms = loadgen::QuantileMs(all, 0.95);
  out.p99_ms = loadgen::QuantileMs(all, 0.99);
  out.queue_mean_ms =
      (Prom(prom_after, "freehgc_serve_latency_queue_ns_sum") -
       Prom(prom_before, "freehgc_serve_latency_queue_ns_sum")) /
      queue_count * 1e-6;
  if (exec_count > 0) {
    out.exec_mean_ms =
        (Prom(prom_after, "freehgc_serve_latency_exec_ns_sum") -
         Prom(prom_before, "freehgc_serve_latency_exec_ns_sum")) /
        exec_count * 1e-6;
  }
  out.eval_context_builds = service.eval_context_builds() - builds_before;
  out.coalesced = static_cast<int64_t>(coalesced_delta);
  out.cache_hits = cache_after.hits - cache_before.hits;
  out.cache_misses = cache_after.misses - cache_before.misses;
  return out;
}

std::string PhaseJson(int slots, const char* phase, const PhaseResult& r) {
  return StrFormat(
      "    {\"slots\": %d, \"phase\": \"%s\", \"requests\": %lld, "
      "\"wall_seconds\": %.4f, \"throughput_rps\": %.3f, "
      "\"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}, "
      "\"breakdown_ms\": {\"queue_mean\": %.3f, \"exec_mean\": %.3f}, "
      "\"eval_context_builds\": %lld, \"coalesced\": %lld, "
      "\"cache\": {\"hits\": %lld, \"misses\": %lld}}",
      slots, phase, static_cast<long long>(r.issued), r.wall_seconds,
      r.throughput_rps, r.p50_ms, r.p95_ms, r.p99_ms, r.queue_mean_ms,
      r.exec_mean_ms, static_cast<long long>(r.eval_context_builds),
      static_cast<long long>(r.coalesced),
      static_cast<long long>(r.cache_hits),
      static_cast<long long>(r.cache_misses));
}

void Print(int slots, const char* phase, const PhaseResult& r) {
  std::printf(
      "%d slot(s) %-4s : %5lld req  %6.2f req/s  p50 %7.2f ms  "
      "p95 %7.2f ms  p99 %7.2f ms  queue %7.2f ms  exec %7.2f ms  "
      "(%lld ctx builds, %lld coalesced)\n",
      slots, phase, static_cast<long long>(r.issued), r.throughput_rps,
      r.p50_ms, r.p95_ms, r.p99_ms, r.queue_mean_ms, r.exec_mean_ms,
      static_cast<long long>(r.eval_context_builds),
      static_cast<long long>(r.coalesced));
  std::fflush(stdout);
}

void PrintOpenLoop(const loadgen::PhaseReport& r) {
  std::printf(
      "open-loop %-8s: offered %7.1f rps  achieved %7.1f rps  "
      "p50 %7.2f ms  p99 %7.2f ms  ok %lld  shed %lld  err %lld\n",
      r.name.c_str(), r.offered_rps, r.achieved_rps, r.p50_ms, r.p99_ms,
      static_cast<long long>(r.ok), static_cast<long long>(r.shed),
      static_cast<long long>(r.errors));
  std::fflush(stdout);
}

constexpr double kScale = 0.3;
constexpr int kClients = 8;           // fixed across slot counts
constexpr double kWarmSeconds = 1.2;  // duration-based warm sustain
constexpr int kColdTrials = 3;        // median-of-3 cold gate (noise)

/// Element-wise median of the cold trials (p50/throughput gates must not
/// ride one noisy trial on a time-shared CI core).
PhaseResult MedianCold(std::vector<PhaseResult> trials) {
  auto mid = [&](auto field) {
    std::vector<double> v;
    for (const auto& t : trials) v.push_back(field(t));
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  PhaseResult out = trials.front();
  out.throughput_rps = mid([](const PhaseResult& t) { return t.throughput_rps; });
  out.p50_ms = mid([](const PhaseResult& t) { return t.p50_ms; });
  out.p95_ms = mid([](const PhaseResult& t) { return t.p95_ms; });
  out.p99_ms = mid([](const PhaseResult& t) { return t.p99_ms; });
  out.queue_mean_ms = mid([](const PhaseResult& t) { return t.queue_mean_ms; });
  out.exec_mean_ms = mid([](const PhaseResult& t) { return t.exec_mean_ms; });
  return out;
}

/// Open-loop section: ramp/sustain/overload against a fresh 2-slot
/// service, rates derived from the measured 2-slot warm capacity so the
/// overload phase genuinely overloads on any machine.
std::string RunOpenLoopSection(double warm_capacity_rps,
                               loadgen::RunReport* out_report) {
  serve::ServeOptions opts;
  opts.slots = 2;
  opts.queue_capacity = 8;  // small on purpose: overload must shed
  // This section measures *admission control* (queue-full and SLO sheds,
  // tail latency at fixed offered rates), so coalescing is off: with it
  // on, every duplicate of an in-flight class rides its leader without a
  // queue slot, and a finite class universe can absorb any offered rate
  // without ever filling the queue — the closed-loop phases above and
  // the scheduler tests are where coalescing earns its keep.
  opts.coalesce_requests = false;
  opts.slo_ms = 100;
  serve::ServeService service(opts);
  auto info = service.store().RegisterGenerator("acm", "acm", 1, kScale);
  FREEHGC_CHECK(info.ok()) << info.status().ToString();

  // A wider class universe than the closed-loop phases: coalescing caps
  // the queue's distinct-key population at the class count, so with only
  // 15 classes a 16-deep queue can never fill no matter the offered rate.
  // 60 classes is the interesting regime — the Pareto head coalesces,
  // the cold tail has to queue, and overload genuinely sheds.
  const auto workload = MakeWorkload(/*seeds_per_path=*/20);

  // Warm the caches so the open-loop phases measure steady state, not
  // first-touch compositions.
  RunPhase(service, workload, /*clients=*/4, /*duration_seconds=*/0);

  loadgen::LoadSpec spec;
  spec.seed = 42;
  for (const auto& req : workload) {
    loadgen::RequestClass cls;
    cls.name = StrFormat("p%ds%llu", req.max_paths,
                         static_cast<unsigned long long>(req.seed));
    cls.request = req;
    spec.classes.push_back(cls);
  }
  // The closed-loop warm number underestimates paced capacity (its 8
  // spinning clients contend for the same cores as the workers), and
  // coalescing multiplies the ok-throughput well past the execution
  // drain rate, so the overload multiple is deliberately aggressive: the
  // overload phase must push enough *distinct cold-tail* keys per drain
  // interval to pin the admission queue full, not merely exceed a
  // nominal rps figure. The gate only needs "past saturation", not a
  // precise multiple. Client threads must exceed the admission queue
  // depth or the generator itself caps the outstanding requests below
  // queue capacity and shedding can never trigger.
  const double cap = warm_capacity_rps;
  const double overload = std::max(20.0 * cap, 3000.0);
  spec.phases.push_back({"ramp", 1.0, 0.25 * cap, 1.0 * cap});
  spec.phases.push_back({"sustain", 2.0, 0.6 * cap, 0.6 * cap});
  spec.phases.push_back({"overload", 1.0, overload, overload});
  const auto schedule = loadgen::BuildSchedule(spec);

  const auto report = loadgen::RunOpenLoop(
      spec, schedule, /*client_threads=*/2 * opts.queue_capacity,
      [&](const serve::CondenseRequest& req, uint32_t) -> Status {
        return service.Condense(req).status();
      });
  service.Shutdown();

  std::string json;
  for (size_t i = 0; i < report.phases.size(); ++i) {
    PrintOpenLoop(report.phases[i]);
    json += "    " + loadgen::PhaseReportJson(report.phases[i]);
    json += i + 1 < report.phases.size() ? ",\n" : "\n";
  }
  *out_report = report;
  return json;
}

int Run() {
  PrintHeader("Serving-layer load (BENCH_serve.json)");
  const auto workload = MakeWorkload();

  std::vector<std::string> rows;
  PhaseResult cold_by_slots[5];
  double warm2_rps = 0.0;
  for (int slots : {1, 2, 4}) {
    serve::ServeOptions opts;
    opts.slots = slots;
    opts.queue_capacity = 64;  // closed-loop: measure service, not sheds

    // kColdTrials fresh services, each paying its compositions from
    // scratch; the gates compare element-wise medians. The last
    // service stays up for the warm phase.
    std::vector<PhaseResult> cold_trials;
    PhaseResult warm;
    for (int trial = 0; trial < kColdTrials; ++trial) {
      serve::ServeService service(opts);
      auto info = service.store().RegisterGenerator("acm", "acm", 1, kScale);
      FREEHGC_CHECK(info.ok()) << info.status().ToString();
      cold_trials.push_back(RunPhase(service, workload, kClients,
                                     /*duration_seconds=*/0, /*passes=*/3));
      FREEHGC_CHECK(cold_trials.back().eval_context_builds == 0);
      if (trial + 1 == kColdTrials) {
        warm = RunPhase(service, workload, kClients, kWarmSeconds);
      }
      service.Shutdown();
    }
    const PhaseResult cold = MedianCold(std::move(cold_trials));
    Print(slots, "cold", cold);
    Print(slots, "warm", warm);

    // Acceptance: with the caches hot, the same mix runs strictly faster
    // (SpGEMM memoized).
    FREEHGC_CHECK(warm.throughput_rps > cold.throughput_rps)
        << "warm throughput " << warm.throughput_rps
        << " req/s did not exceed cold " << cold.throughput_rps
        << " req/s at " << slots << " slot(s)";
    FREEHGC_CHECK(warm.eval_context_builds == 0);

    if (slots <= 4) cold_by_slots[slots] = cold;
    if (slots == 2) warm2_rps = warm.throughput_rps;
    rows.push_back(PhaseJson(slots, "cold", cold));
    rows.push_back(PhaseJson(slots, "warm", warm));
  }

  // The headline gate: 4 slots must be no worse than 2 cold. Before the
  // scheduler capped concurrent dispatch at the core budget, 4 slots
  // time-sliced the cores (p50 ~2.2x worse, throughput lower); with the
  // cap they are equivalent modulo noise on core-starved machines and
  // genuinely faster on big ones. The margins (15% + 2 ms, 15%) absorb
  // single-core CI jitter while still failing on any real regression.
  const PhaseResult& c2 = cold_by_slots[2];
  const PhaseResult& c4 = cold_by_slots[4];
  FREEHGC_CHECK(c4.p50_ms <= c2.p50_ms * 1.15 + 2.0)
      << "4-slot cold p50 " << c4.p50_ms
      << " ms regressed past 2-slot cold p50 " << c2.p50_ms << " ms";
  FREEHGC_CHECK(c4.throughput_rps >= c2.throughput_rps * 0.85)
      << "4-slot cold throughput " << c4.throughput_rps
      << " req/s regressed past 2-slot " << c2.throughput_rps << " req/s";

  loadgen::RunReport open_report;
  const std::string open_rows = RunOpenLoopSection(warm2_rps, &open_report);
  FREEHGC_CHECK(open_report.errors == 0)
      << open_report.errors << " protocol/internal errors in the open-loop "
      << "section";
  FREEHGC_CHECK(open_report.phases.back().shed > 0)
      << "overload phase at 3x capacity shed nothing — open loop is not "
      << "actually overloading";

  std::string json = "{\n  \"bench\": \"serve_load\",\n";
  json += StrFormat(
      "  \"workload\": {\"graph\": \"acm\", \"scale\": %.2f, "
      "\"classes\": %d, \"method\": \"freehgc\", \"ratio\": 0.05, "
      "\"path_configs\": 3, \"clients\": %d, \"warm_seconds\": %.1f, "
      "\"cold_trials\": %d},\n",
      kScale, static_cast<int>(workload.size()), kClients, kWarmSeconds,
      kColdTrials);
  json += StrFormat("  \"threads\": %d,\n", BenchThreads());
  json += "  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json += rows[i];
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += StrFormat(
      "  \"gates\": {\"cold_p50_ms\": {\"slots2\": %.3f, \"slots4\": %.3f}, "
      "\"cold_throughput_rps\": {\"slots2\": %.3f, \"slots4\": %.3f}},\n",
      c2.p50_ms, c4.p50_ms, c2.throughput_rps, c4.throughput_rps);
  json += "  \"open_loop\": [\n";
  json += open_rows;
  json += "  ]\n}\n";
  WriteTextFile("BENCH_serve.json", json);
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}

}  // namespace
}  // namespace freehgc::bench

int main() { return freehgc::bench::Run(); }
