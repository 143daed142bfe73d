// Live-telemetry tests: Prometheus exposition (format, parser,
// snapshot-under-concurrency consistency, mutated input), the flight
// recorder's ring + outlier semantics, the structured access log (golden
// line format and integrity under concurrent slot threads), the
// RateWindow estimator, and request-id span attribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mutate.h"
#include "obs/access_log.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/rate_window.h"
#include "obs/trace.h"
#include "serve/scheduler.h"

namespace freehgc {
namespace {

using obs::AccessLog;
using obs::AccessRecord;
using obs::FlightRecord;
using obs::FlightRecorder;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::PromSample;
using obs::RequestOutcome;

TEST(PrometheusName, MapsDotsAndPrefixes) {
  EXPECT_EQ(obs::PrometheusName("serve.latency.exec_ns"),
            "freehgc_serve_latency_exec_ns");
  EXPECT_EQ(obs::PrometheusName("spgemm.flops"), "freehgc_spgemm_flops");
  EXPECT_EQ(obs::PrometheusName("weird-name!x"), "freehgc_weird_name_x");
}

TEST(PrometheusText, GoldenExposition) {
  MetricsRegistry reg;
  reg.GetCounter("serve.requests.completed").Add(3);
  reg.GetGauge("serve.queue_depth").Set(7);
  Histogram& h = reg.GetHistogram("serve.latency.exec_ns");
  h.Observe(1);  // bucket le="1"
  h.Observe(3);  // bucket le="4"

  const std::string expected =
      "# TYPE freehgc_serve_requests_completed_total counter\n"
      "freehgc_serve_requests_completed_total 3\n"
      "# TYPE freehgc_serve_queue_depth gauge\n"
      "freehgc_serve_queue_depth 7\n"
      "# TYPE freehgc_serve_latency_exec_ns histogram\n"
      "freehgc_serve_latency_exec_ns_bucket{le=\"1\"} 1\n"
      "freehgc_serve_latency_exec_ns_bucket{le=\"4\"} 2\n"
      "freehgc_serve_latency_exec_ns_bucket{le=\"+Inf\"} 2\n"
      "freehgc_serve_latency_exec_ns_sum 4\n"
      "freehgc_serve_latency_exec_ns_count 2\n";
  EXPECT_EQ(obs::PrometheusText(reg), expected);
}

TEST(PrometheusText, ParseRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("a.count").Add(42);
  reg.GetGauge("b.gauge").Set(-5);
  Histogram& h = reg.GetHistogram("c.lat");
  for (int64_t v : {1, 2, 100, 5000, 5000, 1 << 20}) h.Observe(v);

  const auto samples = obs::ParsePrometheusText(obs::PrometheusText(reg));
  double v = 0.0;
  ASSERT_TRUE(obs::FindPromValue(samples, "freehgc_a_count_total", &v));
  EXPECT_EQ(v, 42.0);
  ASSERT_TRUE(obs::FindPromValue(samples, "freehgc_b_gauge", &v));
  EXPECT_EQ(v, -5.0);
  ASSERT_TRUE(obs::FindPromValue(samples, "freehgc_c_lat_count", &v));
  EXPECT_EQ(v, 6.0);
  ASSERT_TRUE(obs::FindPromValue(samples, "freehgc_c_lat_sum", &v));
  EXPECT_EQ(v, 1.0 + 2 + 100 + 5000 + 5000 + (1 << 20));

  const auto buckets = obs::PromBuckets(samples, "freehgc_c_lat");
  ASSERT_GE(buckets.size(), 2u);
  // Cumulative and sorted; +Inf last and equal to _count.
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1].first, buckets[i].first);
    EXPECT_LE(buckets[i - 1].second, buckets[i].second);
  }
  EXPECT_TRUE(std::isinf(buckets.back().first));
  EXPECT_EQ(buckets.back().second, 6.0);
}

TEST(PrometheusText, QuantilesMatchServerSideEstimate) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat");
  for (int i = 0; i < 1000; ++i) h.Observe(100 + i * 37 % 100000);
  const auto samples = obs::ParsePrometheusText(obs::PrometheusText(reg));
  const auto buckets = obs::PromBuckets(samples, "freehgc_lat");
  for (double q : {0.5, 0.95, 0.99}) {
    const double scraped = obs::QuantileFromCumulativeBuckets(buckets, q);
    const double server = static_cast<double>(h.ApproxQuantile(q));
    // Same buckets, same interpolation — the reconstruction must agree
    // to well under one bucket width.
    EXPECT_NEAR(scraped, server, server * 0.01 + 2.0) << "q=" << q;
  }
}

TEST(PrometheusText, ConcurrentObserveYieldsMonotoneSnapshots) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("hot");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, &stop, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        h.Observe(static_cast<int64_t>(state >> 40));
      }
    });
  }
  double last_count = 0.0;
  for (int iter = 0; iter < 50; ++iter) {
    const auto samples = obs::ParsePrometheusText(obs::PrometheusText(reg));
    const auto buckets = obs::PromBuckets(samples, "freehgc_hot");
    ASSERT_FALSE(buckets.empty());
    // Within one snapshot: cumulative counts never decrease and +Inf
    // equals _count (both derived from the same per-bucket loads).
    for (size_t i = 1; i < buckets.size(); ++i) {
      ASSERT_LE(buckets[i - 1].second, buckets[i].second) << "iter " << iter;
    }
    double count = 0.0;
    ASSERT_TRUE(obs::FindPromValue(samples, "freehgc_hot_count", &count));
    ASSERT_EQ(buckets.back().second, count) << "iter " << iter;
    // Across snapshots: the total only grows.
    ASSERT_GE(count, last_count);
    last_count = count;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

/// True when `buckets` is sorted and neither its bounds nor its counts
/// hold a NaN.
bool SortedAndNanFree(const std::vector<std::pair<double, double>>& buckets) {
  for (const auto& [bound, count] : buckets) {
    if (std::isnan(bound) || std::isnan(count)) return false;
  }
  return std::is_sorted(buckets.begin(), buckets.end());
}

TEST(PrometheusText, BucketsSkipNanAndNonFiniteBounds) {
  // More than 16 buckets, so std::sort leaves insertion sort, where a
  // NaN key can walk past the end of the range.
  std::string text = "# TYPE freehgc_lat histogram\n";
  for (int b = 0; b < 20; ++b) {
    text += "freehgc_lat_bucket{le=\"" + std::to_string(1 << b) + "\"} " +
            std::to_string(b + 1) + "\n";
  }
  text += "freehgc_lat_bucket{le=\"nan\"} 7\n";
  text += "freehgc_lat_bucket{le=\"-Inf\"} 0\n";
  text += "freehgc_lat_bucket{le=\"inf\"} 3\n";
  text += "freehgc_lat_bucket{le=\"64\"} nan\n";
  text += "freehgc_lat_bucket{le=\"+Inf\"} 20\n";
  const auto buckets =
      obs::PromBuckets(obs::ParsePrometheusText(text), "freehgc_lat");
  ASSERT_EQ(buckets.size(), 21u);
  EXPECT_TRUE(SortedAndNanFree(buckets));
  EXPECT_EQ(buckets.front(), std::make_pair(1.0, 1.0));
  EXPECT_TRUE(std::isinf(buckets.back().first));
  EXPECT_EQ(buckets.back().second, 20.0);
  EXPECT_TRUE(
      std::isfinite(obs::QuantileFromCumulativeBuckets(buckets, 0.5)));
}

// Seeded mutation test of the exposition parser: byte flips, truncations
// and insertions of a real snapshot, fed through ParsePrometheusText,
// PromBuckets and QuantileFromCumulativeBuckets. freehgc_top runs them on
// METRICS text that arrives over the wire, so none may crash or read out
// of bounds (the ASan leg runs this test), the buckets must stay sorted
// and NaN-free, and with finite counts the quantiles must be numbers.
TEST(PrometheusMutationTest, EveryMutantParsesToSortedBuckets) {
  MetricsRegistry reg;
  reg.GetCounter("serve.requests.completed").Add(12);
  reg.GetGauge("serve.queue_depth").Set(-3);
  Histogram& h = reg.GetHistogram("serve.latency.exec_ns");
  for (int b = 0; b < 24; ++b) h.Observe(int64_t{3} << b);
  const std::string text = obs::PrometheusText(reg);
  const std::string hist = "freehgc_serve_latency_exec_ns";
  const auto base = obs::ParsePrometheusText(text);
  size_t labeled = 0;
  for (const PromSample& s : base) labeled += s.labels.count("le");
  ASSERT_GT(labeled, 16u) << text;
  ASSERT_TRUE(SortedAndNanFree(obs::PromBuckets(base, hist)));

  Rng rng(20261021);
  for (int i = 0; i < 3000; ++i) {
    const std::string mutant = testing_util::MutateBytes(text, rng);
    const auto samples = obs::ParsePrometheusText(mutant);
    const auto buckets = obs::PromBuckets(samples, hist);
    ASSERT_TRUE(SortedAndNanFree(buckets)) << "mutant " << i;
    bool finite_counts = true;
    for (const auto& bucket : buckets) {
      finite_counts = finite_counts && std::isfinite(bucket.second);
    }
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
      const double v = obs::QuantileFromCumulativeBuckets(buckets, q);
      if (finite_counts) {
        EXPECT_FALSE(std::isnan(v)) << "mutant " << i << " q=" << q;
      }
    }
  }
}

FlightRecord MakeRecord(uint64_t id, int64_t queue_ns, int64_t exec_ns,
                        RequestOutcome outcome = RequestOutcome::kOk) {
  FlightRecord rec;
  rec.id = id;
  rec.fingerprint = 0xabcdef;
  rec.submit_ns = static_cast<int64_t>(id) * 1000;
  rec.queue_ns = queue_ns;
  rec.exec_ns = exec_ns;
  rec.slot = static_cast<int32_t>(id % 4);
  rec.outcome = outcome;
  rec.set_graph("acm");
  rec.set_method("freehgc");
  return rec;
}

TEST(FlightRecorderTest, RingWrapsKeepingMostRecent) {
  FlightRecorder fr(/*capacity=*/8, /*outlier_capacity=*/4);
  for (uint64_t id = 1; id <= 20; ++id) {
    fr.Record(MakeRecord(id, 10, 10));
  }
  EXPECT_EQ(fr.TotalRecorded(), 20);
  const auto recent = fr.Recent();
  ASSERT_EQ(recent.size(), 8u);
  std::set<uint64_t> ids;
  for (const auto& r : recent) ids.insert(r.id);
  // Exactly ids 13..20 survive the wrap.
  for (uint64_t id = 13; id <= 20; ++id) EXPECT_TRUE(ids.count(id)) << id;
}

TEST(FlightRecorderTest, OutliersSurviveWraparound) {
  FlightRecorder fr(/*capacity=*/4, /*outlier_capacity=*/2);
  // One very slow request early, then enough fast traffic to evict it
  // from the ring many times over.
  fr.Record(MakeRecord(1, 500'000'000, 1'500'000'000));
  fr.Record(MakeRecord(2, 0, 900'000'000));
  for (uint64_t id = 3; id <= 40; ++id) fr.Record(MakeRecord(id, 1, 1));
  // And one error, also long gone from the ring.
  fr.Record(MakeRecord(41, 1, 1, RequestOutcome::kError));
  for (uint64_t id = 42; id <= 60; ++id) fr.Record(MakeRecord(id, 1, 1));

  const auto slowest = fr.Slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].id, 1u);  // sorted slowest-first
  EXPECT_EQ(slowest[1].id, 2u);
  const auto errors = fr.Errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].id, 41u);
  EXPECT_EQ(errors[0].outcome, RequestOutcome::kError);

  const std::string dump = fr.DumpJson();
  EXPECT_NE(dump.find("\"recent\": ["), std::string::npos);
  EXPECT_NE(dump.find("\"slowest\": ["), std::string::npos);
  EXPECT_NE(dump.find("\"errors\": ["), std::string::npos);
  EXPECT_NE(dump.find("\"outcome\": \"error\""), std::string::npos);
}

TEST(FlightRecorderTest, NameFieldsTruncateSafely) {
  FlightRecord rec = MakeRecord(1, 1, 1);
  rec.set_graph("a-very-long-graph-name-that-exceeds-the-inline-buffer");
  rec.set_method("an-oversized-method-name");
  // Truncated, NUL-terminated, no overflow (ASAN would catch one).
  EXPECT_EQ(std::string(rec.graph).size(), sizeof(rec.graph) - 1);
  EXPECT_EQ(std::string(rec.method).size(), sizeof(rec.method) - 1);
}

TEST(AccessLogTest, GoldenLineFormat) {
  AccessRecord rec;
  rec.id = 7;
  rec.slot = 2;
  rec.graph = "acm";
  rec.method = "freehgc";
  rec.fingerprint = 0x1234;
  rec.priority = 1;
  rec.queue_ns = 1000;
  rec.exec_ns = 2000;
  rec.total_ns = 3000;
  rec.outcome = RequestOutcome::kOk;
  rec.evalctx_hit = true;
  rec.cache_hits = 5;
  rec.cache_misses = 1;
  EXPECT_EQ(
      AccessLog::FormatLine(rec),
      "{\"id\": 7, \"slot\": 2, \"graph\": \"acm\", \"method\": "
      "\"freehgc\", \"fingerprint\": \"0000000000001234\", \"priority\": 1, "
      "\"queue_ns\": 1000, \"exec_ns\": 2000, \"total_ns\": 3000, "
      "\"outcome\": \"ok\", \"reason\": \"\", \"evalctx_hit\": true, "
      "\"cache\": {\"hits\": 5, \"misses\": 1}}");
}

TEST(AccessLogTest, EscapesReasonStrings) {
  AccessRecord rec;
  rec.outcome = RequestOutcome::kError;
  rec.reason = "quote \" backslash \\ newline \n done";
  const std::string line = AccessLog::FormatLine(rec);
  EXPECT_NE(line.find("quote \\\" backslash \\\\ newline \\u000a done"),
            std::string::npos);
}

TEST(AccessLogTest, JsonlWellFormedUnderFourSlotLoad) {
  const std::string path = testing::TempDir() + "/telemetry_access.jsonl";
  std::remove(path.c_str());

  constexpr int kRequests = 64;
  {
    AccessLog log;
    ASSERT_TRUE(log.Open(path).ok());
    serve::RequestScheduler sched(
        serve::SchedulerOptions{.slots = 4,
                                .queue_capacity = kRequests,
                                .threads_per_slot = 1,
                                .max_concurrent = 4},
        [](const serve::CondenseRequest& req,
           const serve::RequestContext& rctx) -> Result<serve::CondenseReply> {
          if (req.seed % 7 == 0) return Status::Internal("synthetic failure");
          serve::CondenseReply reply;
          reply.request_id = rctx.id;
          return reply;
        });
    sched.set_telemetry(&log, [](AccessRecord& rec) {
      rec.cache_hits = 0;
      rec.cache_misses = 0;
    });
    std::vector<serve::TicketPtr> tickets;
    for (int i = 0; i < kRequests; ++i) {
      serve::CondenseRequest req;
      req.graph = "g";
      req.seed = static_cast<uint64_t>(i);
      req.priority = i % 3;
      auto t = sched.Submit(std::move(req));
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      tickets.push_back(*t);
    }
    for (auto& t : tickets) t->Wait();
    sched.Shutdown();
    EXPECT_EQ(log.lines_written(), kRequests);
  }

  // Every line is intact JSON-ish (no interleaved bytes), and every
  // request id appears exactly once.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::set<uint64_t> ids;
  int lines = 0, errors = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    unsigned long long id = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"id\": %llu,", &id), 1) << line;
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
    EXPECT_NE(line.find("\"outcome\": \""), std::string::npos);
    if (line.find("\"outcome\": \"error\"") != std::string::npos) {
      ++errors;
      EXPECT_NE(line.find("synthetic failure"), std::string::npos);
    }
  }
  EXPECT_EQ(lines, kRequests);
  EXPECT_EQ(static_cast<size_t>(lines), ids.size());
  EXPECT_GT(errors, 0);  // the seed%7 failures must be logged as errors
  std::remove(path.c_str());
}

TEST(RateWindowTest, ComputesWindowedRate) {
  obs::RateWindow w(/*window_ns=*/1'000'000'000);
  EXPECT_EQ(w.RatePerSec(), 0.0);
  w.Add(0, 0.0);
  EXPECT_EQ(w.RatePerSec(), 0.0);  // one sample: no interval yet
  w.Add(500'000'000, 50.0);
  EXPECT_NEAR(w.RatePerSec(), 100.0, 1e-9);
  // Old samples age out of the window.
  w.Add(2'000'000'000, 80.0);
  w.Add(3'000'000'000, 90.0);
  EXPECT_NEAR(w.RatePerSec(), 10.0, 1e-9);
  // Counter reset (server restart) reports 0, not a negative rate.
  w.Add(3'500'000'000, 2.0);
  EXPECT_EQ(w.RatePerSec(), 0.0);
}

TEST(ScopedRequestIdTest, SpansCarryTheRequestId) {
  obs::ClearTrace();
  obs::SetTracingEnabled(true);
  {
    obs::ScopedRequestId req(42);
    EXPECT_EQ(obs::CurrentRequestId(), 42u);
    FREEHGC_TRACE_SPAN("telemetry.tagged");
    {
      obs::ScopedRequestId nested(43);
      EXPECT_EQ(obs::CurrentRequestId(), 43u);
      FREEHGC_TRACE_SPAN("telemetry.nested");
    }
    EXPECT_EQ(obs::CurrentRequestId(), 42u);  // restored
  }
  EXPECT_EQ(obs::CurrentRequestId(), 0u);
  { FREEHGC_TRACE_SPAN("telemetry.untagged"); }
  obs::SetTracingEnabled(false);

  uint64_t tagged = 0, nested = 0, untagged = 99;
  for (const obs::SpanRecord& s : obs::SnapshotSpans()) {
    const std::string name = s.name;
    if (name == "telemetry.tagged") tagged = s.request;
    if (name == "telemetry.nested") nested = s.request;
    if (name == "telemetry.untagged") untagged = s.request;
  }
  EXPECT_EQ(tagged, 42u);
  EXPECT_EQ(nested, 43u);
  EXPECT_EQ(untagged, 0u);
}

}  // namespace
}  // namespace freehgc
