#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/freehgc.h"
#include "datasets/generator.h"
#include "exec/exec_context.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/artifact_cache.h"
#include "sparse/csr.h"
#include "sparse/ops.h"

namespace freehgc {
namespace {

using obs::MetricsRegistry;
using obs::SpanRecord;

/// Spans with a given name, in recording order.
std::vector<SpanRecord> SpansNamed(const std::vector<SpanRecord>& spans,
                                   const std::string& name) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

/// A small deterministic sparse matrix for kernel-driving tests.
CsrMatrix TestMatrix(int32_t n, uint64_t seed) {
  std::vector<CooEntry> entries;
  uint64_t state = seed;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int32_t r = 0; r < n; ++r) {
    for (int k = 0; k < 8; ++k) {
      const int32_t c = static_cast<int32_t>(next() % n);
      entries.push_back({r, c, 1.0f + static_cast<float>(next() % 7)});
    }
  }
  auto res = CsrMatrix::FromCoo(n, n, std::move(entries));
  EXPECT_TRUE(res.ok());
  return std::move(res).value();
}

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ClearTrace();
    obs::SetTracingEnabled(true);
  }
  void TearDown() override {
    obs::SetTracingEnabled(false);
    obs::ClearTrace();
  }
};

TEST_F(TracingTest, SpanNestingAndOrdering) {
  {
    FREEHGC_TRACE_SPAN("outer");
    {
      FREEHGC_TRACE_SPAN("inner_a");
    }
    {
      FREEHGC_TRACE_SPAN("inner_b");
    }
  }
  const auto spans = obs::SnapshotSpans();
  const auto outer = SpansNamed(spans, "outer");
  const auto inner_a = SpansNamed(spans, "inner_a");
  const auto inner_b = SpansNamed(spans, "inner_b");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner_a.size(), 1u);
  ASSERT_EQ(inner_b.size(), 1u);

  // Children close before the parent and are contained in it.
  EXPECT_GE(inner_a[0].begin_ns, outer[0].begin_ns);
  EXPECT_LE(inner_a[0].end_ns, outer[0].end_ns);
  EXPECT_GE(inner_b[0].begin_ns, inner_a[0].end_ns);
  EXPECT_LE(inner_b[0].end_ns, outer[0].end_ns);
  // All on the recording thread, and spans close after they open.
  EXPECT_EQ(inner_a[0].tid, outer[0].tid);
  for (const SpanRecord& s : {outer[0], inner_a[0], inner_b[0]}) {
    EXPECT_LE(s.begin_ns, s.end_ns);
  }
}

TEST_F(TracingTest, DisabledTracerRecordsNothing) {
  obs::SetTracingEnabled(false);
  {
    FREEHGC_TRACE_SPAN("ghost");
  }
  EXPECT_TRUE(SpansNamed(obs::SnapshotSpans(), "ghost").empty());
}

TEST_F(TracingTest, SpanOpenWhileTracingOffIsDropped) {
  obs::SetTracingEnabled(false);
  {
    obs::ScopedSpan span("late_enable");
    obs::SetTracingEnabled(true);
    // Enabled only after the span was constructed: nothing recorded.
  }
  EXPECT_TRUE(SpansNamed(obs::SnapshotSpans(), "late_enable").empty());
}

/// Runs a ParallelFor of `n` one-item chunks in which every chunk waits,
/// until a shared 5 s deadline, for `want` distinct threads to have
/// entered a chunk, then calls on_chunk(ws, on_caller). Returns how many
/// distinct threads entered. A pool wakes idle helpers only while chunks
/// remain, so the rendezvous holds the chunks open until they join.
template <typename Fn>
size_t RendezvousParallelFor(exec::ExecContext& ex, int64_t n, size_t want,
                             Fn on_chunk) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> entered;
  const std::thread::id caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ex.ParallelFor(n, 1, [&](int64_t, int64_t, exec::Workspace& ws) {
    {
      std::unique_lock<std::mutex> lock(mu);
      entered.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_until(lock, deadline, [&] { return entered.size() >= want; });
    }
    on_chunk(ws, std::this_thread::get_id() == caller);
  });
  return entered.size();
}

TEST_F(TracingTest, ParallelForSpansCarryWorkerAttribution) {
  exec::ExecContext ex(4);
  // Idle helpers join while work is available: all four workers enter.
  const size_t entered = RendezvousParallelFor(
      ex, 64, 4, [](exec::Workspace&, bool) {});
  EXPECT_EQ(entered, 4u);
  const auto spans =
      SpansNamed(obs::SnapshotSpans(), "parallel_for");
  ASSERT_FALSE(spans.empty());
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.worker, 0);
    EXPECT_LT(s.worker, 4);
  }
  // Each participant's span carries its own worker id.
  std::vector<int32_t> workers;
  for (const SpanRecord& s : spans) workers.push_back(s.worker);
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  EXPECT_EQ(workers.size(), 4u);
}

TEST_F(TracingTest, ChromeTraceExportIsWellFormed) {
  {
    FREEHGC_TRACE_SPAN("export_me");
  }
  exec::ExecContext ex(2);
  const CsrMatrix a = TestMatrix(200, 1);
  sparse::SpGemm(a, a, 64, &ex);

  const std::string path = ::testing::TempDir() + "/freehgc_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();

  // Structural sanity (CI additionally runs python3 -m json.tool on a
  // real trace): an object wrapping a traceEvents array, balanced
  // delimiters, and the spans we just recorded.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"export_me\""), std::string::npos);
  EXPECT_NE(json.find("\"spgemm\""), std::string::npos);
  EXPECT_NE(json.find("\"parallel_for\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  std::remove(path.c_str());
}

TEST(MetricsTest, CounterAggregationAcrossParallelForWorkers) {
  obs::Counter& c =
      MetricsRegistry::Global().GetCounter("test.obs_counter");
  for (int threads : {1, 2, 4}) {
    c.Reset();
    exec::ExecContext ex(threads);
    ex.ParallelFor(12345, 16,
                   [&](int64_t begin, int64_t end, exec::Workspace&) {
                     c.Add(end - begin);
                   });
    EXPECT_EQ(c.Value(), 12345) << "threads=" << threads;
  }
}

TEST(MetricsTest, GaugeUpdateMaxKeepsHighWaterMark) {
  obs::Gauge& g = MetricsRegistry::Global().GetGauge("test.obs_gauge");
  g.Reset();
  g.UpdateMax(10);
  g.UpdateMax(3);
  EXPECT_EQ(g.Value(), 10);
  g.UpdateMax(25);
  EXPECT_EQ(g.Value(), 25);
}

TEST(MetricsTest, WorkspaceGaugeCountsHelperWorkspaces) {
  // The exec.workspace_bytes_hwm gauge covers the pool's helper arenas,
  // not just the driver's: grow a workspace only on the helper.
  obs::Gauge& hwm =
      MetricsRegistry::Global().GetGauge("exec.workspace_bytes_hwm");
  obs::SetDetailedMetricsEnabled(true);
  hwm.Reset();
  constexpr size_t kFloats = size_t{1} << 20;
  exec::ExecContext ex(2);
  const size_t entered = RendezvousParallelFor(
      ex, 2, 2, [&](exec::Workspace& ws, bool on_caller) {
        if (!on_caller) ws.F32(kFloats);
      });
  obs::SetDetailedMetricsEnabled(false);
  ASSERT_EQ(entered, 2u) << "the helper never joined";
  EXPECT_GE(hwm.Value(), static_cast<int64_t>(kFloats * sizeof(float)));
  hwm.Reset();
}

TEST(MetricsTest, HistogramBucketsPowerOfTwo) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(5), 3);
  EXPECT_EQ(obs::Histogram::BucketIndex(8), 3);
  EXPECT_EQ(obs::Histogram::BucketIndex(9), 4);

  obs::Histogram& h =
      MetricsRegistry::Global().GetHistogram("test.obs_hist");
  h.Reset();
  for (int64_t v : {1, 2, 3, 4, 100}) h.Observe(v);
  EXPECT_EQ(h.Count(), 5);
  EXPECT_EQ(h.Sum(), 110);
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(2), 2);
  EXPECT_EQ(h.BucketCount(7), 1);  // 100 -> (64, 128]
}

TEST(MetricsTest, HistogramApproxQuantile) {
  obs::Histogram& h =
      MetricsRegistry::Global().GetHistogram("test.obs_quantile");
  h.Reset();
  EXPECT_EQ(h.ApproxQuantile(0.5), 0);  // empty

  // 100 samples of 1000: every quantile lands in 1000's bucket,
  // (512, 1024], so the estimate is bounded by a factor of two.
  for (int i = 0; i < 100; ++i) h.Observe(1000);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const int64_t est = h.ApproxQuantile(q);
    EXPECT_GT(est, 512) << "q=" << q;
    EXPECT_LE(est, 1024) << "q=" << q;
  }

  // A bimodal distribution: p50 must sit in the low mode's bucket and
  // p99 in the high mode's.
  h.Reset();
  for (int i = 0; i < 90; ++i) h.Observe(10);
  for (int i = 0; i < 10; ++i) h.Observe(100000);
  EXPECT_LE(h.ApproxQuantile(0.5), 16);
  EXPECT_GT(h.ApproxQuantile(0.99), 65536);
  // Quantiles are monotone in q.
  EXPECT_LE(h.ApproxQuantile(0.25), h.ApproxQuantile(0.75));

  // The rank is the ceiling of q * count: p50 of three samples is the
  // second one (100, bucket (64, 128]), not the minimum.
  h.Reset();
  for (int64_t v : {1, 100, 10000}) h.Observe(v);
  EXPECT_GT(h.ApproxQuantile(0.5), 64);
  EXPECT_LE(h.ApproxQuantile(0.5), 128);
}

TEST(MetricsTest, HistogramQuantileOverloadTailAllInTopBucket) {
  // The overload-tail edge case the serve bench's p99 reporting leans
  // on: every observation lands in one high bucket (a saturated server
  // pins latencies to the same decade). The estimate must stay inside
  // that bucket for every q and remain monotone — no falling back to
  // the mean, no walking past the last bucket.
  obs::Histogram& h =
      MetricsRegistry::Global().GetHistogram("test.obs_top_bucket");
  h.Reset();
  const int64_t v = int64_t{3} << 32;  // ~12.9 s in ns, bucket (2^33, 2^34]
  for (int i = 0; i < 1000; ++i) h.Observe(v);
  int64_t prev = 0;
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const int64_t est = h.ApproxQuantile(q);
    EXPECT_GT(est, int64_t{1} << 33) << "q=" << q;
    EXPECT_LE(est, int64_t{1} << 34) << "q=" << q;
    EXPECT_GE(est, prev) << "q=" << q;
    prev = est;
  }

  // Values past the largest power-of-two boundary clamp into the final
  // bucket rather than indexing out of range, and the quantile stays
  // within that bucket's bounds.
  h.Reset();
  const int64_t huge = (int64_t{1} << 62) + 12345;
  EXPECT_EQ(obs::Histogram::BucketIndex(huge), 62);
  h.Observe(huge);
  const int64_t p99 = h.ApproxQuantile(0.99);
  EXPECT_GT(p99, int64_t{1} << 61);
  EXPECT_LE(p99, int64_t{1} << 62);
}

TEST(MetricsTest, ScrapedQuantileMatchesServerAtOverloadTail) {
  // p99-from-METRICS must agree with the server-side estimate when the
  // whole distribution sits in the top occupied bucket (the shape an
  // overloaded phase produces) — this is the reconstruction the load
  // harness and dashboards rely on.
  MetricsRegistry reg;
  obs::Histogram& h = reg.GetHistogram("overload.lat");
  for (int i = 0; i < 500; ++i) h.Observe(int64_t{5} << 30);
  const auto samples = obs::ParsePrometheusText(obs::PrometheusText(reg));
  const auto buckets = obs::PromBuckets(samples, "freehgc_overload_lat");
  for (double q : {0.5, 0.99}) {
    const double scraped = obs::QuantileFromCumulativeBuckets(buckets, q);
    const double server = static_cast<double>(h.ApproxQuantile(q));
    EXPECT_NEAR(scraped, server, server * 0.01 + 2.0) << "q=" << q;
    EXPECT_GT(scraped, static_cast<double>(int64_t{1} << 32));
    EXPECT_LE(scraped, static_cast<double>(int64_t{1} << 33));
  }
}

/// The determinism contract extended to metrics: every *value* metric a
/// kernel emits is a sum of per-chunk contributions with a thread-count
/// independent chunk layout, so 1, 2 and 4 workers must agree bit for
/// bit. (Timing counters — names ending in _ns — measure the schedule
/// and are exempt.)
TEST(MetricsTest, KernelValueMetricsDeterministicAcrossThreadCounts) {
  const CsrMatrix a = TestMatrix(300, 7);
  const CsrMatrix b = TestMatrix(300, 11);
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::vector<std::string> value_counters = {
      "spgemm.calls", "spgemm.flops", "spgemm.output_nnz",
      "spgemm.rows_truncated", "spgemm.entries_dropped",
      "exec.parallel_for_calls", "exec.chunks"};

  // exec.* metrics are per-invoke and only collected while armed.
  obs::SetDetailedMetricsEnabled(true);
  std::vector<std::vector<int64_t>> per_thread_values;
  std::vector<std::pair<int64_t, int64_t>> hist_shape;
  for (int threads : {1, 2, 4}) {
    reg.ResetAll();
    exec::ExecContext ex(threads);
    const CsrMatrix c = sparse::SpGemm(a, b, 32, &ex);
    EXPECT_GT(c.nnz(), 0);
    std::vector<int64_t> values;
    for (const std::string& name : value_counters) {
      values.push_back(reg.GetCounter(name).Value());
    }
    per_thread_values.push_back(std::move(values));
    obs::Histogram& h = reg.GetHistogram("spgemm.row_nnz");
    hist_shape.emplace_back(h.Count(), h.Sum());
  }
  for (size_t i = 1; i < per_thread_values.size(); ++i) {
    EXPECT_EQ(per_thread_values[i], per_thread_values[0]);
    EXPECT_EQ(hist_shape[i], hist_shape[0]);
  }
  // The truncation budget of 32 actually fired (the metric is live).
  EXPECT_GT(per_thread_values[0][3], 0);
  obs::SetDetailedMetricsEnabled(false);
  reg.ResetAll();
}

TEST(MetricsTest, DumpJsonIsBalancedAndContainsSections) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.obs_counter").Add(3);
  reg.GetHistogram("test.obs_hist").Observe(5);
  const std::string json = reg.DumpJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs_counter\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ScopedTimerTest, AccumulatesIntoDouble) {
  double acc = 0.0;
  {
    ScopedTimer t(acc);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  EXPECT_GT(acc, 0.0);
  const double first = acc;
  {
    ScopedTimer t(acc);
  }
  EXPECT_GE(acc, first);  // += semantics, not overwrite
}

TEST(ScopedTimerTest, CallbackForm) {
  double seen = -1.0;
  {
    ScopedTimer t([&seen](double s) { seen = s; });
  }
  EXPECT_GE(seen, 0.0);
}

TEST(StageSecondsTest, BreakdownCoversCondenseSeconds) {
  const HeteroGraph g = datasets::MakeAcm(1, /*scale=*/0.3);
  exec::ExecContext ex(2);
  core::FreeHgcOptions opts;
  opts.ratio = 0.05;
  pipeline::ArtifactCache cache;
  auto res = core::Condense(g, opts, &ex, &cache);
  ASSERT_TRUE(res.ok());
  const core::StageSeconds& s = res->stage_seconds;
  for (double v : {s.metapath, s.target, s.father, s.leaf, s.assemble}) {
    EXPECT_GE(v, 0.0);
  }
  const double total = s.Total();
  EXPECT_GT(total, 0.0);
  // The five stages account for the condensation wall-clock: within 10%
  // (plus a millisecond floor so microsecond-scale noise cannot flake).
  EXPECT_LE(total, res->seconds * 1.10 + 1e-3);
  EXPECT_GE(total, res->seconds * 0.90 - 1e-3);
}

}  // namespace
}  // namespace freehgc
