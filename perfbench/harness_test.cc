#include "harness.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace freehgc::perfbench {
namespace {

/// `n` arrivals of one class, `gap_ms` apart.
loadgen::LoadSpec EvenSpec(int n, int64_t gap_ms,
                           std::vector<loadgen::Arrival>* schedule) {
  loadgen::LoadSpec spec;
  loadgen::RequestClass cls;
  cls.name = "c";
  cls.request.graph = "g";
  spec.classes.push_back(cls);
  spec.phases.push_back({"even", static_cast<double>(n * gap_ms) * 1e-3,
                         1000.0 / static_cast<double>(gap_ms),
                         1000.0 / static_cast<double>(gap_ms)});
  schedule->clear();
  for (int i = 0; i < n; ++i) {
    loadgen::Arrival a;
    a.offset_ns = i * gap_ms * 1'000'000;
    schedule->push_back(a);
  }
  return spec;
}

TEST(CappedOpenLoopTest, ArrivalsPastTheCapAreDroppedAndTheRunEndsOnTime) {
  // One thread, an arrival every 10 ms for 1 s; the first send stalls
  // 500 ms, so the arrivals due while it stalls are far behind schedule.
  std::vector<loadgen::Arrival> schedule;
  const loadgen::LoadSpec spec = EvenSpec(100, 10, &schedule);
  const auto stall_first = [](size_t i, const serve::CondenseRequest&, int) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(500));
    return Status::OK();
  };

  const int64_t t0 = obs::NowNs();
  const std::vector<ArrivalOutcome> capped = RunCappedOpenLoop(
      spec, schedule, 1, /*late_cap_ns=*/100'000'000, stall_first, nullptr);
  const double wall_s = static_cast<double>(obs::NowNs() - t0) * 1e-9;
  ASSERT_EQ(capped.size(), schedule.size());
  EXPECT_EQ(capped[0].kind, ArrivalOutcome::Kind::kOk);
  EXPECT_GE(capped[0].latency_ns, 500'000'000);
  // Due at <= 300 ms, reached at >= 500 ms: more than 100 ms late.
  for (size_t i = 1; i <= 30; ++i) {
    EXPECT_EQ(capped[i].kind, ArrivalOutcome::Kind::kLateDrop) << i;
  }
  // Due at >= 600 ms: on time again once the backlog is skipped.
  for (size_t i = 60; i < capped.size(); ++i) {
    EXPECT_EQ(capped[i].kind, ArrivalOutcome::Kind::kOk) << i;
  }
  EXPECT_LT(wall_s, 1.5);

  // Without a cap every arrival is sent, each charged its lateness.
  const std::vector<ArrivalOutcome> uncapped =
      RunCappedOpenLoop(spec, schedule, 1, 0, stall_first, nullptr);
  for (const ArrivalOutcome& o : uncapped) {
    EXPECT_EQ(o.kind, ArrivalOutcome::Kind::kOk);
  }
  EXPECT_GE(uncapped[1].latency_ns, 490'000'000);
}

TEST(CappedOpenLoopTest, ArrivalsArePinnedToThreadsAndFailuresCounted) {
  std::vector<loadgen::Arrival> schedule;
  const loadgen::LoadSpec spec = EvenSpec(40, 1, &schedule);
  std::vector<int> thread_of(schedule.size(), -1);
  const std::vector<ArrivalOutcome> out = RunCappedOpenLoop(
      spec, schedule, 4, 0,
      [&](size_t i, const serve::CondenseRequest&, int thread) {
        thread_of[i] = thread;
        return i % 5 == 0 ? Status::Internal("boom") : Status::OK();
      },
      nullptr);
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(thread_of[i], static_cast<int>(i % 4));
    EXPECT_EQ(out[i].kind, i % 5 == 0 ? ArrivalOutcome::Kind::kFailed
                                      : ArrivalOutcome::Kind::kOk);
  }
}

TEST(SpanRecorderTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder rec;
  const int root = rec.Add("root", 0, 100, -1, 0);
  rec.Add("child", 10, 30, root, 0);
  rec.Add("child", 20, 50, root, 0);  // overlaps the first child
  const int late = rec.Add("child", 60, 120, root, 0);  // clipped at 100
  rec.Add("grandchild", 70, 80, late, 0);
  const std::vector<int64_t> self = rec.SelfTimesNs();
  EXPECT_EQ(self[0], 100 - 40 - 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[3], 60 - 10);
  EXPECT_EQ(self[4], 10);

  const auto table = rec.LayerTable();
  EXPECT_EQ(table.at("child").count, 3);
  EXPECT_EQ(table.at("root").count, 1);
}

TEST(SpanRecorderTest, RequestIdReachesDescendantsOnly) {
  SpanRecorder rec;
  const int a = rec.Add("a", 0, 10, -1, 0);
  const int b = rec.Add("b", 0, 10, -1, 0);
  const int a1 = rec.Add("a1", 1, 2, a, 0);
  rec.Add("b1", 1, 2, b, 0);
  rec.Add("a1x", 1, 2, a1, 0);
  rec.SetRequestId(a, 42);
  const std::vector<Span> spans = rec.spans();
  EXPECT_EQ(spans[0].request_id, 42u);
  EXPECT_EQ(spans[1].request_id, 0u);
  EXPECT_EQ(spans[2].request_id, 42u);
  EXPECT_EQ(spans[3].request_id, 0u);
  EXPECT_EQ(spans[4].request_id, 42u);
}

}  // namespace
}  // namespace freehgc::perfbench
