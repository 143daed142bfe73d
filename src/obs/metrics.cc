#include "obs/metrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace freehgc::obs {

namespace internal {
std::atomic<bool> g_detailed_metrics{false};
}  // namespace internal

void SetDetailedMetricsEnabled(bool enabled) {
  internal::g_detailed_metrics.store(enabled, std::memory_order_relaxed);
}

namespace {

void AppendKey(std::string& out, const std::string& name, bool& first) {
  if (!first) out += ", ";
  first = false;
  out += '"';
  out += name;  // metric names are identifier-like; no escaping needed
  out += "\": ";
}

std::string I64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

}  // namespace

int64_t Histogram::ApproxQuantile(double q) const {
  const int64_t total = Count();
  if (total <= 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (1-based, ceiling), then walk the buckets.
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const int64_t n = BucketCount(b);
    if (n == 0) continue;
    if (cum + n >= rank) {
      // Bucket b holds values in (lower, upper]; interpolate by the
      // sample's position inside the bucket.
      const int64_t upper = b == 0 ? 1 : (int64_t{1} << b);
      const int64_t lower = b <= 1 ? (b == 0 ? 0 : 1) : (int64_t{1} << (b - 1));
      const double frac =
          static_cast<double>(rank - cum) / static_cast<double>(n);
      return lower +
             static_cast<int64_t>(frac * static_cast<double>(upper - lower));
    }
    cum += n;
  }
  return Sum() / total;  // counts raced with buckets; fall back to mean
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    AppendKey(out, name, first);
    out += I64(c->Value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    AppendKey(out, name, first);
    out += I64(g->Value());
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    AppendKey(out, name, first);
    out += "{\"count\": " + I64(h->Count()) + ", \"sum\": " + I64(h->Sum()) +
           ", \"buckets\": [";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const int64_t n = h->BucketCount(b);
      if (n == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      // Upper bound of bucket b (inclusive): 2^(b-1) ... see BucketIndex.
      const int64_t upper = b == 0 ? 1 : (int64_t{1} << b);
      out += "[" + I64(upper) + ", " + I64(n) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::Visit(
    const std::function<void(const std::string&, const Counter&)>& counter,
    const std::function<void(const std::string&, const Gauge&)>& gauge,
    const std::function<void(const std::string&, const Histogram&)>& histogram)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) counter(name, *c);
  for (const auto& [name, g] : gauges_) gauge(name, *g);
  for (const auto& [name, h] : histograms_) histogram(name, *h);
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace freehgc::obs
