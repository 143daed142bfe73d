#include "obs/exposition.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace freehgc::obs {

namespace {

std::string I64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

/// Upper bound (inclusive) of power-of-two bucket b; see
/// Histogram::BucketIndex.
int64_t BucketUpper(int b) { return b == 0 ? 1 : (int64_t{1} << b); }

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out = "freehgc_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string PrometheusText(const MetricsRegistry& reg) {
  std::string out;
  reg.Visit(
      [&out](const std::string& name, const Counter& c) {
        const std::string p = PrometheusName(name) + "_total";
        out += "# TYPE " + p + " counter\n";
        out += p + " " + I64(c.Value()) + "\n";
      },
      [&out](const std::string& name, const Gauge& g) {
        const std::string p = PrometheusName(name);
        out += "# TYPE " + p + " gauge\n";
        out += p + " " + I64(g.Value()) + "\n";
      },
      [&out](const std::string& name, const Histogram& h) {
        const std::string p = PrometheusName(name);
        out += "# TYPE " + p + " histogram\n";
        // One pass of relaxed per-bucket loads; the cumulative counts and
        // the _count line are all derived from these same loads, so the
        // snapshot is internally consistent even while writers race.
        int64_t cum = 0;
        const int64_t sum = h.Sum();
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          const int64_t n = h.BucketCount(b);
          if (n == 0) continue;
          cum += n;
          out += p + "_bucket{le=\"" + I64(BucketUpper(b)) + "\"} " +
                 I64(cum) + "\n";
        }
        out += p + "_bucket{le=\"+Inf\"} " + I64(cum) + "\n";
        out += p + "_sum " + I64(sum) + "\n";
        out += p + "_count " + I64(cum) + "\n";
      });
  return out;
}

std::string PrometheusText() { return PrometheusText(MetricsRegistry::Global()); }

std::vector<PromSample> ParsePrometheusText(const std::string& text) {
  std::vector<PromSample> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;

    PromSample s;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0 || i == line.size()) continue;
    s.name = line.substr(0, i);
    if (line[i] == '{') {
      const size_t close = line.find('}', i);
      if (close == std::string::npos) continue;
      // label pairs: key="value"[,key="value"...]
      size_t p = i + 1;
      while (p < close) {
        const size_t eq = line.find('=', p);
        if (eq == std::string::npos || eq >= close) break;
        const std::string key = line.substr(p, eq - p);
        size_t vbegin = eq + 1;
        if (vbegin < close && line[vbegin] == '"') ++vbegin;
        size_t vend = line.find('"', vbegin);
        if (vend == std::string::npos || vend > close) vend = close;
        s.labels[key] = line.substr(vbegin, vend - vbegin);
        p = vend + 1;
        if (p < close && line[p] == ',') ++p;
      }
      i = close + 1;
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) continue;
    s.value = std::strtod(line.c_str() + i, nullptr);
    out.push_back(std::move(s));
  }
  return out;
}

bool FindPromValue(const std::vector<PromSample>& samples,
                   const std::string& name, double* out) {
  for (const PromSample& s : samples) {
    if (s.name == name) {
      *out = s.value;
      return true;
    }
  }
  return false;
}

std::vector<std::pair<double, double>> PromBuckets(
    const std::vector<PromSample>& samples, const std::string& base_name) {
  const std::string bucket_name = base_name + "_bucket";
  std::vector<std::pair<double, double>> out;
  for (const PromSample& s : samples) {
    if (s.name != bucket_name) continue;
    const auto le = s.labels.find("le");
    if (le == s.labels.end() || std::isnan(s.value)) continue;
    const double bound = le->second == "+Inf"
                             ? std::numeric_limits<double>::infinity()
                             : std::strtod(le->second.c_str(), nullptr);
    // Scraped text can carry any bound; a NaN one would break std::sort's
    // strict weak ordering, and only "+Inf" may be infinite.
    if (!std::isfinite(bound) && le->second != "+Inf") continue;
    out.emplace_back(bound, s.value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double QuantileFromCumulativeBuckets(
    const std::vector<std::pair<double, double>>& buckets, double q) {
  if (buckets.empty()) return 0.0;
  const double total = buckets.back().second;
  if (total <= 0.0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * total;
  if (rank < 1.0) rank = 1.0;
  double prev_bound = 0.0;
  double prev_cum = 0.0;
  for (const auto& [bound, cum] : buckets) {
    if (cum >= rank) {
      const double in_bucket = cum - prev_cum;
      if (in_bucket <= 0.0) return bound;
      if (std::isinf(bound)) return prev_bound;  // overflow bucket
      // The exposition omits empty buckets, so the previous *emitted*
      // bound can sit well below this bucket's true lower edge — e.g. an
      // overload tail whose observations all land in one high bucket.
      // Bounds are powers of two: the edge is bound/2 (0 for the first
      // bucket), exactly the lower Histogram::ApproxQuantile interpolates
      // from server-side.
      const double lower =
          std::max(prev_bound, bound > 1.0 ? bound / 2.0 : 0.0);
      const double frac = (rank - prev_cum) / in_bucket;
      return lower + frac * (bound - lower);
    }
    prev_bound = bound;
    prev_cum = cum;
  }
  return prev_bound;
}

}  // namespace freehgc::obs
