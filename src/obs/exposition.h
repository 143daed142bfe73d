#ifndef FREEHGC_OBS_EXPOSITION_H_
#define FREEHGC_OBS_EXPOSITION_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace freehgc::obs {

/// Prometheus text exposition for the metrics registry, plus the minimal
/// parser the polling tools (freehgc_top, bench_serve_load) use to read a
/// snapshot back. The wire op `METRICS` (serve/wire.h) returns
/// PrometheusText() followed by PrometheusText() of the service's own
/// registries (scheduler, graph store, artifact cache), so any
/// Prometheus-compatible scraper can poll a live freehgc_server without
/// restarting it.
///
/// Mapping from registry names to exposition names:
///   - dots become underscores and everything is prefixed "freehgc_"
///     ("serve.latency.exec_ns" -> "freehgc_serve_latency_exec_ns");
///   - counters get the conventional "_total" suffix;
///   - histograms expand to cumulative "_bucket{le=...}" lines (only
///     non-empty power-of-two bounds are listed, plus le="+Inf"), "_sum"
///     and "_count".
///
/// Snapshot consistency: a snapshot taken while other threads Observe()
/// is always *parseable and monotone* — cumulative bucket counts never
/// decrease within one snapshot, and the "+Inf" bucket equals "_count" —
/// because the count is derived from the same per-bucket loads the
/// bucket lines use (tests/telemetry_test.cc hammers this).

/// "serve.latency.exec_ns" -> "freehgc_serve_latency_exec_ns".
std::string PrometheusName(const std::string& name);

/// Point-in-time snapshot of `reg` in Prometheus text format.
std::string PrometheusText(const MetricsRegistry& reg);

/// Snapshot of the process-global registry.
std::string PrometheusText();

/// One parsed sample line: `name{labels} value`.
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parses exposition text (comment/HELP/TYPE lines are skipped;
/// malformed lines are dropped rather than erroring — the parser is a
/// monitoring convenience, not a validator).
std::vector<PromSample> ParsePrometheusText(const std::string& text);

/// First sample named `name` (exposition name, labels ignored). Returns
/// false when absent.
bool FindPromValue(const std::vector<PromSample>& samples,
                   const std::string& name, double* out);

/// Cumulative (upper_bound, cumulative_count) buckets of histogram
/// `base_name` (exposition name without the "_bucket" suffix), sorted by
/// bound with the "+Inf" bound last. A bucket with a NaN count, or with a
/// bound that is NaN or infinite but not "+Inf", is skipped.
std::vector<std::pair<double, double>> PromBuckets(
    const std::vector<PromSample>& samples, const std::string& base_name);

/// q-quantile (q in [0, 1]) from cumulative histogram buckets, with
/// linear interpolation inside the winning bucket — the same estimate
/// Histogram::ApproxQuantile computes server-side, reconstructed from a
/// scraped snapshot. Returns 0 for an empty histogram.
double QuantileFromCumulativeBuckets(
    const std::vector<std::pair<double, double>>& buckets, double q);

}  // namespace freehgc::obs

#endif  // FREEHGC_OBS_EXPOSITION_H_
