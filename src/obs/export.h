// Exporters for metrics snapshots: a human-readable table for the CLI, a
// JSON object for bench ledgers and machine consumption, and the
// Prometheus text exposition format for scraping.
//
// All three take a MetricsSnapshot (usually a Diff over a workload) so the
// caller controls the observation window; none of them touch the live
// registry.

#ifndef CARDIR_SRC_OBS_EXPORT_H_
#define CARDIR_SRC_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace cardir {
namespace obs {

/// Estimated q-quantile (q in [0,1]) of a log2-bucket histogram: finds the
/// bucket holding the q*count-th observation and interpolates linearly
/// between the bucket's bounds (2^(k-1), 2^k]. Within a factor of 2 by
/// construction — good enough to read latency tables without external
/// tooling. Returns 0 for an empty histogram.
double HistogramQuantileEstimate(const HistogramData& data, double q);

/// Aligned two-column table:
///   counter   engine.pairs.total            3998000
///   gauge     engine.pool.threads                 8
///   histogram xml.parse_us  count=12 sum=3456 p50~3 p90~24 p99~412 max<=512
/// The p50/p90/p99 columns are HistogramQuantileEstimate values.
struct MetricsTableOptions {
  /// Omit metrics whose value (counter/histogram count) is zero.
  bool skip_zero = true;
};
std::string FormatMetricsTable(const MetricsSnapshot& snapshot,
                               const MetricsTableOptions& options = {});

/// One JSON object: {"counters": {...}, "gauges": {...}, "histograms":
/// {"name": {"count": c, "sum": s, "p50": x, "p90": y, "p99": z,
/// "buckets": {"<=1": n, ...}}}}. Histogram buckets with zero count are
/// omitted; quantiles are HistogramQuantileEstimate values; key order is
/// the snapshot's (lexicographic), so output is deterministic.
std::string FormatMetricsJson(const MetricsSnapshot& snapshot);

/// Prometheus text exposition format. Metric names are sanitised ('.' and
/// '-' become '_', prefixed "cardir_"); every series carries # HELP and
/// # TYPE lines; histograms emit a dense cumulative _bucket series with le
/// labels (every bucket up to the highest non-empty one, so downstream
/// histogram_quantile sees a gap-free monotone series), plus _count and
/// _sum.
std::string FormatMetricsPrometheus(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace cardir

#endif  // CARDIR_SRC_OBS_EXPORT_H_
