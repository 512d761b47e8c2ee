// Process-wide metrics registry: named counters, gauges, and log-scale
// histograms, cheap enough to leave on in release builds.
//
// Hot-path cost model (see src/obs/README.md for measurements):
//   - Counter::Add / Histogram::Observe is one relaxed fetch_add on a
//     cache-line-padded shard picked by a thread-local index, so concurrent
//     writers from the engine's worker threads do not bounce a shared line.
//   - Metric lookup by name takes a mutex, so call sites cache the
//     reference in a function-local static (the CARDIR_METRIC_* macros do
//     this); steady-state cost is the increment alone.
//   - Everything is plain std::atomic — no seq_cst fences, no TSan
//     suppressions needed.
//
// Reads (Value(), CaptureMetrics()) sum the shards with relaxed loads; they
// are linearisable only against a quiescent writer set, which is what the
// snapshot/diff workflow wants: snapshot, run the workload to completion,
// snapshot again, diff.

#ifndef CARDIR_SRC_OBS_METRICS_H_
#define CARDIR_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cardir {
namespace obs {

/// Number of per-metric shards. Power of two; threads hash onto shards with
/// a thread-local index, so up to this many writers proceed without sharing
/// a cache line.
inline constexpr size_t kMetricShards = 16;

/// Small dense per-thread shard index (round-robin over threads), also used
/// by the tracer as a stable human-readable thread id.
size_t ThisThreadIndex();

/// A monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[ThisThreadIndex() % kMetricShards].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over shards (relaxed; exact once writers are quiescent).
  uint64_t Value() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// A last-value metric (set or adjusted, not summed across threads).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  /// Adjusts by `delta` and returns the post-adjustment value, so callers
  /// tracking a paired high-water gauge can feed UpdateMax without a racy
  /// re-read.
  int64_t Add(int64_t delta) {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  /// Raises the gauge to `candidate` if it is below it (CAS max). Used for
  /// peak/high-water gauges updated from many threads.
  void UpdateMax(int64_t candidate) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (current < candidate &&
           !value_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A histogram with log-2 bucket boundaries: bucket k counts observations v
/// with 2^(k-1) < v <= 2^k (bucket 0 counts v <= 1, i.e. 0 and 1). 64
/// buckets cover the whole uint64 range, so microsecond latencies and item
/// counts both fit without configuration.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  /// Bucket index for `value` (shared with tests and exporters).
  static size_t BucketOf(uint64_t value) {
    size_t bucket = 0;
    while (value > (uint64_t{1} << bucket) && bucket < kBuckets - 1) ++bucket;
    return bucket;
  }

  /// Inclusive upper bound of bucket `k` (2^k).
  static uint64_t BucketUpperBound(size_t k) { return uint64_t{1} << k; }

  void Observe(uint64_t value) {
    Shard& shard = shards_[ThisThreadIndex() % kMetricShards];
    shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  uint64_t Sum() const;
  /// Summed bucket counts (size kBuckets).
  std::vector<uint64_t> Buckets() const;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Point-in-time histogram data inside a snapshot.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<uint64_t> buckets;  // kBuckets entries; empty means all-zero.
};

/// A consistent-enough copy of every registered metric. Ordered maps so
/// exporters emit a deterministic order.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Counter value by name (0 when absent) — convenience for benches/tests.
  uint64_t counter(const std::string& name) const;

  /// Gauge value by name (0 when absent) — convenience for benches/tests.
  int64_t gauge(const std::string& name) const;

  /// The change from `earlier` to this snapshot: counters and histogram
  /// counts subtract; gauges keep this snapshot's value (a gauge is a
  /// level, not a flow). Metrics born after `earlier` diff against zero.
  MetricsSnapshot Diff(const MetricsSnapshot& earlier) const;
};

/// The process-wide registry. Get-or-create by name is mutex-guarded (cold
/// path); returned references live for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Capture() const;

  /// Best-effort async-signal-safe dump of counter and gauge values into
  /// `fd` as "metric counter <name> <value>" lines. Takes the registry
  /// mutex with try_lock only — if another thread holds it at crash time
  /// the metrics section is skipped rather than deadlocking the signal
  /// handler. Traversing the maps neither allocates nor formats through
  /// stdio (raw_format helpers only). Histograms are summarised as
  /// count/sum. Returns true when the lock was obtained.
  bool TryDumpRaw(int fd) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  // Pointer maps: node stability lets hot paths hold references while the
  // registry keeps growing.
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
};

/// Shorthand for MetricsRegistry::Global().Capture().
MetricsSnapshot CaptureMetrics();

}  // namespace obs

// Instrumentation macros. Each call site resolves its metric once (static
// local). `name` must be a string literal (or otherwise immortal) — the
// registry keys on it once.
#define CARDIR_METRIC_COUNT(name, delta)                              \
  do {                                                                \
    static ::cardir::obs::Counter& cardir_metric_counter__ =          \
        ::cardir::obs::MetricsRegistry::Global().GetCounter(name);    \
    cardir_metric_counter__.Add(static_cast<uint64_t>(delta));        \
  } while (false)

#define CARDIR_METRIC_GAUGE_SET(name, value)                          \
  do {                                                                \
    static ::cardir::obs::Gauge& cardir_metric_gauge__ =              \
        ::cardir::obs::MetricsRegistry::Global().GetGauge(name);      \
    cardir_metric_gauge__.Set(static_cast<int64_t>(value));           \
  } while (false)

#define CARDIR_METRIC_OBSERVE(name, value)                            \
  do {                                                                \
    static ::cardir::obs::Histogram& cardir_metric_histogram__ =      \
        ::cardir::obs::MetricsRegistry::Global().GetHistogram(name);  \
    cardir_metric_histogram__.Observe(static_cast<uint64_t>(value));  \
  } while (false)

}  // namespace cardir

#endif  // CARDIR_SRC_OBS_METRICS_H_
