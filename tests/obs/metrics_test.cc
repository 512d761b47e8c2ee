#include "obs/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/export.h"

namespace cardir {
namespace obs {
namespace {

// Registry metrics are process-global, so each test uses its own metric
// names; tests assert on deltas (or fresh names), never absolute values.

TEST(CounterTest, SingleThreadedAddsAccumulate) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  // The headline guarantee: N threads x M increments lose nothing, even
  // though threads share shards. Run under the tsan preset this also
  // proves the sharded fetch_add path is race-free.
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, ConcurrentRegistryLookupsReturnTheSameCounter) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      // Lookup inside the loop: get-or-create must be idempotent and
      // thread-safe, returning one shared instance.
      for (uint64_t i = 0; i < kPerThread; ++i) {
        MetricsRegistry::Global()
            .GetCounter("test.metrics.concurrent_lookup")
            .Increment();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("test.metrics.concurrent_lookup")
                .Value(),
            kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdjust) {
  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.Value(), -3);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket k holds 2^(k-1) < v <= 2^k; bucket 0 holds 0 and 1.
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 0u);
  EXPECT_EQ(Histogram::BucketOf(2), 1u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 2u);
  EXPECT_EQ(Histogram::BucketOf(5), 3u);
  EXPECT_EQ(Histogram::BucketOf(1024), 10u);
  EXPECT_EQ(Histogram::BucketOf(1025), 11u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);
  // Every value lands in the bucket whose inclusive upper bound covers it.
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 17ull, 255ull, 256ull, 257ull}) {
    const size_t k = Histogram::BucketOf(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(k)) << "value " << v;
    if (k > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(k - 1)) << "value " << v;
    }
  }
}

TEST(HistogramTest, ObserveAccumulatesCountSumBuckets) {
  Histogram histogram;
  histogram.Observe(1);
  histogram.Observe(3);
  histogram.Observe(3);
  histogram.Observe(100);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_EQ(histogram.Sum(), 107u);
  const std::vector<uint64_t> buckets = histogram.Buckets();
  ASSERT_EQ(buckets.size(), Histogram::kBuckets);
  EXPECT_EQ(buckets[Histogram::BucketOf(1)], 1u);
  EXPECT_EQ(buckets[Histogram::BucketOf(3)], 2u);
  EXPECT_EQ(buckets[Histogram::BucketOf(100)], 1u);
}

TEST(HistogramTest, ConcurrentObservationsSumExactly) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Observe(static_cast<uint64_t>(t) + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.Count(), kThreads * kPerThread);
  // sum of (t+1) over t in [0,8) times kPerThread = 36 * kPerThread.
  EXPECT_EQ(histogram.Sum(), 36 * kPerThread);
}

TEST(SnapshotTest, DiffSubtractsCountersAndKeepsGaugeLevels) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.snapshot.ticks").Add(5);
  registry.GetGauge("test.snapshot.level").Set(3);
  registry.GetHistogram("test.snapshot.lat").Observe(10);
  const MetricsSnapshot before = CaptureMetrics();

  registry.GetCounter("test.snapshot.ticks").Add(7);
  registry.GetGauge("test.snapshot.level").Set(9);
  registry.GetHistogram("test.snapshot.lat").Observe(10);
  registry.GetHistogram("test.snapshot.lat").Observe(2000);
  const MetricsSnapshot after = CaptureMetrics();

  const MetricsSnapshot delta = after.Diff(before);
  EXPECT_EQ(delta.counter("test.snapshot.ticks"), 7u);
  // Gauges are levels, not flows: Diff keeps the later value.
  EXPECT_EQ(delta.gauges.at("test.snapshot.level"), 9);
  const HistogramData& lat = delta.histograms.at("test.snapshot.lat");
  EXPECT_EQ(lat.count, 2u);
  EXPECT_EQ(lat.sum, 2010u);
  ASSERT_EQ(lat.buckets.size(), Histogram::kBuckets);
  EXPECT_EQ(lat.buckets[Histogram::BucketOf(10)], 1u);
  EXPECT_EQ(lat.buckets[Histogram::BucketOf(2000)], 1u);
}

TEST(SnapshotTest, CounterAccessorReturnsZeroForUnknownName) {
  const MetricsSnapshot snapshot = CaptureMetrics();
  EXPECT_EQ(snapshot.counter("test.snapshot.never_registered"), 0u);
}

TEST(SnapshotTest, MetricBornAfterEarlierSnapshotDiffsAgainstZero) {
  const MetricsSnapshot before = CaptureMetrics();
  MetricsRegistry::Global().GetCounter("test.snapshot.newborn").Add(4);
  const MetricsSnapshot delta = CaptureMetrics().Diff(before);
  EXPECT_EQ(delta.counter("test.snapshot.newborn"), 4u);
}

// --- exporters (hand-built snapshots, so the goldens are exact) ---

MetricsSnapshot ExampleSnapshot() {
  MetricsSnapshot snapshot;
  snapshot.counters["engine.pairs.total"] = 90;
  snapshot.counters["engine.runs"] = 1;
  snapshot.counters["zero.counter"] = 0;
  snapshot.gauges["engine.pool.threads"] = 4;
  HistogramData lat;
  lat.count = 3;
  lat.sum = 7;
  lat.buckets.assign(Histogram::kBuckets, 0);
  lat.buckets[Histogram::BucketOf(1)] = 2;  // bucket 0, le=1
  lat.buckets[Histogram::BucketOf(5)] = 1;  // bucket 3, le=8
  snapshot.histograms["engine.run_us"] = lat;
  return snapshot;
}

TEST(ExportTest, TableSkipsZeroRowsByDefault) {
  const std::string table = FormatMetricsTable(ExampleSnapshot());
  EXPECT_NE(table.find("engine.pairs.total"), std::string::npos);
  EXPECT_NE(table.find("90"), std::string::npos);
  EXPECT_NE(table.find("engine.pool.threads"), std::string::npos);
  EXPECT_NE(table.find("engine.run_us"), std::string::npos);
  EXPECT_EQ(table.find("zero.counter"), std::string::npos);

  MetricsTableOptions keep_zero;
  keep_zero.skip_zero = false;
  EXPECT_NE(FormatMetricsTable(ExampleSnapshot(), keep_zero)
                .find("zero.counter"),
            std::string::npos);
}

TEST(ExportTest, JsonGolden) {
  const std::string json = FormatMetricsJson(ExampleSnapshot());
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"engine.pairs.total\": 90,\n"
      "    \"engine.runs\": 1,\n"
      "    \"zero.counter\": 0\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"engine.pool.threads\": 4\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"engine.run_us\": {\"count\": 3, \"sum\": 7, "
      "\"p50\": 0.75, \"p90\": 6.8, \"p99\": 7.88, "
      "\"buckets\": {\"<=1\": 2, \"<=8\": 1}}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(ExportTest, QuantileEstimateInterpolatesWithinBuckets) {
  HistogramData data;
  data.count = 3;
  data.sum = 7;
  data.buckets.assign(Histogram::kBuckets, 0);
  data.buckets[Histogram::BucketOf(1)] = 2;  // bucket 0: [0, 1]
  data.buckets[Histogram::BucketOf(5)] = 1;  // bucket 3: (4, 8]
  // q*count = 1.5 of 2 observations in bucket 0 -> 0.75 of the way to 1.
  EXPECT_DOUBLE_EQ(HistogramQuantileEstimate(data, 0.5), 0.75);
  // q*count = 2.7: 0.7 into the single observation of bucket (4, 8].
  EXPECT_DOUBLE_EQ(HistogramQuantileEstimate(data, 0.9), 6.8);
  EXPECT_DOUBLE_EQ(HistogramQuantileEstimate(data, 0.99), 7.88);
  // Extremes clamp to the bucket bounds; empty histograms estimate 0.
  EXPECT_DOUBLE_EQ(HistogramQuantileEstimate(data, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(HistogramQuantileEstimate(HistogramData{}, 0.5), 0.0);
}

TEST(ExportTest, TableShowsQuantileColumns) {
  const std::string table = FormatMetricsTable(ExampleSnapshot());
  EXPECT_NE(table.find("p50~0.75"), std::string::npos) << table;
  EXPECT_NE(table.find("p90~6.8"), std::string::npos) << table;
  EXPECT_NE(table.find("p99~7.88"), std::string::npos) << table;
}

TEST(ExportTest, PrometheusGolden) {
  const std::string prom = FormatMetricsPrometheus(ExampleSnapshot());
  // Names are sanitised and prefixed; every series carries # HELP + # TYPE.
  EXPECT_NE(prom.find("# HELP cardir_engine_pairs_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cardir_engine_pairs_total counter\n"
                      "cardir_engine_pairs_total 90\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# HELP cardir_engine_pool_threads"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cardir_engine_pool_threads gauge\n"
                      "cardir_engine_pool_threads 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# HELP cardir_engine_run_us"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cardir_engine_run_us histogram\n"),
            std::string::npos);
  EXPECT_NE(prom.find("cardir_engine_run_us_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  // Dense cumulative series: the empty buckets between le=1 and le=8 are
  // emitted too (gap-free monotone series for histogram_quantile), and the
  // le="8" bucket includes the two observations <= 1.
  EXPECT_NE(prom.find("cardir_engine_run_us_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("cardir_engine_run_us_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("cardir_engine_run_us_bucket{le=\"8\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("cardir_engine_run_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  // ...but not past the highest non-empty bucket.
  EXPECT_EQ(prom.find("cardir_engine_run_us_bucket{le=\"16\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("cardir_engine_run_us_sum 7\n"), std::string::npos);
  EXPECT_NE(prom.find("cardir_engine_run_us_count 3\n"), std::string::npos);
}

TEST(MacroTest, CountMacroIncrementsWhenEnabled) {
  const MetricsSnapshot before = CaptureMetrics();
  CARDIR_METRIC_COUNT("test.macro.count", 3);
  CARDIR_METRIC_COUNT("test.macro.count", 4);
  const MetricsSnapshot delta = CaptureMetrics().Diff(before);
  EXPECT_EQ(delta.counter("test.macro.count"), 7u);
}

}  // namespace
}  // namespace obs
}  // namespace cardir
