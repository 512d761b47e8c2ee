// Experiment E7/E13/E22 (DESIGN.md): runtime of Compute-CDR% (Theorem 2:
// O(k_a + k_b) via the trapezoid expressions of Def. 4, no clipping)
// against the clipping-based area computation, plus the E22 ablation of
// the SoA/SIMD accumulation path against the scalar per-piece reference.
//
// Two entry modes:
//  * default           — google-benchmark suite (BM_* below);
//  * --ledger out.json — plain wall-clock sampler that times the SoA and
//    scalar paths over fixed edge counts and writes the BENCH_percent.json
//    ledger (same row schema as BENCH_engine.json, so tools/perf_smoke.py
//    gates it unchanged: workload "percent", regions = edge count, mode
//    soa|scalar). Iteration counts are a pure function of the edge count,
//    so fresh and committed ledgers always time identical work.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "clipping/baseline_cdr.h"
#include "core/compute_cdr_percent.h"

namespace cardir {
namespace {

// Times the batch-caller pattern (the sweep join's SweepScratch): the SoA
// lane buffers are reused across calls, so their capacity is paid once,
// not per pair.
void BM_ComputeCdrPercent(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  const Region primary = bench::BenchPrimary(/*seed=*/1, edges);
  const Region reference = bench::BenchReference();
  const Box mbb = reference.BoundingBox();
  CdrScratch scratch;
  for (auto _ : state) {
    CdrPercentComputation result =
        ComputeCdrPercentUnchecked(primary, mbb, &scratch);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(primary.TotalEdges()));
  state.counters["edges"] = static_cast<double>(primary.TotalEdges());
}
BENCHMARK(BM_ComputeCdrPercent)->RangeMultiplier(4)->Range(16, 1 << 14);

// E22 ablation row: the pre-SoA per-piece loop (AoS split buffer, scalar
// classification cascade, one strictly sequential running sum per tile).
void BM_ComputeCdrPercentScalar(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  const Region primary = bench::BenchPrimary(/*seed=*/1, edges);
  const Region reference = bench::BenchReference();
  for (auto _ : state) {
    CdrPercentComputation result = ComputeCdrPercentScalar(primary, reference);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(primary.TotalEdges()));
  state.counters["edges"] = static_cast<double>(primary.TotalEdges());
}
BENCHMARK(BM_ComputeCdrPercentScalar)->RangeMultiplier(4)->Range(16, 1 << 14);

void BM_BaselineClippingPercent(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  const Region primary = bench::BenchPrimary(/*seed=*/1, edges);
  const Region reference = bench::BenchReference();
  for (auto _ : state) {
    CdrPercentComputation result =
        BaselineCdrPercentUnchecked(primary, reference);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(primary.TotalEdges()));
  state.counters["edges"] = static_cast<double>(primary.TotalEdges());
}
BENCHMARK(BM_BaselineClippingPercent)->RangeMultiplier(4)->Range(16, 1 << 14);

// Both sub-steps of the quantitative pipeline in isolation: how much of
// Compute-CDR%'s cost is the shared edge division vs the area accumulation.
void BM_QualitativeVsQuantitativeGap(benchmark::State& state) {
  const Region primary = bench::BenchPrimary(/*seed=*/3, 4096);
  const Region reference = bench::BenchReference();
  for (auto _ : state) {
    CdrPercentComputation quantitative =
        ComputeCdrPercentUnchecked(primary, reference);
    benchmark::DoNotOptimize(quantitative);
  }
}
BENCHMARK(BM_QualitativeVsQuantitativeGap);

// ---------------------------------------------------------------------------
// --ledger mode.

struct PercentRecord {
  int edges = 0;
  std::string mode;
  double ms = 0.0;
  size_t iterations = 0;
  double speedup_vs_scalar = 0.0;  // Only set on soa rows.
};

// Fixed per-edge-count iteration budget (~2M lanes per sample) so the
// "ms" column times identical work across invocations and hosts.
size_t IterationsFor(int edges) {
  const size_t budget = 2'000'000;
  return std::max<size_t>(4, budget / static_cast<size_t>(edges));
}

template <typename Fn>
double TimeMs(size_t iterations, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iterations; ++i) {
    CdrPercentComputation result = fn();
    benchmark::DoNotOptimize(result);
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

int RunLedger(const std::string& out_path, int repeat) {
  const Region reference = bench::BenchReference();
  const std::vector<int> edge_counts = {64, 512, 4096, 16384};
  std::vector<PercentRecord> records;

  for (int edges : edge_counts) {
    const Region primary = bench::BenchPrimary(/*seed=*/1, edges);
    const Box mbb = reference.BoundingBox();
    const size_t iterations = IterationsFor(edges);

    // The soa row times the batch-caller pattern (scratch reused across
    // calls, as the sweep join's SweepScratch does); the scalar row is the
    // pre-SoA per-piece loop it replaced.
    CdrScratch scratch;
    double soa_best = 0.0;
    double scalar_best = 0.0;
    for (int rep = 0; rep < repeat; ++rep) {
      const double soa_ms = TimeMs(iterations, [&] {
        return ComputeCdrPercentUnchecked(primary, mbb, &scratch);
      });
      const double scalar_ms = TimeMs(iterations, [&] {
        return ComputeCdrPercentScalar(primary, reference);
      });
      if (rep == 0 || soa_ms < soa_best) soa_best = soa_ms;
      if (rep == 0 || scalar_ms < scalar_best) scalar_best = scalar_ms;
    }

    PercentRecord soa;
    soa.edges = edges;
    soa.mode = "soa";
    soa.ms = soa_best;
    soa.iterations = iterations;
    soa.speedup_vs_scalar = scalar_best / soa_best;
    records.push_back(soa);

    PercentRecord scalar;
    scalar.edges = edges;
    scalar.mode = "scalar";
    scalar.ms = scalar_best;
    scalar.iterations = iterations;
    records.push_back(scalar);

    std::cout << "percent edges=" << edges << " iters=" << iterations
              << " soa=" << soa_best << "ms scalar=" << scalar_best
              << "ms speedup=" << soa.speedup_vs_scalar << "\n";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n  \"bench\": \"percent\",\n  \"unit\": \"ms\",\n  \"repeat\": "
      << repeat << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const PercentRecord& r = records[i];
    out << "    {\"workload\": \"percent\", \"regions\": " << r.edges
        << ", \"mode\": \"" << r.mode << "\", \"threads\": 1, \"ms\": "
        << r.ms << ", \"iterations\": " << r.iterations;
    if (r.mode == "soa") {
      out << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar;
    }
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace cardir

int main(int argc, char** argv) {
  std::string ledger_path;
  int repeat = 3;
  std::vector<char*> bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ledger" && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::max(1, std::stoi(argv[++i]));
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (!ledger_path.empty()) {
    return cardir::RunLedger(ledger_path, repeat);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
