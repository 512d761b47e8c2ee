// Experiment E18 (DESIGN.md): directional queries ("all regions a with
// a R b") answered by DirectionalIndex::FindMatching, versus a nested loop
// that runs Compute-CDR on every candidate. FindMatching decides a pair from
// the two bounding boxes when they allow it and refines the rest (kCross
// pairs) with the sweep's resolution kernel: the one-axis shortcut, or
// Compute-CDR when both axes cross. The "refined" counter is the number of
// kCross pairs per query, read from the index.query.refined metric.

#include <benchmark/benchmark.h>

#include "core/compute_cdr.h"
#include "index/directional_query.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "workload/scenario_gen.h"

namespace cardir {
namespace {

Configuration MakeConfig(int num_regions) {
  Rng rng(33);
  ScenarioOptions options;
  options.num_regions = num_regions;
  options.compute_relations = false;
  return *GenerateMapConfiguration(&rng, options);
}

void BM_DirectionalQueryIndexed(benchmark::State& state) {
  const Configuration config = MakeConfig(static_cast<int>(state.range(0)));
  const std::string reference = config.regions()[config.regions().size() / 2].id;
  const DisjunctiveRelation relation(*CardinalRelation::Parse("NE"));
  const uint64_t refined_before = obs::CaptureMetrics().counter("index.query.refined");
  for (auto _ : state) {
    const DirectionalIndex index = std::move(DirectionalIndex::Build(config)).value();
    auto result = index.FindMatching(reference, relation);
    benchmark::DoNotOptimize(result);
  }
  const uint64_t refined =
      obs::CaptureMetrics().counter("index.query.refined") - refined_before;
  state.counters["regions"] = static_cast<double>(config.regions().size());
  state.counters["refined"] =
      static_cast<double>(refined) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_DirectionalQueryIndexed)->RangeMultiplier(4)->Range(16, 4096);

void BM_DirectionalQueryBruteForce(benchmark::State& state) {
  const Configuration config = MakeConfig(static_cast<int>(state.range(0)));
  const std::string reference_id = config.regions()[config.regions().size() / 2].id;
  const Region& reference = config.regions()[config.regions().size() / 2].geometry;
  const CardinalRelation relation = *CardinalRelation::Parse("NE");
  for (auto _ : state) {
    std::vector<std::string> results;
    for (const AnnotatedRegion& region : config.regions()) {
      if (region.id == reference_id) continue;
      if (*ComputeCdr(region.geometry, reference) == relation) {
        results.push_back(region.id);
      }
    }
    benchmark::DoNotOptimize(results);
  }
  state.counters["regions"] = static_cast<double>(config.regions().size());
}
BENCHMARK(BM_DirectionalQueryBruteForce)->RangeMultiplier(4)->Range(16, 4096);

}  // namespace
}  // namespace cardir
