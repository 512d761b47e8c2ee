// DeltaEngine correctness contract: after ANY mutation sequence, the
// maintained store's Digest() is bit-identical to the serial Compute-CDR
// loop over the same geometries. The oracle below drives 500+ randomized
// mutation scripts (mixed insert/move/delete over map-like, overlap-heavy
// and free-form generators) and holds the delta store against SerialDigest
// (engine/serial_oracle.h) after every single mutation — so a dirty-set
// gap, a stale patch, or a mis-ranked overlay cursor fails on the exact
// script step that introduced it (seeds are in the trace).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/delta_engine.h"
#include "engine/relation_store.h"
#include "engine/serial_oracle.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "properties/random_instances.h"
#include "util/random.h"
#include "workload/region_gen.h"

namespace cardir {
namespace {

std::vector<Region> SmallMapRegions(Rng* rng, int count) {
  const int grid = 1 + static_cast<int>(std::sqrt(static_cast<double>(count)));
  const double cell = 1000.0 / grid;
  std::vector<Region> regions;
  regions.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int cx = i % grid;
    const int cy = i / grid;
    RegionGenOptions options;
    options.num_polygons = 1;
    options.vertices_per_polygon = 8;
    options.bounds = Box(cx * cell + 0.05 * cell, cy * cell + 0.05 * cell,
                         (cx + 1) * cell - 0.05 * cell,
                         (cy + 1) * cell - 0.05 * cell);
    regions.push_back(RandomRegion(rng, options));
  }
  return regions;
}

std::vector<Region> SmallOverlapRegions(Rng* rng, int count) {
  std::vector<Region> regions;
  regions.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double size = rng->NextDouble(40.0, 160.0);
    const double x = rng->NextDouble(0.0, 400.0 - size);
    const double y = rng->NextDouble(0.0, 400.0 - size);
    RegionGenOptions options;
    options.num_polygons = 1;
    options.vertices_per_polygon = 10;
    options.bounds = Box(x, y, x + size, y + size);
    regions.push_back(RandomRegion(rng, options));
  }
  return regions;
}

// The accessor an engine reads dirty partners' geometry through: the
// test's own vector, kept current by the test around every mutation.
DeltaEngine::RegionAccessor Over(const std::vector<Region>& regions) {
  return [&regions](size_t j) -> const Region& { return regions[j]; };
}

Region RandomMutationRegion(Rng* rng) {
  switch (rng->NextBelow(3)) {
    case 0: {
      // Somewhere on the map canvas, likely overlapping a cluster.
      const double size = rng->NextDouble(20.0, 220.0);
      const double x = rng->NextDouble(0.0, 900.0);
      const double y = rng->NextDouble(0.0, 900.0);
      return Region(MakeRectangle(x, y, x + size, y + size));
    }
    case 1:
      return RandomTestRegion(rng);
    default: {
      // Multi-polygon region spanning a wide box — stresses the shortcut
      // kernel's per-polygon extents.
      const double x = rng->NextDouble(0.0, 700.0);
      const double y = rng->NextDouble(0.0, 700.0);
      Region region(MakeRectangle(x, y, x + 40.0, y + 30.0));
      region.AddPolygon(
          MakeRectangle(x + 90.0, y + 5.0, x + 160.0, y + 55.0));
      return region;
    }
  }
}

// The headline oracle: 500 scripts, digest checked after every mutation.
TEST(DeltaEngineProperty, MutationScriptsMatchFreshComputeOn500Scripts) {
  for (uint64_t seed = 0; seed < 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0xDE17A000u + seed);
    const int n = 3 + static_cast<int>(rng.NextBelow(14));
    std::vector<Region> mirror;
    switch (seed % 3) {
      case 0:
        mirror = SmallMapRegions(&rng, n);
        break;
      case 1:
        mirror = SmallOverlapRegions(&rng, n);
        break;
      default:
        for (int i = 0; i < n; ++i) mirror.push_back(RandomTestRegion(&rng));
        break;
    }

    auto engine = DeltaEngine::Build(RegionPointers(mirror));
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_EQ(engine.value().Digest(), SerialDigest(mirror));

    const int mutations = 3 + static_cast<int>(rng.NextBelow(6));
    for (int m = 0; m < mutations; ++m) {
      SCOPED_TRACE("mutation " + std::to_string(m));
      const uint64_t kind = rng.NextBelow(4);
      Result<DeltaResult> applied = Status::Internal("unset");
      if (kind == 0 || mirror.size() < 2) {
        mirror.push_back(RandomMutationRegion(&rng));
        applied = engine.value().Insert(mirror.back(), Over(mirror));
      } else if (kind == 3) {
        const size_t id = rng.NextBelow(mirror.size());
        mirror.erase(mirror.begin() + static_cast<ptrdiff_t>(id));
        applied = engine.value().Remove(id);
      } else if (kind == 1) {
        // Wholesale geometry replacement.
        const size_t id = rng.NextBelow(mirror.size());
        mirror[id] = RandomMutationRegion(&rng);
        applied = engine.value().Move(id, mirror[id], Over(mirror));
      } else {
        // Grow-in-place: the Configuration::AddPolygonToRegion pattern.
        const size_t id = rng.NextBelow(mirror.size());
        const double x = rng.NextDouble(0.0, 900.0);
        const double y = rng.NextDouble(0.0, 900.0);
        mirror[id].AddPolygon(MakeRectangle(x, y,
                                            x + rng.NextDouble(5.0, 80.0),
                                            y + rng.NextDouble(5.0, 80.0)));
        applied = engine.value().Move(id, mirror[id], Over(mirror));
      }
      ASSERT_TRUE(applied.ok()) << applied.status();
      ASSERT_EQ(engine.value().regions(), mirror.size());
      ASSERT_EQ(engine.value().Digest(), SerialDigest(mirror));
      // Touched lists both directions of every dirty pair, and the two
      // counters partition exactly that set.
      EXPECT_EQ(applied.value().touched.size() % 2, 0u);
      EXPECT_EQ(applied.value().touched.size(),
                applied.value().pairs_reresolved +
                    applied.value().pairs_implicit)
          << "reresolved + implicit must cover the dirty set";
    }
  }
}

// Dirty-set completeness, checked structurally rather than via the digest:
// after a move, every pair that is explicit *now* and involves the moved
// region must appear in `touched` — if the candidate gather missed one,
// its overlay entry would be stale.
TEST(DeltaEngineTest, TouchedCoversExplicitPairsOfMovedRegion) {
  Rng rng(0x70C4Edu);
  std::vector<Region> regions = SmallOverlapRegions(&rng, 60);
  auto engine = DeltaEngine::Build(RegionPointers(regions));
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (int m = 0; m < 20; ++m) {
    const size_t id = rng.NextBelow(regions.size());
    regions[id] = RandomMutationRegion(&rng);
    const auto applied = engine.value().Move(id, regions[id], Over(regions));
    ASSERT_TRUE(applied.ok()) << applied.status();
    const RelationStore& store = engine.value().store();
    std::vector<std::pair<uint32_t, uint32_t>> touched =
        applied.value().touched;
    std::sort(touched.begin(), touched.end());
    for (size_t j = 0; j < regions.size(); ++j) {
      if (j == id) continue;
      for (const auto& pair :
           {std::make_pair(id, j), std::make_pair(j, id)}) {
        if (!store.IsExplicit(pair.first, pair.second)) continue;
        const auto key = std::make_pair(static_cast<uint32_t>(pair.first),
                                        static_cast<uint32_t>(pair.second));
        ASSERT_TRUE(std::binary_search(touched.begin(), touched.end(), key))
            << "explicit pair (" << pair.first << ", " << pair.second
            << ") missing from touched after move " << m;
      }
    }
  }
}

// A long churn run on one engine: enough mutations to cycle the interval
// indexes through several amortized rebuilds and the store through row
// compactions, ending in a full pair-for-pair comparison (not just the
// digest) against a fresh batch store.
TEST(DeltaEngineTest, LongChurnEndsPairIdenticalToFreshStore) {
  Rng rng(0xC4C4u);
  std::vector<Region> mirror = SmallOverlapRegions(&rng, 90);
  auto engine = DeltaEngine::Build(RegionPointers(mirror));
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (int m = 0; m < 300; ++m) {
    const uint64_t kind = rng.NextBelow(4);
    if (kind == 0 || mirror.size() < 30) {
      mirror.push_back(RandomMutationRegion(&rng));
      ASSERT_TRUE(engine.value().Insert(mirror.back(), Over(mirror)).ok());
    } else if (kind == 3) {
      const size_t id = rng.NextBelow(mirror.size());
      mirror.erase(mirror.begin() + static_cast<ptrdiff_t>(id));
      ASSERT_TRUE(engine.value().Remove(id).ok());
    } else {
      const size_t id = rng.NextBelow(mirror.size());
      mirror[id] = RandomMutationRegion(&rng);
      ASSERT_TRUE(engine.value().Move(id, mirror[id], Over(mirror)).ok());
    }
  }

  auto fresh = ComputeRelationStore(mirror);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const RelationStore& maintained = engine.value().store();
  ASSERT_EQ(maintained.regions(), fresh->regions());
  ASSERT_EQ(maintained.Digest(), fresh->Digest());
  fresh->ForEach([&maintained](size_t i, size_t j,
                               const CardinalRelation& relation) {
    ASSERT_EQ(maintained.Relation(i, j).mask(), relation.mask())
        << "pair (" << i << ", " << j << ")";
  });
}

// Build runs the sweep ComputeRelationStore runs and keeps its plan: the
// two stores are equal pair for pair at every thread count, and the engine
// is live from the start (a following Move tracks the serial loop).
TEST(DeltaEngineTest, BuildStoreEqualsComputeRelationStore) {
  Rng rng(0xAD09u);
  const std::vector<Region> inputs[] = {SmallMapRegions(&rng, 40),
                                        SmallOverlapRegions(&rng, 40)};
  for (const std::vector<Region>& regions : inputs) {
    const uint64_t serial = SerialDigest(regions);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EngineOptions options;
      options.threads = threads;
      auto fresh = ComputeRelationStore(regions, options);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      auto engine = DeltaEngine::Build(RegionPointers(regions), options);
      ASSERT_TRUE(engine.ok()) << engine.status();
      const RelationStore& built = engine->store();
      ASSERT_EQ(built.regions(), fresh->regions());
      EXPECT_EQ(built.overlay_pairs(), fresh->overlay_pairs());
      EXPECT_EQ(built.Digest(), fresh->Digest());
      EXPECT_EQ(engine->Digest(), serial);
      fresh->ForEach([&built](size_t i, size_t j,
                              const CardinalRelation& relation) {
        ASSERT_EQ(built.Relation(i, j).mask(), relation.mask())
            << "pair (" << i << ", " << j << ")";
      });

      std::vector<Region> moved = regions;
      moved[7] = RandomMutationRegion(&rng);
      ASSERT_TRUE(engine->Move(7, moved[7], Over(moved)).ok());
      EXPECT_EQ(engine->Digest(), SerialDigest(moved));
    }
  }
}

TEST(DeltaEngineTest, ErrorsLeaveEngineUntouched) {
  Rng rng(0xE88u);
  std::vector<Region> regions = SmallMapRegions(&rng, 10);
  auto engine = DeltaEngine::Build(RegionPointers(regions));
  ASSERT_TRUE(engine.ok()) << engine.status();
  const uint64_t digest = engine.value().Digest();

  EXPECT_EQ(engine.value()
                .Move(99, Region(MakeRectangle(0, 0, 1, 1)), Over(regions))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value().Remove(99).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value().Insert(Region(), Over(regions)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value().Move(3, Region(), Over(regions)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value().regions(), regions.size());
  EXPECT_EQ(engine.value().Digest(), digest);
}

// Grows `engine`, which holds `mirror`, by 12 regions and drains it
// again, digest-checked after every step.
void GrowThenDrain(DeltaEngine* engine, std::vector<Region> mirror) {
  EXPECT_EQ(engine->regions(), mirror.size());
  Rng rng(0x60Fu);
  for (int i = 0; i < 12; ++i) {
    mirror.push_back(RandomMutationRegion(&rng));
    const auto applied = engine->Insert(mirror.back(), Over(mirror));
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_EQ(engine->Digest(), SerialDigest(mirror));
  }
  while (!mirror.empty()) {
    const size_t id = rng.NextBelow(mirror.size());
    mirror.erase(mirror.begin() + static_cast<ptrdiff_t>(id));
    ASSERT_TRUE(engine->Remove(id).ok());
    ASSERT_EQ(engine->Digest(), SerialDigest(mirror));
  }
  EXPECT_EQ(engine->regions(), 0u);
}

// Below two regions the sweep has no pairs to resolve, but Build must
// still leave the plan the inserts extend.
TEST(DeltaEngineTest, GrowFromEmptyEngine) {
  auto built = DeltaEngine::Build({});
  ASSERT_TRUE(built.ok()) << built.status();
  {
    SCOPED_TRACE("DeltaEngine::Build({})");
    GrowThenDrain(&built.value(), {});
  }
  const std::vector<Region> one = {Region(MakeRectangle(100, 100, 180, 150))};
  auto built_one = DeltaEngine::Build(RegionPointers(one));
  ASSERT_TRUE(built_one.ok()) << built_one.status();
  {
    SCOPED_TRACE("DeltaEngine::Build(one region)");
    GrowThenDrain(&built_one.value(), one);
  }
  DeltaEngine engine;
  {
    SCOPED_TRACE("DeltaEngine{}");
    GrowThenDrain(&engine, {});
  }
}

#ifdef CARDIR_OBS_ENABLED
// The delta_engine arena (indexes + polygon extents + scratch) must
// balance to zero when engines die, and follow the engine across moves
// and copies like the store's own arena does.
TEST(DeltaEngineMemstats, AuxArenaBalancesAcrossCopyMoveAndDestroy) {
  obs::MemArena& arena = obs::MemArena::Get("delta_engine");
  const int64_t live_before = arena.LiveBytes();
  Rng rng(0x3E3Au);
  std::vector<Region> regions = SmallOverlapRegions(&rng, 30);
  {
    auto built = DeltaEngine::Build(RegionPointers(regions));
    ASSERT_TRUE(built.ok());
    DeltaEngine& engine = built.value();
    const int64_t live_single = arena.LiveBytes();
    ASSERT_GT(live_single, live_before);

    DeltaEngine copy(engine);  // Copy charges its own footprint...
    ASSERT_GT(arena.LiveBytes(), live_single);
    const int64_t live_with_copy = arena.LiveBytes();

    DeltaEngine moved(std::move(copy));  // ...a move transfers it.
    EXPECT_EQ(arena.LiveBytes(), live_with_copy);
    regions[3] = RandomMutationRegion(&rng);
    ASSERT_TRUE(moved.Move(3, regions[3], Over(regions)).ok());
  }
  EXPECT_EQ(arena.LiveBytes(), live_before);
}

// Index health through the metrics registry: delta.index.pending is the
// larger axis's dead + overflow count, delta.index.rebuild_threshold the
// level it must exceed, and delta.index.rebuilds counts the deferred
// re-sorts (one per axis) but not the initial build.
TEST(DeltaEngineObs, IndexRebuildCounterAndPendingGauge) {
  // 200 disjoint 30x30 squares on a 20-column grid; threshold
  // max(64, 200/8) = 64.
  const auto square = [](size_t i, double shift) {
    const double x = static_cast<double>(i % 20) * 50.0 + shift;
    const double y = static_cast<double>(i / 20) * 50.0 + shift;
    return Region(MakeRectangle(x, y, x + 30.0, y + 30.0));
  };
  std::vector<Region> regions;
  for (size_t i = 0; i < 200; ++i) regions.push_back(square(i, 0.0));
  const obs::MetricsSnapshot before = obs::CaptureMetrics();
  auto built = DeltaEngine::Build(RegionPointers(regions));
  ASSERT_TRUE(built.ok()) << built.status();
  DeltaEngine& engine = built.value();
  EXPECT_EQ(obs::CaptureMetrics().Diff(before).counter("delta.index.rebuilds"),
            0u);

  // A region's first move tombstones its sorted entry and parks the new
  // interval in overflow: +2 per axis, so the 33rd move crosses 64.
  for (size_t m = 0; m < 32; ++m) {
    regions[m] = square(m, 5.0);
    ASSERT_TRUE(engine.Move(m, regions[m], Over(regions)).ok());
    const obs::MetricsSnapshot now = obs::CaptureMetrics();
    EXPECT_EQ(now.gauge("delta.index.pending"),
              static_cast<int64_t>(2 * m + 2));
    EXPECT_EQ(now.gauge("delta.index.rebuild_threshold"), 64);
    EXPECT_EQ(now.Diff(before).counter("delta.index.rebuilds"), 0u);
  }
  regions[32] = square(32, 5.0);
  ASSERT_TRUE(engine.Move(32, regions[32], Over(regions)).ok());
  obs::MetricsSnapshot now = obs::CaptureMetrics();
  EXPECT_EQ(now.Diff(before).counter("delta.index.rebuilds"), 2u);
  EXPECT_EQ(now.gauge("delta.index.pending"), 0);

  // A remove leaves one tombstone per axis and no re-sort.
  ASSERT_TRUE(engine.Remove(100).ok());
  now = obs::CaptureMetrics();
  EXPECT_EQ(now.gauge("delta.index.pending"), 1);
  EXPECT_EQ(now.Diff(before).counter("delta.index.rebuilds"), 2u);
}
#endif  // CARDIR_OBS_ENABLED

}  // namespace
}  // namespace cardir
