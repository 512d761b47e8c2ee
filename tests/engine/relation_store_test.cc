// RelationStore / sweep-join tests: the store must round-trip exactly to
// the serial Compute-CDR loop — every pair, every instance class, every
// thread count — and its footprint accounting must hold even on instances
// built to defeat the implicit-run compression.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/interval_kernel.h"
#include "engine/parallel_for.h"
#include "engine/relation_store.h"
#include "engine/serial_oracle.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "obs/memstats.h"
#include "properties/random_instances.h"
#include "util/random.h"
#include "workload/region_gen.h"

namespace cardir {
namespace {

// Map-like instance: one region per jittered grid cell (the bench's map
// workload in miniature) — almost every pair resolves implicitly.
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

// Overlap-heavy instance: random boxes on a shared canvas, so a large
// share of pairs cross reference lines and land in the overlay.
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

// Asserts that `store` agrees with the serial loop's row-major masks
// pair-for-pair, via all three read paths (ForEach cursor iteration,
// per-row iteration, and spot Lookup), and that the accounting between
// implicit and overlay pairs is consistent.
void ExpectMatchesSerial(const RelationStore& store,
                         const std::vector<uint16_t>& masks, size_t n) {
  ASSERT_EQ(store.regions(), n);
  ASSERT_EQ(store.pair_count(), masks.size());

  size_t flat = 0;
  uint64_t digest = 0;
  size_t explicit_seen = 0;
  store.ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
    // Canonical row-major order, same as the serial loop.
    const size_t expect_i = flat / (n - 1);
    const size_t rank = flat % (n - 1);
    const size_t expect_j = rank < expect_i ? rank : rank + 1;
    ASSERT_EQ(i, expect_i);
    ASSERT_EQ(j, expect_j);
    ASSERT_EQ(relation.mask(), masks[flat])
        << "pair (" << i << ", " << j << ")";
    if (store.IsExplicit(i, j)) ++explicit_seen;
    digest += MixPairDigest(i, j, masks[flat]);
    ++flat;
  });
  ASSERT_EQ(flat, masks.size());
  EXPECT_EQ(explicit_seen, store.overlay_pairs());
  EXPECT_EQ(store.Digest(), digest);

  // Random-access lookups against a handful of rows (Lookup is O(n) per
  // overlay pair, so exhaustive lookup would square the test).
  for (size_t i = 0; i < n; i += 1 + n / 7) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const size_t k = i * (n - 1) + (j < i ? j : j - 1);
      ASSERT_EQ(store.Relation(i, j).mask(), masks[k])
          << "lookup (" << i << ", " << j << ")";
    }
  }
}

TEST(RelationStoreProperty, RoundTripsToSerialLoopOn1000RandomInstances) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(0x5EED0000u + seed);
    const int n = 3 + static_cast<int>(rng.NextBelow(18));
    std::vector<Region> regions;
    switch (seed % 3) {
      case 0:
        regions = SmallMapRegions(&rng, n);
        break;
      case 1:
        regions = SmallOverlapRegions(&rng, n);
        break;
      default:
        for (int i = 0; i < n; ++i) {
          regions.push_back(RandomTestRegion(&rng));
        }
        break;
    }

    const std::vector<uint16_t> serial = SerialMasks(regions);
    EngineStats stats;
    auto store = ComputeRelationStore(regions, EngineOptions(), &stats);
    ASSERT_TRUE(store.ok()) << store.status() << " (seed " << seed << ")";

    ExpectMatchesSerial(*store, serial, regions.size());
    EXPECT_EQ(stats.total_pairs, store->pair_count());
    EXPECT_EQ(stats.computed_pairs, store->overlay_pairs());
    EXPECT_EQ(stats.prefiltered_pairs + stats.computed_pairs,
              stats.total_pairs);
  }
}

// Alternating tall/wide slats through a common centre: every (tall, wide)
// pair crosses on both axes, so ~half of all pairs land in the overlay —
// the worst case for the implicit-run compression. The store must stay
// correct and its footprint must still be exactly the accounted bound
// (overlay + profile + offsets), i.e. bounded by the dense matrix plus the
// per-region overhead even with compression fully defeated.
TEST(RelationStoreProperty, AdversarialAlternatingClassInstance) {
  std::vector<Region> regions;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    const double offset = 10.0 * i;
    if (i % 2 == 0) {
      // Tall, thin, x-offset.
      regions.push_back(
          Region(MakeRectangle(100.0 + offset, 0.0, 140.0 + offset, 1000.0)));
    } else {
      // Wide, flat, y-offset.
      regions.push_back(
          Region(MakeRectangle(0.0, 100.0 + offset, 1000.0, 140.0 + offset)));
    }
  }

  auto store = ComputeRelationStore(regions);
  ASSERT_TRUE(store.ok()) << store.status();

  // Compression is actually defeated: a large share of pairs is explicit.
  EXPECT_GE(store->overlay_pairs(), store->pair_count() / 4);

  ExpectMatchesSerial(*store, SerialMasks(regions), regions.size());

  // Memory gate: footprint is exactly the accounted structures — 2 bytes
  // per overlay pair, the SoA profile, and one offset per row — so even
  // with every pair explicit the store cannot exceed dense-matrix size
  // plus the fixed per-region overhead.
  const size_t accounted =
      store->overlay_pairs() * sizeof(uint16_t) +
      store->regions() * (4 * sizeof(double) + sizeof(uint8_t)) +
      (store->regions() + 1) * sizeof(uint64_t);
  EXPECT_LE(store->bytes(), 2 * accounted)
      << "capacity overhead exceeded the accounted footprint";
  EXPECT_LE(store->overlay_pairs() * sizeof(uint16_t),
            store->pair_count() * sizeof(uint16_t));
}

// On map workloads the overlay must be a small fraction of the dense
// matrix — at most 10% of its 2 bytes per ordered pair.
TEST(RelationStoreProperty, MapWorkloadStaysUnderTenPercentOfDense) {
  Rng rng(7u + 600u);
  const std::vector<Region> regions = SmallMapRegions(&rng, 600);
  auto store = ComputeRelationStore(regions);
  ASSERT_TRUE(store.ok()) << store.status();
  const size_t dense_bytes = store->pair_count() * sizeof(uint16_t);
  EXPECT_LE(store->bytes(), dense_bytes / 10)
      << "store " << store->bytes() << "B vs dense " << dense_bytes << "B";
}

// Sweep-strip concurrency: many small row strips across up to 8
// participants must produce a bit-identical store (the tsan tier runs this
// under the race detector; ParallelFor's automatic chunking cuts 200 rows
// into 3-row strips at 8 threads, maximising strip interleaving).
TEST(RelationStoreConcurrency, StripParallelismIsDeterministic) {
  Rng rng(0xCAFEu);
  std::vector<Region> regions = SmallOverlapRegions(&rng, 120);
  // A couple of map clusters too, so implicit runs and overlay mix.
  std::vector<Region> map = SmallMapRegions(&rng, 80);
  for (Region& region : map) regions.push_back(std::move(region));

  EngineOptions serial;
  serial.threads = 1;
  auto expected = ComputeRelationStore(regions, serial);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (int threads : {2, 3, 8}) {
    EngineOptions options;
    options.threads = threads;
    EngineStats stats;
    auto store = ComputeRelationStore(regions, options, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(stats.threads_used, threads);
    ASSERT_EQ(store->overlay_pairs(), expected->overlay_pairs());
    EXPECT_EQ(store->Digest(), expected->Digest()) << threads << " threads";
  }
}

TEST(RelationStoreEdgeCases, EmptyAndSingletonInputs) {
  std::vector<Region> none;
  auto empty = ComputeRelationStore(none);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->regions(), 0u);
  EXPECT_EQ(empty->pair_count(), 0u);
  empty->ForEach([](size_t, size_t, const CardinalRelation&) {
    FAIL() << "no pairs expected";
  });

  std::vector<Region> one;
  one.push_back(Region(MakeRectangle(0, 0, 10, 10)));
  auto single = ComputeRelationStore(one);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->regions(), 1u);
  EXPECT_EQ(single->pair_count(), 0u);
}

TEST(RelationStoreEdgeCases, InvalidRegionIsReported) {
  std::vector<Region> regions;
  regions.push_back(Region(MakeRectangle(0, 0, 10, 10)));
  regions.push_back(Region());  // Empty region: fails Validate().
  auto store = ComputeRelationStore(regions);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(store.status().message().find("#1"), std::string::npos);
}

TEST(RelationStoreEdgeCases, ThreadCountAboveTheLimitIsReported) {
  std::vector<Region> regions;
  regions.push_back(Region(MakeRectangle(0, 0, 10, 10)));
  regions.push_back(Region(MakeRectangle(20, 0, 30, 10)));
  auto store = ComputeRelationStore(
      regions, EngineOptions{.threads = kMaxEngineThreads + 1});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(store.status().message().find("256"), std::string::npos)
      << store.status();
  EngineStats stats;
  auto at_limit = ComputeRelationStore(
      regions, EngineOptions{.threads = kMaxEngineThreads}, &stats);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(stats.threads_used, kMaxEngineThreads);
}

// ---- Mutation-layer shadow model. The store's mutation API (SetRegionBox
// / AppendRegion / PatchRow / PatchPair / EraseRegion) accepts *any*
// profiled box, so — unlike the DeltaEngine, whose inputs are validated
// regions and therefore never degenerate — this harness drives degenerate
// boxes in and out of the overlay directly. The shadow is authoritative:
// it tracks the boxes and the explicit-pair masks, derives explicitness
// from the same class-code formula the store uses, and after every
// mutation the store must agree pair-for-pair via all read paths.

struct ShadowModel {
  struct ShadowBox {
    double min_x, min_y, max_x, max_y;
    uint8_t cross;
  };
  std::vector<ShadowBox> boxes;
  std::map<std::pair<size_t, size_t>, uint16_t> masks;  // Explicit pairs.

  void SetBox(size_t id, const Box& box) {
    boxes[id] = {box.min_x(), box.min_y(), box.max_x(), box.max_y(),
                 static_cast<uint8_t>(
                     box.IsEmpty() || box.IsDegenerate() ? 0x0f : 0x00)};
  }
  uint8_t Code(size_t i, size_t j) const {
    const uint8_t cx = static_cast<uint8_t>(
        ClassifyIntervalClass(boxes[i].min_x, boxes[i].max_x, boxes[j].min_x,
                              boxes[j].max_x));
    const uint8_t cy = static_cast<uint8_t>(
        ClassifyIntervalClass(boxes[i].min_y, boxes[i].max_y, boxes[j].min_y,
                              boxes[j].max_y));
    return static_cast<uint8_t>(static_cast<uint8_t>(cx << 2 | cy) |
                                boxes[i].cross | boxes[j].cross);
  }
  bool Explicit(size_t i, size_t j) const {
    return !RelationStore::ResolvableCode(Code(i, j));
  }
  uint16_t ExpectedMask(size_t i, size_t j) const {
    if (Explicit(i, j)) return masks.at({i, j});
    return ClassPairRelations()[Code(i, j)].mask();
  }
};

void ExpectMatchesShadow(const RelationStore& store,
                         const ShadowModel& shadow) {
  const size_t n = shadow.boxes.size();
  ASSERT_EQ(store.regions(), n);
  size_t flat = 0;
  uint64_t shadow_digest = 0;
  store.ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
    ASSERT_EQ(relation.mask(), shadow.ExpectedMask(i, j))
        << "pair (" << i << ", " << j << ")";
    ++flat;
  });
  ASSERT_EQ(flat, store.pair_count());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      shadow_digest += MixPairDigest(i, j, shadow.ExpectedMask(i, j));
    }
  }
  ASSERT_EQ(store.Digest(), shadow_digest);
  // Random-access path too (it ranks through patch lists and ghosts).
  for (size_t i = 0; i < n; i += 1 + n / 5) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      ASSERT_EQ(store.Relation(i, j).mask(), shadow.ExpectedMask(i, j))
          << "lookup (" << i << ", " << j << ")";
    }
  }
}

uint16_t RandomMask(Rng* rng) {
  return static_cast<uint16_t>(1 + rng->NextBelow(511));
}

// One-third of the boxes are degenerate (zero width / zero height), so
// mutations constantly flip whole rows and columns between implicit and
// always-explicit.
Box RandomShadowBox(Rng* rng) {
  const double x = rng->NextDouble(0.0, 800.0);
  const double y = rng->NextDouble(0.0, 800.0);
  double w = rng->NextDouble(1.0, 150.0);
  double h = rng->NextDouble(1.0, 150.0);
  const uint64_t kind = rng->NextBelow(6);
  if (kind == 0) w = 0.0;
  if (kind == 1) h = 0.0;
  return Box(x, y, x + w, y + h);
}

// Writes the mutated row `id`'s changes, one per column of `cols`: in one
// merge through PatchRow when `by_row`, else pair by pair through
// PatchPair. The shadow checks the merge against the single-pair rule.
void PatchShadowRow(RelationStore* store, size_t id,
                    const std::vector<uint32_t>& cols,
                    const std::vector<PairEdit>& changes, bool by_row) {
  if (by_row) {
    store->PatchRow(id, cols, changes);
    return;
  }
  for (size_t k = 0; k < cols.size(); ++k) {
    store->PatchPair(id, cols[k], changes[k]);
  }
}

// Applies the caller side of the mutation contract for "region id's box
// becomes `box`": sample old (id, j) and (j, id) explicitness, move the
// profile, patch row id and column id everywhere they changed.
void ApplyShadowSetBox(RelationStore* store, ShadowModel* shadow, size_t id,
                       const Box& box, Rng* rng, bool by_row) {
  const size_t n = shadow->boxes.size();
  std::vector<uint32_t> cols;
  std::vector<PairEdit> row;
  std::vector<uint8_t> was_column(n, 0);
  for (size_t j = 0; j < n; ++j) {
    if (j == id) continue;
    cols.push_back(static_cast<uint32_t>(j));
    row.push_back({shadow->Explicit(id, j) ? uint8_t{1} : uint8_t{0}, 0, 0});
    was_column[j] = shadow->Explicit(j, id) ? 1 : 0;
  }
  shadow->SetBox(id, box);
  store->SetRegionBox(id, box);
  for (size_t k = 0; k < cols.size(); ++k) {
    const size_t j = cols[k];
    if (shadow->Explicit(id, j)) {
      row[k].now_explicit = 1;
      row[k].mask = RandomMask(rng);
      shadow->masks[{id, j}] = row[k].mask;
    } else {
      shadow->masks.erase({id, j});
    }
    if (shadow->Explicit(j, id)) {
      const uint16_t mask = RandomMask(rng);
      shadow->masks[{j, id}] = mask;
      store->PatchPair(j, id, {was_column[j], 1, mask});
    } else {
      shadow->masks.erase({j, id});
      if (was_column[j] != 0) store->PatchPair(j, id, {1, 0, 0});
    }
  }
  PatchShadowRow(store, id, cols, row, by_row);
}

void ApplyShadowAppend(RelationStore* store, ShadowModel* shadow,
                       const Box& box, Rng* rng, bool by_row) {
  const size_t id = shadow->boxes.size();
  shadow->boxes.push_back({});
  shadow->SetBox(id, box);
  store->AppendRegion(box);
  std::vector<uint32_t> cols;
  std::vector<PairEdit> row;
  for (size_t j = 0; j < id; ++j) {
    cols.push_back(static_cast<uint32_t>(j));
    row.emplace_back();  // The new row has no base slots.
    if (shadow->Explicit(id, j)) {
      row.back().now_explicit = 1;
      row.back().mask = RandomMask(rng);
      shadow->masks[{id, j}] = row.back().mask;
    }
    if (shadow->Explicit(j, id)) {
      const uint16_t mask = RandomMask(rng);
      shadow->masks[{j, id}] = mask;
      store->PatchPair(j, id, {0, 1, mask});  // Column postdates base.
    }
  }
  PatchShadowRow(store, id, cols, row, by_row);
}

void ApplyShadowErase(RelationStore* store, ShadowModel* shadow, size_t id) {
  const size_t n = shadow->boxes.size();
  for (size_t j = 0; j < n; ++j) {
    if (j != id && shadow->Explicit(j, id)) {
      store->PatchPair(j, id, {1, 0, 0});  // EraseRegion precondition.
    }
  }
  store->EraseRegion(id);
  shadow->boxes.erase(shadow->boxes.begin() + static_cast<ptrdiff_t>(id));
  std::map<std::pair<size_t, size_t>, uint16_t> renumbered;
  for (const auto& entry : shadow->masks) {
    const size_t i = entry.first.first;
    const size_t j = entry.first.second;
    if (i == id || j == id) continue;
    renumbered[{i > id ? i - 1 : i, j > id ? j - 1 : j}] = entry.second;
  }
  shadow->masks = std::move(renumbered);
}

// Randomized scripts over the raw mutation API, degenerate boxes included.
// The mutated row goes through PatchRow on even seeds and pair by pair
// through PatchPair on odd ones.
TEST(RelationStoreMutation, ShadowModelScriptsWithDegenerateBoxes) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const bool by_row = seed % 2 == 0;
    Rng rng(0x5AD0u + seed);
    const int n = 4 + static_cast<int>(rng.NextBelow(10));
    const std::vector<Region> regions = SmallOverlapRegions(&rng, n);
    auto built = ComputeRelationStore(regions);
    ASSERT_TRUE(built.ok()) << built.status();
    RelationStore store = std::move(*built);

    ShadowModel shadow;
    for (const Region& region : regions) {
      shadow.boxes.push_back({});
      shadow.SetBox(shadow.boxes.size() - 1, region.BoundingBox());
    }
    store.ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
      if (store.IsExplicit(i, j)) shadow.masks[{i, j}] = relation.mask();
    });
    ExpectMatchesShadow(store, shadow);

    const int mutations = 4 + static_cast<int>(rng.NextBelow(14));
    for (int m = 0; m < mutations; ++m) {
      SCOPED_TRACE("mutation " + std::to_string(m));
      const uint64_t kind = rng.NextBelow(5);
      if (kind == 0 || shadow.boxes.size() < 3) {
        ApplyShadowAppend(&store, &shadow, RandomShadowBox(&rng), &rng,
                          by_row);
      } else if (kind == 4) {
        ApplyShadowErase(&store, &shadow, rng.NextBelow(shadow.boxes.size()));
      } else {
        ApplyShadowSetBox(&store, &shadow, rng.NextBelow(shadow.boxes.size()),
                          RandomShadowBox(&rng), &rng, by_row);
      }
      ExpectMatchesShadow(store, shadow);
    }
  }
}

// Long patch lists: enough columns mutate that rows' patch lists pass 64
// entries, and the erasures leave ghosts of the base slots of erased
// columns. The script finally erases the first, the last and a middle id
// with patched rows on both sides of it. The arena charge must equal
// bytes() at every step, and a copy must charge its own footprint.
TEST(RelationStoreMutation, LongPatchListsStayCorrect) {
#ifdef CARDIR_OBS_ENABLED
  obs::MemArena& arena = obs::MemArena::Get("relation_store");
  const int64_t live_before = arena.LiveBytes();
#endif  // CARDIR_OBS_ENABLED
  Rng rng(0xC03Au);
  const int n = 80;
  const std::vector<Region> regions = SmallOverlapRegions(&rng, n);
  auto built = ComputeRelationStore(regions);
  ASSERT_TRUE(built.ok()) << built.status();
  RelationStore store = std::move(*built);
  const auto expect_exact_charge = [&]() {
#ifdef CARDIR_OBS_ENABLED
    store.RechargeMem();
    ASSERT_EQ(arena.LiveBytes() - live_before,
              static_cast<int64_t>(store.bytes()));
#endif  // CARDIR_OBS_ENABLED
  };

  ShadowModel shadow;
  for (const Region& region : regions) {
    shadow.boxes.push_back({});
    shadow.SetBox(shadow.boxes.size() - 1, region.BoundingBox());
  }
  store.ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
    if (store.IsExplicit(i, j)) shadow.masks[{i, j}] = relation.mask();
  });

  size_t longest = 0;
  for (int m = 0; m < 120; ++m) {
    const uint64_t kind = rng.NextBelow(8);
    if (kind == 7) {
      ApplyShadowErase(&store, &shadow, rng.NextBelow(shadow.boxes.size()));
    } else {
      // Mostly box moves over a shared canvas: nearly every row's column
      // set churns, so patch lists grow long.
      ApplyShadowSetBox(&store, &shadow, rng.NextBelow(shadow.boxes.size()),
                        RandomShadowBox(&rng), &rng, /*by_row=*/true);
    }
    expect_exact_charge();
    for (size_t r = 0; r < shadow.boxes.size(); ++r) {
      longest = std::max(longest, store.patch_entries(r));
    }
  }
  EXPECT_GT(longest, 64u);
  ExpectMatchesShadow(store, shadow);

  const auto has_patched_row = [&store](size_t from, size_t to) {
    for (size_t r = from; r < to; ++r) {
      if (store.patch_entries(r) != 0) return true;
    }
    return false;
  };
  for (const std::string where : {"first", "last", "middle"}) {
    SCOPED_TRACE(where);
    const size_t count = shadow.boxes.size();
    const size_t id = where == "first" ? 0
                      : where == "last" ? count - 1
                                        : count / 2;
    if (id > 0) {
      ASSERT_TRUE(has_patched_row(0, id));
    }
    if (id + 1 < count) {
      ASSERT_TRUE(has_patched_row(id + 1, count));
    }
    ApplyShadowErase(&store, &shadow, id);
    ExpectMatchesShadow(store, shadow);
    expect_exact_charge();
  }

#ifdef CARDIR_OBS_ENABLED
  // The arena recharge must track the mutated footprint exactly.
  store.RechargeMem();
  const int64_t live_after = arena.LiveBytes();
  store.RechargeMem();  // Idempotent: same footprint, same charge.
  EXPECT_EQ(arena.LiveBytes(), live_after);
  {
    RelationStore copy = store;  // Copy charges its own (edited) footprint.
    EXPECT_EQ(copy.Digest(), store.Digest());
    EXPECT_EQ(arena.LiveBytes(),
              live_after + static_cast<int64_t>(copy.bytes()));
  }
  EXPECT_EQ(arena.LiveBytes(), live_after);
#endif  // CARDIR_OBS_ENABLED
}

#ifdef CARDIR_OBS_ENABLED
// The mem.relation_store arena must balance: live returns to zero when
// stores die, and the charge follows the store across moves.
TEST(RelationStoreMemstats, ArenaChargesBalanceAcrossMoveAndDestroy) {
  obs::MemArena& arena = obs::MemArena::Get("relation_store");
  const int64_t live_before = arena.LiveBytes();
  Rng rng(99u);
  const std::vector<Region> regions = SmallOverlapRegions(&rng, 40);
  {
    auto store = ComputeRelationStore(regions);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(arena.LiveBytes() - live_before,
              static_cast<int64_t>(store->bytes()));
    RelationStore moved = std::move(*store);  // Charge moves, not doubles.
    EXPECT_EQ(arena.LiveBytes() - live_before,
              static_cast<int64_t>(moved.bytes()));
  }
  EXPECT_EQ(arena.LiveBytes(), live_before);
}
#endif  // CARDIR_OBS_ENABLED

}  // namespace
}  // namespace cardir
