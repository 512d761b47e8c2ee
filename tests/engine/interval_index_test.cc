// IntervalOverlapIndex / CandidateBitset / PolygonBoxes tests. The index
// is the delta engine's dirty-set oracle, so the property here is blunt:
// after ANY mutation sequence, every query must report exactly the
// strict-overlap candidates a brute-force scan over the authoritative
// interval set reports — tombstones, overflow entries, stale block maxima
// and amortized rebuilds included.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/interval_index.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace cardir {
namespace {

struct ShadowEntry {
  double lo = 0.0;
  double hi = 0.0;
  bool skip = false;
};

std::vector<uint32_t> BruteForceOverlaps(const std::vector<ShadowEntry>& shadow,
                                         double qlo, double qhi) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < shadow.size(); ++i) {
    if (!shadow[i].skip && shadow[i].lo < qhi && shadow[i].hi > qlo) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

std::vector<uint32_t> IndexOverlaps(const IntervalOverlapIndex& index,
                                    double qlo, double qhi) {
  std::vector<uint32_t> out;
  index.ForEachOverlap(qlo, qhi, [&out](uint32_t id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectQueriesMatch(const IntervalOverlapIndex& index,
                        const std::vector<ShadowEntry>& shadow, Rng* rng,
                        int queries) {
  for (int q = 0; q < queries; ++q) {
    const double a = rng->NextDouble(-50.0, 1050.0);
    const double b = a + rng->NextDouble(0.0, 400.0);
    const std::vector<uint32_t> got = IndexOverlaps(index, a, b);
    const std::vector<uint32_t> want = BruteForceOverlaps(shadow, a, b);
    ASSERT_EQ(got, want) << "query [" << a << ", " << b << "]";
  }
}

ShadowEntry RandomEntry(Rng* rng) {
  ShadowEntry entry;
  entry.lo = rng->NextDouble(0.0, 950.0);
  entry.hi = entry.lo + rng->NextDouble(0.5, 120.0);
  entry.skip = rng->NextBelow(12) == 0;
  return entry;
}

// The shadow as the per-id arrays an index reads its intervals from.
struct ShadowArrays {
  explicit ShadowArrays(const std::vector<ShadowEntry>& shadow) {
    for (const ShadowEntry& entry : shadow) {
      lo.push_back(entry.lo);
      hi.push_back(entry.hi);
      skip.push_back(entry.skip ? 1 : 0);
    }
  }
  AxisIntervals axis() const { return {lo, hi, skip}; }

  std::vector<double> lo, hi;
  std::vector<uint8_t> skip;
};

void BuildFromShadow(IntervalOverlapIndex* index,
                     const std::vector<ShadowEntry>& shadow) {
  index->Build(ShadowArrays(shadow).axis());
}

// Randomized differential property: every mix of Update / Append / Remove,
// checked against the brute-force shadow after each mutation. Sizes are
// chosen to cross the kBlock=64 boundary so real block summaries engage.
TEST(IntervalIndexProperty, MutationsMatchBruteForceOn200RandomScripts) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0x1D9E0000u + seed);
    std::vector<ShadowEntry> shadow;
    const size_t initial = 2 + rng.NextBelow(150);
    for (size_t i = 0; i < initial; ++i) shadow.push_back(RandomEntry(&rng));
    IntervalOverlapIndex index;
    BuildFromShadow(&index, shadow);
    ExpectQueriesMatch(index, shadow, &rng, 4);

    const int mutations = 3 + static_cast<int>(rng.NextBelow(20));
    for (int m = 0; m < mutations; ++m) {
      const uint64_t kind = rng.NextBelow(4);
      if (kind == 0 || shadow.empty()) {
        const ShadowEntry entry = RandomEntry(&rng);
        shadow.push_back(entry);
        index.Append(ShadowArrays(shadow).axis());
      } else if (kind == 3) {
        const size_t id = rng.NextBelow(shadow.size());
        shadow.erase(shadow.begin() + static_cast<ptrdiff_t>(id));
        index.Remove(id, ShadowArrays(shadow).axis());
      } else {
        const size_t id = rng.NextBelow(shadow.size());
        const ShadowEntry entry = RandomEntry(&rng);
        shadow[id] = entry;
        index.Update(id, ShadowArrays(shadow).axis());
      }
      ASSERT_EQ(index.size(), shadow.size());
      ExpectQueriesMatch(index, shadow, &rng, 4);
    }
  }
}

// Tombstoned entries leave their block maxima stale-but-conservative: a
// block whose true max end shrank may still be scanned, but must never be
// skipped while it holds a live qualifying entry. Shrink the widest
// intervals in place (the adversarial direction) and re-query.
TEST(IntervalIndexTest, BlockSummariesStayConservativeAfterTombstones) {
  Rng rng(0xB10Cu);
  std::vector<ShadowEntry> shadow;
  for (size_t i = 0; i < 512; ++i) {
    ShadowEntry entry;
    entry.lo = static_cast<double>(i);
    // Every 64th interval is enormous, so it alone sets its block max.
    entry.hi = entry.lo + (i % 64 == 0 ? 600.0 : 1.0);
    shadow.push_back(entry);
  }
  IntervalOverlapIndex index;
  BuildFromShadow(&index, shadow);

  // Shrink every block-dominating interval; the recorded block max is now
  // stale (too large). Queries past the shrunken ends must drop them, and
  // queries inside the block must still see the small neighbours.
  for (size_t i = 0; i < 512; i += 64) {
    shadow[i].hi = shadow[i].lo + 0.5;
    index.Update(i, ShadowArrays(shadow).axis());
  }
  ExpectQueriesMatch(index, shadow, &rng, 64);

  // And the reverse: grow a mid-block interval far beyond its block.
  shadow[37].hi = shadow[37].lo + 700.0;
  index.Update(37, ShadowArrays(shadow).axis());
  ExpectQueriesMatch(index, shadow, &rng, 64);
}

// The amortized rebuild must trigger once pending mutations exceed
// max(kBlock, size/8), drain the tombstone/overflow backlog, and leave the
// queries still exact.
TEST(IntervalIndexTest, PendingMutationsTriggerRebuild) {
  Rng rng(0x9E8Du);
  std::vector<ShadowEntry> shadow;
  for (size_t i = 0; i < 1024; ++i) shadow.push_back(RandomEntry(&rng));
  IntervalOverlapIndex index;
  BuildFromShadow(&index, shadow);
  ASSERT_EQ(index.pending(), 0u);

  size_t max_pending = 0;
  for (int m = 0; m < 400; ++m) {
    const size_t id = rng.NextBelow(shadow.size());
    const ShadowEntry entry = RandomEntry(&rng);
    shadow[id] = entry;
    index.Update(id, ShadowArrays(shadow).axis());
    max_pending = std::max(max_pending, index.pending());
    // Threshold: dead + overflow never exceeds max(kBlock, size/8) for
    // long — one more mutation past it rebuilds back to zero.
    ASSERT_LE(index.pending(),
              std::max(IntervalOverlapIndex::kBlock, shadow.size() / 8) + 1);
  }
  ASSERT_GT(max_pending, IntervalOverlapIndex::kBlock / 2)
      << "mutations never accumulated — threshold test is vacuous";
  ExpectQueriesMatch(index, shadow, &rng, 32);
}

// Remove renumbers in place instead of re-sorting, so each removal moves
// pending() by the kind of entry it retires: a sorted main-array entry
// leaves a tombstone (+1), an overflow entry parked by Update/Append just
// goes (-1), a skipped entry was never indexed (0). Queries stay exact
// after every removal, and only the max(64, size/8) threshold re-sorts.
TEST(IntervalIndexTest, RemoveDefersRebuildAndStaysExact) {
  Rng rng(0x4E30u);
  std::vector<ShadowEntry> shadow;
  for (size_t i = 0; i < 300; ++i) {
    shadow.push_back(RandomEntry(&rng));
    shadow.back().skip = i == 150;  // The one skipped entry.
  }
  IntervalOverlapIndex index;
  BuildFromShadow(&index, shadow);
  // Park two live entries in the overflow buffer: id 100 via Update (its
  // sorted entry becomes a tombstone) and a new last id 300 via Append.
  shadow[100] = RandomEntry(&rng);
  shadow[100].skip = false;
  index.Update(100, ShadowArrays(shadow).axis());
  shadow.push_back(RandomEntry(&rng));
  shadow.back().skip = false;
  index.Append(ShadowArrays(shadow).axis());
  ASSERT_EQ(index.pending(), 3u);

  // Removes `id` from both; returns the change in pending().
  const auto remove = [&](size_t id) {
    const int64_t before = static_cast<int64_t>(index.pending());
    shadow.erase(shadow.begin() + static_cast<ptrdiff_t>(id));
    index.Remove(id, ShadowArrays(shadow).axis());
    EXPECT_EQ(index.size(), shadow.size());
    ExpectQueriesMatch(index, shadow, &rng, 16);
    return static_cast<int64_t>(index.pending()) - before;
  };
  EXPECT_EQ(remove(0), 1);                  // First id, main entry.
  EXPECT_EQ(remove(shadow.size() - 1), -1);  // Last id: the Append (300).
  EXPECT_EQ(remove(shadow.size() - 1), 1);   // Last id, main entry (299).
  EXPECT_EQ(remove(99), -1);   // Middle: the Update (100, renumbered 99).
  EXPECT_EQ(remove(148), 0);   // Middle: the skipped 150, renumbered 148.
  ASSERT_EQ(index.pending(), 3u);

  // Every entry left is a main-array entry: pending() climbs by one per
  // removal until the removal that lifts it over the threshold re-sorts.
  bool rebuilt = false;
  while (!rebuilt && shadow.size() > 2) {
    const size_t before = index.pending();
    remove(shadow.size() / 2);
    if (before + 1 > index.rebuild_threshold()) {
      ASSERT_EQ(index.pending(), 0u);
      rebuilt = true;
    } else {
      ASSERT_EQ(index.pending(), before + 1);
    }
  }
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(index.rebuild_threshold(), IntervalOverlapIndex::kBlock);
}

TEST(CandidateBitsetTest, DrainIsSortedDedupedAndSelfClearing) {
  CandidateBitset bits;
  bits.Reset(300);
  for (const uint32_t j : {7u, 299u, 7u, 64u, 63u, 128u, 0u}) bits.Mark(j);
  bits.Clear(128u);
  std::vector<uint32_t> drained;
  bits.Drain([&drained](uint32_t j) { drained.push_back(j); });
  EXPECT_EQ(drained, (std::vector<uint32_t>{0u, 7u, 63u, 64u, 299u}));
  // Drain re-zeroes: a second drain sees nothing.
  drained.clear();
  bits.Drain([&drained](uint32_t j) { drained.push_back(j); });
  EXPECT_TRUE(drained.empty());
}

std::vector<Region> ThreeRegions() {
  std::vector<Region> regions;
  regions.push_back(Region(MakeRectangle(0, 0, 10, 10)));
  Region multi(MakeRectangle(20, 0, 30, 8));
  multi.AddPolygon(MakeRectangle(40, 2, 55, 9));
  regions.push_back(std::move(multi));
  regions.push_back(Region(MakeRectangle(5, 20, 25, 35)));
  return regions;
}

void ExpectPolyBoxesMatchFresh(const PolygonBoxes& boxes,
                               const std::vector<Region>& regions) {
  std::vector<const Region*> pointers;
  for (const Region& region : regions) pointers.push_back(&region);
  PolygonBoxes fresh;
  fresh.Build(pointers);
  ASSERT_EQ(boxes.offsets, fresh.offsets);
  ASSERT_EQ(boxes.min_x, fresh.min_x);
  ASSERT_EQ(boxes.max_x, fresh.max_x);
  ASSERT_EQ(boxes.min_y, fresh.min_y);
  ASSERT_EQ(boxes.max_y, fresh.max_y);
}

TEST(PolygonBoxesTest, MutationsMatchFreshBuild) {
  std::vector<Region> regions = ThreeRegions();
  std::vector<const Region*> pointers;
  for (const Region& region : regions) pointers.push_back(&region);
  PolygonBoxes boxes;
  boxes.Build(pointers);
  ExpectPolyBoxesMatchFresh(boxes, regions);

  // Same-polygon-count replace (the bench's move fast path).
  regions[0] = Region(MakeRectangle(100, 100, 110, 120));
  boxes.ReplaceRegion(0, regions[0]);
  ExpectPolyBoxesMatchFresh(boxes, regions);

  // Count-changing replace (splice path) on the multi-polygon region.
  regions[1] = Region(MakeRectangle(60, 60, 70, 70));
  boxes.ReplaceRegion(1, regions[1]);
  ExpectPolyBoxesMatchFresh(boxes, regions);

  // Grow a region's polygon count through replace.
  Region grown(MakeRectangle(0, 50, 5, 55));
  grown.AddPolygon(MakeRectangle(8, 50, 12, 58));
  grown.AddPolygon(MakeRectangle(14, 52, 18, 60));
  regions[2] = grown;
  boxes.ReplaceRegion(2, regions[2]);
  ExpectPolyBoxesMatchFresh(boxes, regions);

  // Append and erase.
  regions.push_back(Region(MakeRectangle(200, 200, 220, 230)));
  boxes.AppendRegion(regions.back());
  ExpectPolyBoxesMatchFresh(boxes, regions);

  regions.erase(regions.begin() + 1);
  boxes.EraseRegion(1);
  ExpectPolyBoxesMatchFresh(boxes, regions);

  regions.erase(regions.begin());
  boxes.EraseRegion(0);
  ExpectPolyBoxesMatchFresh(boxes, regions);
}

// The sweep's plan keeps these arrays for a computed configuration's
// lifetime, so a build sizes them exactly: 301 regions of 1–3 polygons
// (601 polygons, no power of two) hold no growth slack.
TEST(PolygonBoxesTest, SweepPlanHoldsExactlySizedArrays) {
  std::vector<Region> regions;
  size_t polygons = 0;
  for (int i = 0; i < 301; ++i) {
    const double x = 20.0 * (i % 20);
    const double y = 20.0 * (i / 20);
    Region region(MakeRectangle(x, y, x + 4, y + 4));
    for (int extra = 0; extra < i % 3; ++extra) {
      const double dx = 6.0 + 5.0 * extra;
      region.AddPolygon(MakeRectangle(x + dx, y, x + dx + 3, y + 3));
    }
    polygons += region.polygon_count();
    regions.push_back(std::move(region));
  }
  ASSERT_EQ(polygons, 601u);
  SweepPlan plan;
  ASSERT_TRUE(SweepJoin(RegionPointers(regions), {}, nullptr, &plan).ok());
  EXPECT_EQ(plan.poly.bytes(), (regions.size() + 1) * sizeof(uint64_t) +
                                   4 * polygons * sizeof(double));
}

}  // namespace
}  // namespace cardir
