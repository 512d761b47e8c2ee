// Differential oracle for the sweep join: on randomized REG*
// configurations, the sweep-built RelationStore must be bit-identical to
// (a) the serial Compute-CDR loop and (b) the independent clipping-based
// baseline — for 1, 2, and 8 threads, through both pair enumeration and the
// digest.

#include <optional>
#include <vector>

#include "clipping/baseline_cdr.h"
#include "engine/relation_store.h"
#include "engine/serial_oracle.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "properties/random_instances.h"
#include "util/random.h"

namespace cardir {
namespace {

std::vector<uint16_t> BaselineMasks(const std::vector<Region>& regions) {
  std::vector<uint16_t> masks;
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = 0; j < regions.size(); ++j) {
      if (i == j) continue;
      auto relation = BaselineCdr(regions[i], regions[j]);
      EXPECT_TRUE(relation.ok()) << relation.status();
      masks.push_back(relation->mask());
    }
  }
  return masks;
}

class EngineOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOracleTest, StoreMatchesSerialLoopAndClippingBaseline) {
  Rng rng(GetParam());
  const size_t num_regions = 12 + rng.NextBelow(14);
  std::vector<Region> regions;
  regions.reserve(num_regions);
  for (size_t i = 0; i < num_regions; ++i) {
    regions.push_back(RandomTestRegion(&rng));
  }

  const std::vector<uint16_t> serial = SerialMasks(regions);
  ASSERT_EQ(serial.size(), num_regions * (num_regions - 1));
  ASSERT_EQ(serial, BaselineMasks(regions))
      << "the two serial oracles disagree; the fixture itself is broken";
  const uint64_t serial_digest = SerialDigest(regions);

  for (int threads : {1, 2, 8}) {
    EngineOptions options;
    options.threads = threads;
    EngineStats stats;
    auto store = ComputeRelationStore(regions, options, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_EQ(store->pair_count(), serial.size());
    EXPECT_EQ(stats.total_pairs, serial.size());
    EXPECT_EQ(stats.prefiltered_pairs + stats.computed_pairs,
              stats.total_pairs);
    EXPECT_EQ(stats.threads_used, threads);

    size_t flat = 0;
    store->ForEach(
        [&](size_t i, size_t j, const CardinalRelation& relation) {
          ASSERT_EQ(relation.mask(), serial[flat])
              << "pair (" << i << ", " << j << "), " << threads
              << " threads: store " << relation.ToString() << " vs serial "
              << CardinalRelation::FromMask(serial[flat]).ToString();
          ++flat;
        });
    ASSERT_EQ(flat, serial.size());
    EXPECT_EQ(store->Digest(), serial_digest) << threads << " threads";
  }
}

TEST_P(EngineOracleTest, DigestIsThreadCountInvariant) {
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Region> regions;
  for (size_t i = 0; i < 16; ++i) regions.push_back(RandomTestRegion(&rng));

  std::optional<uint64_t> expected;
  for (int threads : {1, 2, 8}) {
    EngineOptions options;
    options.threads = threads;
    auto store = ComputeRelationStore(regions, options);
    ASSERT_TRUE(store.ok()) << store.status();
    if (!expected.has_value()) {
      expected = store->Digest();
    } else {
      EXPECT_EQ(store->Digest(), *expected) << threads << " threads";
    }
  }
  EXPECT_EQ(*expected, SerialDigest(regions));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOracleTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

TEST(EngineEdgeCaseTest, PrefilterStatsOnSeparatedGrid) {
  // A 4×4 grid of well-separated rectangles: every pair is tile-separated,
  // so the sweep should find no explicit pair and resolve everything
  // without a single Compute-CDR call.
  std::vector<Region> regions;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      regions.push_back(Region(
          MakeRectangle(x * 100.0, y * 100.0, x * 100.0 + 40, y * 100.0 + 40)));
    }
  }
  EngineStats stats;
  auto store = ComputeRelationStore(regions, EngineOptions(), &stats);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(stats.total_pairs, 16u * 15u);
  EXPECT_EQ(stats.prefiltered_pairs, stats.total_pairs);
  EXPECT_EQ(stats.computed_pairs, 0u);
  EXPECT_EQ(stats.crossing_pairs, 0u);
  EXPECT_EQ(store->Digest(), SerialDigest(regions));
}

}  // namespace
}  // namespace cardir
