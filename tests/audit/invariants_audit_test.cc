// Randomised sweep of the paper-level invariants behind the CARDIR_AUDIT
// layer. The validators are plain functions, so this tier bites in every
// build — in plain builds it checks the algorithms directly; in audit
// builds (-DCARDIR_AUDIT=ON, as the sanitizer presets configure) the same
// invariants additionally fire inside the algorithm/engine seams, and this
// test verifies that no seam reported a failure.

#include <vector>

#include "audit/audit.h"
#include "audit/invariants.h"
#include "core/compute_cdr.h"
#include "core/compute_cdr_percent.h"
#include "engine/prefilter.h"
#include "engine/relation_store.h"
#include "engine/serial_oracle.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "properties/random_instances.h"
#include "util/random.h"

namespace cardir {
namespace {

TEST(InvariantsAuditTest, RandomPairsHoldAllPercentInvariants) {
  Rng rng(0xA0D17E5);
  for (int iteration = 0; iteration < 300; ++iteration) {
    const Region primary = RandomTestRegion(&rng);
    const Region reference = RandomTestRegion(&rng);
    const auto percent = ComputeCdrPercentDetailed(primary, reference);
    ASSERT_TRUE(percent.ok()) << percent.status();
    const auto qualitative = ComputeCdr(primary, reference);
    ASSERT_TRUE(qualitative.ok()) << qualitative.status();

    EXPECT_EQ(AuditPercentMatrix(percent->matrix), std::nullopt)
        << "iteration " << iteration;
    EXPECT_EQ(AuditTileAreasMatchRegion(percent->tile_areas,
                                        percent->total_area, primary),
              std::nullopt)
        << "iteration " << iteration;
    EXPECT_EQ(AuditQualQuantAgreement(*qualitative, percent->matrix),
              std::nullopt)
        << "iteration " << iteration << "\nqualitative "
        << qualitative->ToString() << "\n"
        << percent->matrix.ToString();
  }
}

TEST(InvariantsAuditTest, RandomPolygonsHoldTrapezoidTotals) {
  Rng rng(0x7E57ED);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const Region region = RandomTestRegion(&rng);
    for (const Polygon& polygon : region.polygons()) {
      EXPECT_EQ(AuditTrapezoidTotals(polygon), std::nullopt)
          << "iteration " << iteration;
    }
  }
}

TEST(InvariantsAuditTest, BoxResolvedPairsAgreeWithComputeCdr) {
  Rng rng(0xB0B0);
  int resolved = 0;
  for (int iteration = 0; iteration < 400; ++iteration) {
    const Region primary = RandomTestRegion(&rng);
    const Region reference = RandomTestRegion(&rng);
    const auto bounded = MbbPrefilterRelation(primary.BoundingBox(),
                                              reference.BoundingBox());
    if (!bounded.has_value()) continue;
    ++resolved;
    EXPECT_EQ(AuditPrefilterAgreement(*bounded, primary, reference),
              std::nullopt)
        << "iteration " << iteration;
  }
  // The 200×200 canvas leaves plenty of tile-separated pairs; make sure
  // the loop exercised the prefilter at all.
  EXPECT_GT(resolved, 20);
}

TEST(InvariantsAuditTest, EngineRunTripsNoAuditSeam) {
  // A full sweep-join run (parallel, 1-row strips: 20 rows over 4
  // participants) across every seam — the pool's exact-cover audit, the
  // overlay emit audit, the per-pair prefilter audits — must stay silent.
  // In plain builds the seams are compiled out and the count is trivially
  // zero.
  ResetAuditFailureCount();
  Rng rng(0xE7617E);
  std::vector<Region> regions;
  for (int i = 0; i < 20; ++i) regions.push_back(RandomTestRegion(&rng));

  EngineOptions options;
  options.threads = 4;
  EngineStats stats;
  const auto store = ComputeRelationStore(regions, options, &stats);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->pair_count(), regions.size() * (regions.size() - 1));
  EXPECT_EQ(stats.prefiltered_pairs + stats.computed_pairs,
            stats.total_pairs);
  EXPECT_EQ(store->Digest(), SerialDigest(regions));
  EXPECT_EQ(AuditFailureCount(), 0u);
}

}  // namespace
}  // namespace cardir
