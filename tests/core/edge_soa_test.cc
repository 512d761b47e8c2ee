// Differential tests pinning the SoA split-and-classify walk
// (core/edge_soa.h) to the AoS reference (core/edge_splitter.h), through
// both entry points: the appending walk must produce identical pieces and
// codes lane by lane, and the store-free walk the same piece count and
// codes-present bitmap — including on-line ties and degenerate bands,
// which exercise the scalar fallback. Also pins the sanitizer contract of
// util/target_clones.h.

#include "core/edge_soa.h"

#include <vector>

#include "core/compute_cdr.h"
#include "core/edge_splitter.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "util/target_clones.h"
#include "workload/region_gen.h"

namespace cardir {
namespace {

// The AoS reference pipeline over a whole polygon.
std::vector<ClassifiedEdge> AosPieces(const Polygon& polygon, const Box& mbb) {
  std::vector<ClassifiedEdge> pieces;
  for (size_t i = 0; i < polygon.size(); ++i) {
    SplitAndClassifyEdge(polygon.edge(i), mbb, &pieces);
  }
  return pieces;
}

Polygon RandomPolygon(Rng* rng, const Box& bounds) {
  RegionGenOptions options;
  options.num_polygons = 1;
  options.vertices_per_polygon = static_cast<int>(rng->NextInt(3, 16));
  options.kind = rng->NextBool() ? PolygonKind::kStar : PolygonKind::kConvex;
  options.bounds = bounds;
  return RandomRegion(rng, options).polygons()[0];
}

Box RandomMbb(Rng* rng) {
  const double x = rng->NextDouble(0.0, 150.0);
  const double y = rng->NextDouble(0.0, 150.0);
  return Box(x, y, x + rng->NextDouble(10.0, 100.0),
             y + rng->NextDouble(10.0, 100.0));
}

void ExpectSoAMatchesAos(const Polygon& polygon, const Box& mbb) {
  const std::vector<ClassifiedEdge> aos = AosPieces(polygon, mbb);

  EdgeSoA soa;
  const SplitClassifyResult appended =
      AppendSplitClassifySoA(polygon, mbb, &soa);
  ASSERT_EQ(appended.pieces, aos.size());
  ASSERT_EQ(soa.count, aos.size());

  uint16_t expected_bitmap = 0;
  for (size_t i = 0; i < aos.size(); ++i) {
    // Bit-identical endpoints: both pipelines share the split core.
    EXPECT_EQ(soa.x0[i], aos[i].segment.a.x) << "lane " << i;
    EXPECT_EQ(soa.y0[i], aos[i].segment.a.y) << "lane " << i;
    EXPECT_EQ(soa.x1[i], aos[i].segment.b.x) << "lane " << i;
    EXPECT_EQ(soa.y1[i], aos[i].segment.b.y) << "lane " << i;
    // Identical classification: the code of the AoS piece's tile.
    const uint8_t expected_code =
        SubEdgeCode(ColumnOf(aos[i].tile), RowOf(aos[i].tile));
    EXPECT_EQ(soa.code[i], expected_code)
        << "lane " << i << " of " << aos.size();
    expected_bitmap =
        static_cast<uint16_t>(expected_bitmap | (1u << expected_code));
  }
  EXPECT_EQ(appended.code_bitmap, expected_bitmap);

  // The store-free walk: same piece count and bitmap, with a fallback
  // scratch that already holds live lanes.
  EdgeSoA fallback;
  AppendSplitClassifySoA(polygon, mbb, &fallback);
  const SplitClassifyResult bitmap_only =
      SplitClassifyBitmapSoA(polygon, mbb, &fallback);
  EXPECT_EQ(bitmap_only.pieces, aos.size());
  EXPECT_EQ(bitmap_only.code_bitmap, expected_bitmap);
}

TEST(EdgeSoATest, MatchesAosPipelineOnRandomPolygons) {
  Rng rng(20260808);
  for (int iter = 0; iter < 500; ++iter) {
    const double size = rng.NextDouble(20.0, 120.0);
    const double x = rng.NextDouble(0.0, 200.0 - size);
    const double y = rng.NextDouble(0.0, 200.0 - size);
    const Polygon polygon = RandomPolygon(&rng, Box(x, y, x + size, y + size));
    ExpectSoAMatchesAos(polygon, RandomMbb(&rng));
  }
}

TEST(EdgeSoATest, MatchesAosOnGeometryTouchingTheLines) {
  // Axis-aligned rectangle whose edges lie exactly ON mbb lines, vertices
  // exactly on corners, plus collinear runs — the tie cases that force the
  // kernel's scalar fallback.
  const Box mbb(10.0, 10.0, 30.0, 30.0);
  const Polygon on_lines({{10.0, 10.0}, {10.0, 30.0}, {30.0, 30.0},
                          {30.0, 10.0}});
  ExpectSoAMatchesAos(on_lines, mbb);

  const Polygon duplicate_vertices({{5.0, 5.0}, {5.0, 5.0}, {5.0, 35.0},
                                    {35.0, 35.0}, {35.0, 35.0}, {35.0, 5.0}});
  ExpectSoAMatchesAos(duplicate_vertices, mbb);

  const Polygon crossing_corners({{0.0, 0.0}, {0.0, 40.0}, {40.0, 40.0},
                                  {40.0, 0.0}});
  ExpectSoAMatchesAos(crossing_corners, mbb);

  // Degenerate (zero-width / zero-height) reference bands.
  ExpectSoAMatchesAos(crossing_corners, Box(20.0, 10.0, 20.0, 30.0));
  ExpectSoAMatchesAos(crossing_corners, Box(10.0, 20.0, 30.0, 20.0));
  ExpectSoAMatchesAos(on_lines, Box(10.0, 20.0, 30.0, 20.0));
}

TEST(EdgeSoATest, ScratchReuseAcrossCallsIsClean) {
  Rng rng(99);
  EdgeSoA soa;
  const Box mbb(50.0, 50.0, 150.0, 150.0);
  size_t capacity_after_first = 0;
  for (int iter = 0; iter < 50; ++iter) {
    const Polygon polygon = RandomPolygon(&rng, Box(0, 0, 200, 200));
    soa.Clear();
    EXPECT_EQ(soa.count, 0u);
    const SplitClassifyResult result =
        AppendSplitClassifySoA(polygon, mbb, &soa);
    EXPECT_EQ(soa.count, result.pieces);
    // Fresh scratch must agree lane-for-lane with the reused one.
    EdgeSoA fresh;
    AppendSplitClassifySoA(polygon, mbb, &fresh);
    ASSERT_EQ(fresh.count, soa.count);
    for (size_t i = 0; i < fresh.count; ++i) {
      EXPECT_EQ(fresh.x0[i], soa.x0[i]);
      EXPECT_EQ(fresh.code[i], soa.code[i]);
    }
    if (iter == 0) capacity_after_first = soa.x0.size();
  }
  EXPECT_GE(soa.x0.size(), capacity_after_first);
}

TEST(EdgeSoATest, SubEdgeCodeTablesMatchTileEnum) {
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 3; ++r) {
      const Tile tile =
          TileAt(static_cast<TileColumn>(c), static_cast<TileRow>(r));
      const uint8_t code =
          SubEdgeCode(static_cast<TileColumn>(c), static_cast<TileRow>(r));
      EXPECT_EQ(SubEdgeCodeMasks()[code], 1u << static_cast<int>(tile));
    }
  }
}

TEST(TargetClonesTest, ClonesCompiledOutUnderSanitizers) {
  // The ifunc-dispatched clones must be compiled out whenever a sanitizer
  // is active (their resolvers run before the sanitizer runtimes
  // initialise); this pins the contract for the asan-ubsan and tsan tiers.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  EXPECT_FALSE(kKernelClonesActive);
#endif
#if !defined(__x86_64__) || defined(__clang__)
  EXPECT_FALSE(kKernelClonesActive);
#endif
  EXPECT_EQ(kKernelClonesActive, CARDIR_KERNEL_CLONES_ACTIVE == 1);
}

}  // namespace
}  // namespace cardir
