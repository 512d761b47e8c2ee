#include "geometry/wkt.h"

#include <gtest/gtest.h>

#include "util/random.h"
#include "workload/region_gen.h"

namespace cardir {
namespace {

TEST(WktTest, SerialisesSinglePolygonRegion) {
  const Region region(MakeRectangle(0, 0, 2, 1));
  EXPECT_EQ(ToWkt(region),
            "MULTIPOLYGON (((0 1, 2 1, 2 0, 0 0, 0 1)))");
}

TEST(WktTest, ParsesPolygonKeyword) {
  auto region = RegionFromWkt("POLYGON ((0 0, 0 2, 2 2, 2 0, 0 0))");
  ASSERT_TRUE(region.ok()) << region.status();
  EXPECT_EQ(region->polygon_count(), 1u);
  EXPECT_DOUBLE_EQ(region->Area(), 4.0);
  EXPECT_TRUE(region->polygons()[0].IsClockwise());  // Reoriented.
}

TEST(WktTest, ParsesMultiPolygon) {
  auto region = RegionFromWkt(
      "MULTIPOLYGON (((0 0, 0 1, 1 1, 1 0, 0 0)), "
      "((5 5, 5 7, 7 7, 7 5, 5 5)))");
  ASSERT_TRUE(region.ok()) << region.status();
  EXPECT_EQ(region->polygon_count(), 2u);
  EXPECT_DOUBLE_EQ(region->Area(), 1.0 + 4.0);
}

TEST(WktTest, AcceptsUnclosedRingsAndMixedCase) {
  auto region = RegionFromWkt("polygon((0 0, 0 2, 2 2, 2 0))");
  ASSERT_TRUE(region.ok()) << region.status();
  EXPECT_EQ(region->polygons()[0].size(), 4u);
  EXPECT_DOUBLE_EQ(region->Area(), 4.0);
}

TEST(WktTest, RejectsUnsupportedAndMalformedInput) {
  EXPECT_FALSE(RegionFromWkt("").ok());
  EXPECT_FALSE(RegionFromWkt("POINT (1 2)").ok());
  EXPECT_FALSE(RegionFromWkt("LINESTRING (0 0, 1 1)").ok());
  EXPECT_FALSE(RegionFromWkt("POLYGON EMPTY").ok());
  EXPECT_FALSE(RegionFromWkt("POLYGON ((0 0, 0 1))").ok());  // < 3 points.
  EXPECT_FALSE(RegionFromWkt("POLYGON ((0 0, 0 1, 1 1, 1 0,)").ok());
  EXPECT_FALSE(RegionFromWkt("POLYGON ((0 0, 0 1, 1 1)) trailing").ok());
  EXPECT_FALSE(RegionFromWkt("POLYGON ((a b, c d, e f))").ok());
}

TEST(WktTest, ParsesOnlyItsView) {
  // Views into a longer buffer that end before or inside a coordinate: the
  // parser stops at the view's end instead of reading the buffer's "45".
  const std::string buffer = "POLYGON ((0 0, 4 0, 4 4, 0 45))";
  for (const size_t length : {size_t{27}, size_t{28}}) {
    const std::string_view view(buffer.data(), length);
    const Result<Region> parsed = RegionFromWkt(view);
    ASSERT_FALSE(parsed.ok()) << view;
    EXPECT_NE(parsed.status().message().find(
                  "at offset " + std::to_string(length)),
              std::string::npos)
        << view << ": " << parsed.status();
  }
}

TEST(WktTest, HolesAreDecomposedOnImport) {
  auto region = RegionFromWkt(
      "POLYGON ((0 0, 0 10, 10 10, 10 0, 0 0), (4 4, 4 6, 6 6, 6 4, 4 4))");
  ASSERT_TRUE(region.ok()) << region.status();
  EXPECT_DOUBLE_EQ(region->Area(), 96.0);
  EXPECT_FALSE(region->Contains(Point(5, 5)));
  EXPECT_TRUE(region->ValidateStrict().ok());
}

TEST(WktTest, RoundTripPreservesGeometryExactly) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    RegionGenOptions options;
    options.num_polygons = static_cast<int>(rng.NextInt(1, 4));
    options.vertices_per_polygon = static_cast<int>(rng.NextInt(3, 12));
    const Region original = RandomRegion(&rng, options);
    auto parsed = RegionFromWkt(ToWkt(original));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, original) << "trial " << trial;
  }
}

TEST(WktTest, RingRegionRoundTrips) {
  const Region ring = MakeRingRegion(Box(0, 0, 10, 10), Box(4, 4, 6, 6));
  auto parsed = RegionFromWkt(ToWkt(ring));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, ring);
}

}  // namespace
}  // namespace cardir
