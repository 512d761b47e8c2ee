#include "index/directional_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/compute_cdr.h"
#include "util/random.h"
#include "workload/region_gen.h"
#include "workload/scenario_gen.h"

namespace cardir {
namespace {

void AddRect(Configuration* config, const std::string& id, double x0,
             double y0, double x1, double y1) {
  AnnotatedRegion region;
  region.id = id;
  region.name = id;
  region.geometry.AddPolygon(MakeRectangle(x0, y0, x1, y1));
  ASSERT_TRUE(config->AddRegion(std::move(region)).ok());
}

Configuration SmallConfig() {
  Configuration config;
  AddRect(&config, "ref", 0, 0, 10, 10);
  AddRect(&config, "north1", 2, 12, 8, 16);
  AddRect(&config, "north2", 3, 20, 7, 24);
  AddRect(&config, "northwide", -4, 12, 14, 16);  // NW:N:NE.
  AddRect(&config, "east", 12, 2, 16, 8);
  AddRect(&config, "inside", 4, 4, 6, 6);
  AddRect(&config, "southwest", -8, -8, -2, -2);
  return config;
}

DisjunctiveRelation Only(const char* relation) {
  return DisjunctiveRelation(*CardinalRelation::Parse(relation));
}

TEST(DirectionalQueryTest, FindMatchingSingleTile) {
  const Configuration config = SmallConfig();
  auto index = DirectionalIndex::Build(config);
  ASSERT_TRUE(index.ok()) << index.status();
  auto north = index->FindMatching("ref", Only("N"));
  ASSERT_TRUE(north.ok());
  EXPECT_EQ(*north, (std::vector<std::string>{"north1", "north2"}));
  auto east = index->FindMatching("ref", Only("E"));
  ASSERT_TRUE(east.ok());
  EXPECT_EQ(*east, (std::vector<std::string>{"east"}));
  auto b = index->FindMatching("ref", Only("B"));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, (std::vector<std::string>{"inside"}));
}

TEST(DirectionalQueryTest, FindMatchingMultiTile) {
  const Configuration config = SmallConfig();
  auto index = DirectionalIndex::Build(config);
  ASSERT_TRUE(index.ok());
  auto wide = index->FindMatching("ref", Only("NW:N:NE"));
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(*wide, (std::vector<std::string>{"northwide"}));
}

TEST(DirectionalQueryTest, FindMatchingDisjunction) {
  const Configuration config = SmallConfig();
  auto index = DirectionalIndex::Build(config);
  ASSERT_TRUE(index.ok());
  auto result = index->FindMatching(
      "ref", *DisjunctiveRelation::Parse("{N, NW:N:NE, SW}"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<std::string>{"north1", "north2",
                                               "northwide", "southwest"}));
}

TEST(DirectionalQueryTest, ErrorsOnUnknownReference) {
  const Configuration config = SmallConfig();
  auto index = DirectionalIndex::Build(config);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->FindMatching("ghost", Only("N")).status().code(),
            StatusCode::kNotFound);
}

// ---- Property: FindMatching equals a brute-force Compute-CDR scan. ------

// Checks every reference region against the relations that occur in its
// column plus two fixed disjunctions. On a computed configuration the
// stored relations (possibly delta-patched) must equal the scan as well.
void ExpectMatchesBruteForce(const Configuration& config,
                             const std::string& label) {
  SCOPED_TRACE(label);
  const std::vector<AnnotatedRegion>& regions = config.regions();
  const size_t n = regions.size();
  // brute[a * n + b] = a R b.
  std::vector<CardinalRelation> brute(n * n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      auto relation = ComputeCdr(regions[a].geometry, regions[b].geometry);
      ASSERT_TRUE(relation.ok()) << relation.status();
      brute[a * n + b] = *relation;
      if (config.relation_store() != nullptr) {
        EXPECT_EQ(config.StoredRelation(regions[a].id, regions[b].id),
                  *relation)
            << regions[a].id << " vs " << regions[b].id;
      }
    }
  }
  auto index = DirectionalIndex::Build(config);
  ASSERT_TRUE(index.ok());
  for (size_t b = 0; b < n; ++b) {
    std::vector<CardinalRelation> occurring;
    for (size_t a = 0; a < n; ++a) {
      if (a != b) occurring.push_back(brute[a * n + b]);
    }
    std::sort(occurring.begin(), occurring.end());
    occurring.erase(std::unique(occurring.begin(), occurring.end()),
                    occurring.end());
    std::vector<DisjunctiveRelation> probes = {
        *DisjunctiveRelation::Parse("{N, NE, E, N:NE, NE:E}"),
        Only("B:S:SW:W:NW:N:NE:E:SE")};
    for (const CardinalRelation& r : occurring) probes.emplace_back(r);
    for (const DisjunctiveRelation& probe : probes) {
      auto found = index->FindMatching(regions[b].id, probe);
      ASSERT_TRUE(found.ok()) << found.status();
      std::vector<std::string> expected;
      for (size_t a = 0; a < n; ++a) {
        if (a != b && probe.Contains(brute[a * n + b])) {
          expected.push_back(regions[a].id);
        }
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(*found, expected)
          << "reference " << regions[b].id << ", relation "
          << probe.ToString();
    }
  }
}

// Computes the store, then grows some regions by a far-away rectangle
// (their boxes now straddle many reference lines) and removes others, so
// the store is delta-patched.
void ComputeAndEdit(Configuration* config) {
  ASSERT_TRUE(config->ComputeAllRelations().ok());
  const Box canvas = [&] {
    Box box;
    for (const AnnotatedRegion& r : config->regions()) {
      box.Extend(r.geometry.BoundingBox());
    }
    return box;
  }();
  const std::vector<AnnotatedRegion>& regions = config->regions();
  std::vector<std::string> grow, remove;
  for (size_t i = 0; i < regions.size(); ++i) {
    if (i % 7 == 3) grow.push_back(regions[i].id);
    if (i % 11 == 5) remove.push_back(regions[i].id);
  }
  for (size_t k = 0; k < grow.size(); ++k) {
    const double x = canvas.max_x() + 5.0 + 4.0 * static_cast<double>(k);
    const double y = k % 2 == 0 ? canvas.max_y() + 5.0 : canvas.min_y() - 8.0;
    ASSERT_TRUE(config
                    ->AddPolygonToRegion(grow[k],
                                         MakeRectangle(x, y, x + 3.0, y + 3.0))
                    .ok());
  }
  for (const std::string& id : remove) {
    ASSERT_TRUE(config->RemoveRegion(id).ok());
  }
  ASSERT_NE(config->delta_engine(), nullptr);
}

void ExpectMatchesBruteForceBeforeAndAfterEdits(Configuration config,
                                                const std::string& label) {
  ExpectMatchesBruteForce(config, label);
  ComputeAndEdit(&config);
  ExpectMatchesBruteForce(config, label + " after compute + edits");
}

// Regions placed in disjoint cells: most pairs are box-decided.
Configuration GeneratedMap(uint64_t seed, int polygons_per_region) {
  Rng rng(seed);
  ScenarioOptions options;
  options.num_regions = 36;
  options.polygons_per_region = polygons_per_region;
  options.compute_relations = false;
  return *GenerateMapConfiguration(&rng, options);
}

// 40 regions spread over one 100x100 box: most boxes overlap, so most
// pairs need Compute-CDR.
Configuration OverlappingRegions(uint64_t seed, int num_polygons) {
  Rng rng(seed);
  RegionGenOptions options;
  options.num_polygons = num_polygons;
  Configuration config;
  for (int i = 0; i < 40; ++i) {
    AnnotatedRegion region;
    region.id = "r";
    region.id += std::to_string(i);
    region.geometry = RandomRegion(&rng, options);
    EXPECT_TRUE(config.AddRegion(std::move(region)).ok());
  }
  return config;
}

// Every rectangle with corners on {-4, 0, 5, 10, 14}: edges lie exactly on
// the lines of the [0,10]^2 rectangles (and of each other), exercising the
// inclusive boundary rule of the box classification.
Configuration TouchingRectangles() {
  const double lines[] = {-4, 0, 5, 10, 14};
  Configuration config;
  for (double x0 : lines) {
    for (double x1 : lines) {
      if (x1 <= x0) continue;
      for (double y0 : lines) {
        for (double y1 : lines) {
          if (y1 <= y0) continue;
          std::ostringstream id;
          id << "x" << x0 << "_" << x1 << "y" << y0 << "_" << y1;
          AddRect(&config, id.str(), x0, y0, x1, y1);
        }
      }
    }
  }
  return config;
}

TEST(DirectionalQueryTest, MatchesBruteForceOnGeneratedMaps) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    const std::string s = " seed " + std::to_string(seed);
    ExpectMatchesBruteForceBeforeAndAfterEdits(GeneratedMap(seed, 1),
                                               "map" + s);
    ExpectMatchesBruteForceBeforeAndAfterEdits(OverlappingRegions(seed, 1),
                                               "overlapping" + s);
    ExpectMatchesBruteForceBeforeAndAfterEdits(GeneratedMap(seed, 3),
                                               "multi-polygon map" + s);
    ExpectMatchesBruteForceBeforeAndAfterEdits(OverlappingRegions(seed, 3),
                                               "overlapping multi-polygon" + s);
  }
  ExpectMatchesBruteForceBeforeAndAfterEdits(TouchingRectangles(),
                                             "touching rectangles");
}

}  // namespace
}  // namespace cardir
