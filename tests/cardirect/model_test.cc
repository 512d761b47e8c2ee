#include "cardirect/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "engine/parallel_for.h"
#include "util/random.h"

namespace cardir {
namespace {

AnnotatedRegion MakeRegion(const std::string& id, const std::string& color,
                           double x0, double y0, double x1, double y1) {
  AnnotatedRegion region;
  region.id = id;
  region.name = id + "-name";
  region.color = color;
  region.geometry.AddPolygon(MakeRectangle(x0, y0, x1, y1));
  return region;
}

TEST(ConfigurationTest, AddAndFindRegions) {
  Configuration config("test", "map.png");
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 20, 0, 30, 10)).ok());
  EXPECT_EQ(config.regions().size(), 2u);
  ASSERT_NE(config.FindRegion("a"), nullptr);
  EXPECT_EQ(config.FindRegion("a")->color, "red");
  EXPECT_EQ(config.FindRegion("missing"), nullptr);
}

TEST(ConfigurationTest, RejectsDuplicateAndEmptyIds) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 1, 1)).ok());
  EXPECT_EQ(config.AddRegion(MakeRegion("a", "blue", 2, 2, 3, 3)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(config.AddRegion(MakeRegion("", "red", 0, 0, 1, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfigurationTest, RejectsInvalidGeometry) {
  Configuration config;
  AnnotatedRegion bad;
  bad.id = "bad";
  EXPECT_FALSE(config.AddRegion(bad).ok());  // Empty region.
}

TEST(ConfigurationTest, ReorientsCounterClockwiseInput) {
  Configuration config;
  AnnotatedRegion region;
  region.id = "ccw";
  region.geometry.AddPolygon(
      Polygon({Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)}));
  ASSERT_TRUE(config.AddRegion(region).ok());
  EXPECT_TRUE(config.FindRegion("ccw")->geometry.polygons()[0].IsClockwise());
}

TEST(ConfigurationTest, RegionsByColor) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 1, 1)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 2, 0, 3, 1)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("c", "red", 4, 0, 5, 1)).ok());
  EXPECT_EQ(config.RegionsByColor("red").size(), 2u);
  EXPECT_EQ(config.RegionsByColor("blue").size(), 1u);
  EXPECT_TRUE(config.RegionsByColor("green").empty());
}

TEST(ConfigurationTest, ComputeAllRelationsProducesAllOrderedPairs) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 2, -20, 8, -12)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  EXPECT_EQ(config.relation_count(), 2u);
  // Computed relations live in the RelationStore, not as explicit records.
  EXPECT_TRUE(config.relations().empty());
  ASSERT_NE(config.relation_store(), nullptr);
  auto ab = config.StoredRelation("a", "b");
  ASSERT_TRUE(ab.has_value());
  // a is north of b, spilling over b's narrower mbb into NW and NE.
  EXPECT_EQ(ab->ToString(), "NW:N:NE");
  auto ba = config.StoredRelation("b", "a");
  ASSERT_TRUE(ba.has_value());
  EXPECT_EQ(ba->ToString(), "S");
  EXPECT_FALSE(config.StoredRelation("a", "missing").has_value());
  // The old engine is dropped before the sweep, also when it then fails.
  EXPECT_EQ(config.ComputeAllRelations({.threads = kMaxEngineThreads + 1})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(config.relation_store(), nullptr);
}

TEST(ConfigurationTest, RemoveRegionDropsItsRelations) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 0, 20, 10, 30)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  ASSERT_TRUE(config.RemoveRegion("b").ok());
  EXPECT_FALSE(config.has_relations());
  EXPECT_TRUE(config.relations().empty());
  EXPECT_EQ(config.RemoveRegion("b").code(), StatusCode::kNotFound);
}

TEST(ConfigurationTest, SetRelationsRejectsUnknownIdsAndRepeatedPairs) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 0, 20, 10, 30)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  const CardinalRelation s = *CardinalRelation::Parse("S");
  const CardinalRelation n = *CardinalRelation::Parse("N");
  EXPECT_EQ(config.SetRelations({{"a", "ghost", s}}).code(),
            StatusCode::kNotFound);
  const Status repeated =
      config.SetRelations({{"a", "b", s}, {"b", "a", n}, {"a", "b", n}});
  EXPECT_EQ(repeated.code(), StatusCode::kParseError);
  EXPECT_NE(repeated.message().find("'a'"), std::string::npos) << repeated;
  EXPECT_NE(repeated.message().find("'b'"), std::string::npos) << repeated;
  // A self pair and the empty relation save a document the reader rejects.
  const Status self = config.SetRelations({{"a", "b", s}, {"b", "b", n}});
  EXPECT_EQ(self.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(self.message().find("'b' reference='b'"), std::string::npos)
      << self;
  const Status empty = config.SetRelations({{"b", "a", CardinalRelation()}});
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("'b' reference='a'"), std::string::npos)
      << empty;
  // A failed call changes nothing.
  EXPECT_NE(config.relation_store(), nullptr);
  ASSERT_TRUE(config.SetRelations({{"b", "a", n}, {"a", "b", s}}).ok());
  EXPECT_EQ(config.relation_store(), nullptr);
  ASSERT_EQ(config.relations().size(), 2u);
  EXPECT_EQ(config.relations()[0].primary_id, "b");  // The given order.
  EXPECT_EQ(config.StoredRelation("a", "b"), s);
}

// After any delta-maintained mutation the configuration must answer
// StoredRelation / relation_count / ForEachRelation exactly as a copy that
// recomputes from scratch would.
void ExpectMatchesRecompute(const Configuration& config) {
  Configuration fresh = config;
  ASSERT_TRUE(fresh.ComputeAllRelations().ok());
  ASSERT_EQ(config.relation_count(), fresh.relation_count());
  const auto& regions = config.regions();
  for (const AnnotatedRegion& primary : regions) {
    for (const AnnotatedRegion& reference : regions) {
      if (primary.id == reference.id) continue;
      auto got = config.StoredRelation(primary.id, reference.id);
      auto want = fresh.StoredRelation(primary.id, reference.id);
      ASSERT_EQ(got.has_value(), want.has_value())
          << primary.id << " vs " << reference.id;
      if (got.has_value()) {
        EXPECT_EQ(got->ToString(), want->ToString())
            << primary.id << " vs " << reference.id;
      }
    }
  }
  size_t iterated = 0;
  config.ForEachRelation([&iterated](const std::string&, const std::string&,
                                     const CardinalRelation&) { ++iterated; });
  EXPECT_EQ(iterated, config.relation_count());
}

TEST(ConfigurationTest, AddRegionAfterComputeMaintainsStoreIncrementally) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 4, 4, 14, 14)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  EXPECT_NE(config.delta_engine(), nullptr);

  // The insert rides the delta engine; no recompute, no explicit records.
  ASSERT_TRUE(config.AddRegion(MakeRegion("c", "green", 2, -9, 12, -1)).ok());
  EXPECT_NE(config.delta_engine(), nullptr);
  EXPECT_TRUE(config.relations().empty());
  EXPECT_EQ(config.relation_count(), 6u);
  ExpectMatchesRecompute(config);

  // A failed insert (duplicate id) must leave the store untouched.
  EXPECT_EQ(config.AddRegion(MakeRegion("c", "red", 0, 0, 1, 1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(config.relation_count(), 6u);
  ExpectMatchesRecompute(config);
}

// Below two regions there is no pair, but the configuration still holds an
// engine, and regions added later are delta-maintained.
TEST(ConfigurationTest, ComputeBelowTwoRegionsHoldsAnEngine) {
  Configuration config;
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  EXPECT_NE(config.delta_engine(), nullptr);
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  EXPECT_NE(config.delta_engine(), nullptr);
  EXPECT_EQ(config.relation_count(), 0u);
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 4, 4, 14, 14)).ok());
  EXPECT_EQ(config.relation_count(), 2u);
  ExpectMatchesRecompute(config);
}

TEST(ConfigurationTest, AddPolygonAfterComputeReResolvesItsPairs) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 20, 0, 30, 10)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  ASSERT_EQ(config.StoredRelation("a", "b")->ToString(), "W");

  // Growing `a` eastwards past `b` flips the stored relation without a
  // recompute — and leaves the untouched direction consistent too.
  ASSERT_TRUE(
      config.AddPolygonToRegion("a", MakeRectangle(35, 0, 45, 10)).ok());
  EXPECT_NE(config.delta_engine(), nullptr);
  EXPECT_EQ(config.StoredRelation("a", "b")->ToString(), "W:E");
  EXPECT_TRUE(config.relations().empty());
  ExpectMatchesRecompute(config);

  EXPECT_EQ(config.AddPolygonToRegion("missing", MakeRectangle(0, 0, 1, 1))
                .code(),
            StatusCode::kNotFound);
}

TEST(ConfigurationTest, RemoveRegionAfterComputeKeepsOtherPairs) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 3, 3, 13, 13)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("c", "green", 0, 20, 10, 30)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  const std::string ab = config.StoredRelation("a", "b")->ToString();

  ASSERT_TRUE(config.RemoveRegion("c").ok());
  EXPECT_NE(config.delta_engine(), nullptr);
  EXPECT_EQ(config.relation_count(), 2u);
  // The surviving pair keeps its stored relation verbatim.
  EXPECT_EQ(config.StoredRelation("a", "b")->ToString(), ab);
  EXPECT_FALSE(config.StoredRelation("a", "c").has_value());
  ExpectMatchesRecompute(config);

  // Interleave every mutation kind and stay recompute-consistent.
  ASSERT_TRUE(config.AddRegion(MakeRegion("d", "red", 8, 8, 18, 24)).ok());
  ASSERT_TRUE(
      config.AddPolygonToRegion("b", MakeRectangle(-8, -8, -2, -2)).ok());
  ASSERT_TRUE(config.RemoveRegion("a").ok());
  EXPECT_EQ(config.relation_count(), 2u);
  ExpectMatchesRecompute(config);
}

std::string NumberedId(uint64_t number) {
  std::string id = "r";
  id += std::to_string(number);
  return id;
}

// Every relation `config` stores, as (primary, reference, relation).
std::vector<std::tuple<std::string, std::string, std::string>> RelationsOf(
    const Configuration& config) {
  std::vector<std::tuple<std::string, std::string, std::string>> out;
  config.ForEachRelation([&out](const std::string& primary,
                                const std::string& reference,
                                const CardinalRelation& relation) {
    out.emplace_back(primary, reference, relation.ToString());
  });
  return out;
}

// Applies `edit` to `edited`, which must then match its own recompute,
// while `other` keeps every relation it stored.
void EditOneOfTwo(Configuration* edited, const Configuration& other,
                  const std::function<Status(Configuration&)>& edit) {
  const auto other_before = RelationsOf(other);
  ASSERT_TRUE(edit(*edited).ok());
  ExpectMatchesRecompute(*edited);
  EXPECT_EQ(RelationsOf(other), other_before);
}

// A copy of a computed configuration carries its own delta engine, and
// each engine must read its own configuration's geometry: the two are
// edited differently (add-polygon, add-region, remove), interleaved. The
// rectangles overlap diagonally, so most pairs cross on both axes and
// resolve with full Compute-CDR on the partner's geometry.
TEST(ConfigurationTest, CopiesEditIndependently) {
  Configuration original;
  for (uint64_t i = 0; i < 12; ++i) {
    const double x = 7.0 * static_cast<double>(i % 4);
    const double y = 9.0 * static_cast<double>(i / 4);
    ASSERT_TRUE(original
                    .AddRegion(MakeRegion(NumberedId(i), "red", x, y, x + 12,
                                          y + 14))
                    .ok());
  }
  ASSERT_TRUE(original.ComputeAllRelations().ok());
  Configuration copy = original;
  ASSERT_NE(copy.delta_engine(), nullptr);
  ASSERT_NE(copy.delta_engine(), original.delta_engine());

  EditOneOfTwo(&original, copy, [](Configuration& c) {
    return c.AddPolygonToRegion("r5", MakeRectangle(40, 30, 46, 44));
  });
  EditOneOfTwo(&copy, original,
               [](Configuration& c) { return c.RemoveRegion("r0"); });
  EditOneOfTwo(&original, copy, [](Configuration& c) {
    return c.AddRegion(MakeRegion("n1", "blue", 3, 4, 20, 25));
  });
  EditOneOfTwo(&copy, original, [](Configuration& c) {
    return c.AddPolygonToRegion("r6", MakeRectangle(-9, -7, -1, 30));
  });
  EditOneOfTwo(&original, copy,
               [](Configuration& c) { return c.RemoveRegion("r9"); });
  EditOneOfTwo(&copy, original, [](Configuration& c) {
    return c.AddRegion(MakeRegion("n2", "green", 9, -3, 24, 19));
  });
  EditOneOfTwo(&original, copy, [](Configuration& c) {
    return c.AddPolygonToRegion("r2", MakeRectangle(-6, 20, 2, 27));
  });
  EXPECT_NE(RelationsOf(original), RelationsOf(copy));
}

// The id index against a linear-scan shadow of the region order. A seeded
// script keeps a few hundred of 600 ids live, so the index grows and its
// probe chains collide. Steps: adds of fresh, re-added and duplicate ids
// (some with empty geometry, which a duplicate must not reach) and of the
// empty id; removes and polygon adds of present and absent ids; and two
// copy-assignments of the whole configuration. After every step, each
// status code, FindRegion of every live id and of sampled ids, and on a
// computed (delta-backed) configuration StoredRelation of sampled pairs
// against the store at the shadow's positions must match.
void RunIdIndexScript(bool computed, uint64_t seed) {
  constexpr uint64_t kIds = 600;
  constexpr int kSteps = 2000;
  Rng rng(seed);
  auto random_id = [&rng] { return NumberedId(rng.NextBelow(kIds)); };
  auto random_rectangle = [&rng] {
    const double x = rng.NextDouble(0, 1000);
    const double y = rng.NextDouble(0, 1000);
    return MakeRectangle(x, y, x + rng.NextDouble(1, 60),
                         y + rng.NextDouble(1, 60));
  };
  auto region_named = [&random_rectangle](const std::string& id) {
    AnnotatedRegion region;
    region.id = id;
    region.geometry.AddPolygon(random_rectangle());
    return region;
  };

  Configuration config;
  std::vector<std::string> shadow;  // ids in regions() order
  auto shadow_position = [&shadow](const std::string& id) {
    return static_cast<size_t>(std::find(shadow.begin(), shadow.end(), id) -
                               shadow.begin());
  };
  for (uint64_t i = 0; i < kIds; i += 3) {
    shadow.push_back(NumberedId(i));
    ASSERT_TRUE(config.AddRegion(region_named(shadow.back())).ok());
  }
  if (computed) {
    ASSERT_TRUE(config.ComputeAllRelations().ok());
  }

  for (int step = 0; step < kSteps; ++step) {
    const std::string id = random_id();
    const size_t position = shadow_position(id);
    const bool live = position < shadow.size();
    const uint64_t kind = rng.NextBelow(10);
    if (step == kSteps / 3 || step == 2 * kSteps / 3) {
      // Over a configuration with its own (smaller) index, then back over
      // an empty one.
      Configuration other("other", "other.png");
      ASSERT_TRUE(other.AddRegion(region_named("stale")).ok());
      other = config;
      config = Configuration();
      config = other;
    } else if (kind < 4) {
      const bool empty_id = rng.NextBool(0.02);
      const bool empty_geometry = rng.NextBool(0.1);
      AnnotatedRegion region = region_named(empty_id ? "" : id);
      if (empty_geometry) region.geometry = Region();
      StatusCode want = StatusCode::kOk;
      if (empty_id) {
        want = StatusCode::kInvalidArgument;
      } else if (live) {
        want = StatusCode::kAlreadyExists;
      } else if (empty_geometry) {
        want = StatusCode::kInvalidArgument;
      }
      ASSERT_EQ(config.AddRegion(std::move(region)).code(), want)
          << "step " << step << " add '" << id << "'";
      if (want == StatusCode::kOk) shadow.push_back(id);
    } else if (kind < 7) {
      ASSERT_EQ(config.RemoveRegion(id).code(),
                live ? StatusCode::kOk : StatusCode::kNotFound)
          << "step " << step << " remove '" << id << "'";
      if (live) {
        shadow.erase(shadow.begin() + static_cast<std::ptrdiff_t>(position));
      }
    } else {
      ASSERT_EQ(config.AddPolygonToRegion(id, random_rectangle()).code(),
                live ? StatusCode::kOk : StatusCode::kNotFound)
          << "step " << step << " add polygon to '" << id << "'";
    }

    const auto& regions = config.regions();
    ASSERT_EQ(regions.size(), shadow.size()) << "step " << step;
    for (size_t i = 0; i < shadow.size(); ++i) {
      ASSERT_EQ(regions[i].id, shadow[i]) << "step " << step;
      ASSERT_EQ(config.FindRegion(shadow[i]), &regions[i])
          << "step " << step << " find '" << shadow[i] << "'";
    }
    for (int k = 0; k < 16; ++k) {
      const std::string probe = random_id();
      const size_t at = shadow_position(probe);
      ASSERT_EQ(config.FindRegion(probe),
                at < shadow.size() ? &regions[at] : nullptr)
          << "step " << step << " find '" << probe << "'";
    }
    ASSERT_EQ(config.FindRegion("stale"), nullptr) << "step " << step;
    ASSERT_EQ(config.FindRegion(""), nullptr) << "step " << step;
    if (!computed) continue;
    const RelationStore* store = config.relation_store();
    ASSERT_NE(store, nullptr) << "step " << step;
    for (int k = 0; k < 16; ++k) {
      const size_t a = rng.NextBelow(shadow.size());
      const size_t b = rng.NextBelow(shadow.size());
      const auto stored = config.StoredRelation(shadow[a], shadow[b]);
      if (a == b) {
        ASSERT_FALSE(stored.has_value()) << "step " << step;
        continue;
      }
      ASSERT_TRUE(stored.has_value()) << "step " << step;
      ASSERT_EQ(*stored, store->Relation(a, b))
          << "step " << step << " " << shadow[a] << " vs " << shadow[b];
    }
  }
  if (computed) {
    EXPECT_NE(config.delta_engine(), nullptr);
  }
}

TEST(ConfigurationTest, IdIndexMatchesLinearScanShadow) {
  RunIdIndexScript(/*computed=*/false, 1301);
}

TEST(ConfigurationTest, IdIndexMatchesLinearScanShadowOnComputedStore) {
  RunIdIndexScript(/*computed=*/true, 1302);
}

TEST(ConfigurationTest, ComputePercentagesOnDemand) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("c", "red", 12, 4, 18, 16)).ok());
  auto matrix = config.ComputePercentages("c", "b");
  ASSERT_TRUE(matrix.ok());
  EXPECT_NEAR(matrix->at(Tile::kNE), 50.0, 1e-9);
  EXPECT_NEAR(matrix->at(Tile::kE), 50.0, 1e-9);
  EXPECT_EQ(config.ComputePercentages("c", "missing").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace cardir
