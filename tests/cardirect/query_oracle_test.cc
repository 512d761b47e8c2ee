// Differential oracle for the query evaluator: every query below, over
// every configuration state, returns exactly the rows of a brute-force
// evaluator that enumerates all tuples and decides each direction atom with
// Compute-CDR on the geometry.
//
// Every state decides a direction atom one way (DirectionDecider: the
// class-pair code, then the sweep's resolution kernel for kCross pairs);
// the states cover where the decider's box profile and polygon boxes come
// from: uncomputed (built per query), computed (borrowed from the engine),
// computed and then edited until the store holds patched rows, and XML
// round-tripped (built per query; the <Relation> records are not read).
// The inputs are generated maps (mostly box-decided pairs),
// overlapping regions (mostly kCross pairs) and rectangles whose edges lie
// on each other's lines (the inclusive boundary rule).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cardirect/query.h"
#include "cardirect/xml.h"
#include "core/compute_cdr.h"
#include "index/directional_query.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "workload/region_gen.h"
#include "workload/scenario_gen.h"

namespace cardir {
namespace {

const char* const kColors[] = {"red", "blue", "green", "black"};

void AddRegion(Configuration* config, const std::string& id, size_t k,
               Region geometry) {
  AnnotatedRegion region;
  region.id = id;
  region.name = "Name " + id;
  region.color = kColors[k % 4];
  region.geometry = std::move(geometry);
  ASSERT_TRUE(config->AddRegion(std::move(region)).ok());
}

// Regions in disjoint grid cells: most pairs are box-decided, the kCross
// ones share a grid row or column.
Configuration GeneratedMap(uint64_t seed, int polygons_per_region) {
  Rng rng(seed);
  ScenarioOptions options;
  options.num_regions = 36;
  options.polygons_per_region = polygons_per_region;
  options.compute_relations = false;
  return *GenerateMapConfiguration(&rng, options);
}

// 30 regions over one 100x100 box: most pairs are kCross.
Configuration OverlappingRegions(uint64_t seed) {
  Rng rng(seed);
  RegionGenOptions options;
  options.num_polygons = 2;
  Configuration config;
  for (size_t k = 0; k < 30; ++k) {
    std::string id = "r";
    id += std::to_string(k);
    AddRegion(&config, id, k, RandomRegion(&rng, options));
  }
  return config;
}

// Every rectangle with corners on {-4, 0, 5, 10, 14}: edges lie exactly on
// other rectangles' lines.
Configuration TouchingRectangles() {
  const double lines[] = {-4, 0, 5, 10, 14};
  Configuration config;
  size_t k = 0;
  for (double x0 : lines) {
    for (double x1 : lines) {
      if (x1 <= x0) continue;
      for (double y0 : lines) {
        for (double y1 : lines) {
          if (y1 <= y0) continue;
          std::ostringstream id;
          id << "x" << x0 << "_" << x1 << "y" << y0 << "_" << y1;
          AddRegion(&config, id.str(), k++,
                    Region(MakeRectangle(x0, y0, x1, y1)));
        }
      }
    }
  }
  return config;
}

// Grows every 7th region by a rectangle past the canvas (its row and its
// partners' rows are patched), removes every 11th (ghosts in the patch
// lists) and adds one region across the canvas.
void Edit(Configuration* config) {
  Box canvas;
  for (const AnnotatedRegion& r : config->regions()) {
    canvas.Extend(r.geometry.BoundingBox());
  }
  std::vector<std::string> grow, remove;
  for (size_t i = 0; i < config->regions().size(); ++i) {
    if (i % 7 == 3) grow.push_back(config->regions()[i].id);
    if (i % 11 == 5) remove.push_back(config->regions()[i].id);
  }
  for (size_t k = 0; k < grow.size(); ++k) {
    const double x = canvas.max_x() + 5.0 + 4.0 * static_cast<double>(k);
    const double y = k % 2 == 0 ? canvas.max_y() + 5.0 : canvas.min_y() - 8.0;
    ASSERT_TRUE(
        config->AddPolygonToRegion(grow[k], MakeRectangle(x, y, x + 3, y + 3))
            .ok());
  }
  for (const std::string& id : remove) {
    ASSERT_TRUE(config->RemoveRegion(id).ok());
  }
  const double mid_y = (canvas.min_y() + canvas.max_y()) / 2;
  AddRegion(config, "wide", 0,
            Region(MakeRectangle(canvas.min_x() + 1, mid_y - 1,
                                 canvas.max_x() - 1, mid_y + 1)));
}

// The queries run against `config`, anchored at a few of its regions.
std::vector<std::string> Queries(const Configuration& config) {
  const std::vector<AnnotatedRegion>& regions = config.regions();
  std::vector<std::string> queries;
  for (size_t anchor : {size_t{0}, regions.size() / 2, regions.size() - 1}) {
    const std::string& id = regions[anchor].id;
    // Single-tile relations.
    queries.push_back("(x, y) | y = " + id + ", x N y");
    queries.push_back("(x, y) | y = " + id + ", x SW y");
    queries.push_back("(x, y) | y = " + id + ", x B y");
    // Multi-tile relations, B included: only kCross pairs reach them.
    queries.push_back("(x, y) | y = " + id + ", x B:N y");
    queries.push_back("(x, y) | y = " + id + ", x B:S:SW:W y");
    queries.push_back("(x, y) | y = " + id + ", x NW:N:NE y");
    // Primary side anchored.
    queries.push_back("(x, y) | x = " + id + ", x {S, SW, W, S:SW, B:S} y");
    // A 3-variable chain.
    queries.push_back("(a, b, c) | a = " + id +
                      ", b {N, NE, E, B, N:NE} a, c {S, SW, W, B:S, B} b, "
                      "color(c) = red");
    // Identity by name (the fallback when no id matches).
    queries.push_back("(x, y) | y = \"" + regions[anchor].name +
                      "\", x {N, S, E, W, B} y");
  }
  // A disjunction mixing box-decidable single tiles with multi-tile
  // relations only kCross pairs can have, over all red × all pairs.
  queries.push_back(
      "(x, y) | color(x) = red, x {N, NE, E, N:NE, NE:E, B:N, B:S:SW:W} y");
  queries.push_back("(x, y) | x NE:E y");
  return queries;
}

// ComputeCdr(a, b) at a * n + b over the configuration's geometry.
std::vector<CardinalRelation> BruteRelations(const Configuration& config) {
  const std::vector<AnnotatedRegion>& regions = config.regions();
  const size_t n = regions.size();
  std::vector<CardinalRelation> brute(n * n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const Result<CardinalRelation> relation =
          ComputeCdr(regions[a].geometry, regions[b].geometry);
      EXPECT_TRUE(relation.ok()) << relation.status();
      if (relation.ok()) brute[a * n + b] = *relation;
    }
  }
  return brute;
}

size_t VariableIndex(const Query& query, const std::string& variable) {
  return static_cast<size_t>(
      std::find(query.variables.begin(), query.variables.end(), variable) -
      query.variables.begin());
}

// Every tuple of regions passing every atom (identity, thematic and
// direction atoms only), sorted.
std::vector<QueryRow> BruteForceRows(const Configuration& config,
                                     const std::vector<CardinalRelation>& brute,
                                     const Query& query) {
  const std::vector<AnnotatedRegion>& regions = config.regions();
  const size_t n = regions.size();
  const size_t k = query.variables.size();
  std::vector<QueryRow> rows;
  if (n == 0) return rows;
  std::vector<size_t> tuple(k, 0);
  for (;;) {
    bool ok = true;
    for (const IdentityCondition& c : query.identity_conditions) {
      const AnnotatedRegion& r = regions[tuple[VariableIndex(query, c.variable)]];
      ok = ok && (r.id == c.region || r.name == c.region);
    }
    for (const ThematicCondition& c : query.thematic_conditions) {
      const AnnotatedRegion& r = regions[tuple[VariableIndex(query, c.variable)]];
      ok = ok && (c.attribute == "color" ? r.color : r.name) == c.value;
    }
    for (const DirectionCondition& c : query.direction_conditions) {
      const size_t p = tuple[VariableIndex(query, c.primary_variable)];
      const size_t r = tuple[VariableIndex(query, c.reference_variable)];
      ok = ok && p != r && c.relation.Contains(brute[p * n + r]);
    }
    if (ok) {
      QueryRow row;
      for (size_t v : tuple) row.region_ids.push_back(regions[v].id);
      rows.push_back(std::move(row));
    }
    size_t d = 0;
    while (d < k && ++tuple[d] == n) tuple[d++] = 0;
    if (d == k) break;
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// How the evaluator decided its direction atoms, summed over a state.
struct Decisions {
  uint64_t implicit = 0;
  uint64_t explicit_pairs = 0;

  friend bool operator==(const Decisions&, const Decisions&) = default;
};

Decisions ExpectMatchesBruteForce(const Configuration& config,
                                  const std::string& label) {
  SCOPED_TRACE(label);
  const std::vector<CardinalRelation> brute = BruteRelations(config);
  const obs::MetricsSnapshot before = obs::CaptureMetrics();
  for (const std::string& text : Queries(config)) {
    const Result<Query> query = Query::Parse(text);
    EXPECT_TRUE(query.ok()) << text << ": " << query.status();
    if (!query.ok()) continue;
    const Result<QueryResult> result = EvaluateQuery(config, *query);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status();
    if (!result.ok()) continue;
    EXPECT_EQ(result->variables, query->variables) << text;
    EXPECT_EQ(result->rows, BruteForceRows(config, brute, *query)) << text;
  }
  const obs::MetricsSnapshot delta = obs::CaptureMetrics().Diff(before);
  return {delta.counter("query.direction.implicit"),
          delta.counter("query.direction.explicit")};
}

// Runs the queries over the four states of `config` (uncomputed on entry).
void ExpectMatchesInEveryState(Configuration config, const std::string& label) {
  ASSERT_EQ(config.relation_store(), nullptr);
  const Decisions uncomputed = ExpectMatchesBruteForce(config, label);

  ASSERT_TRUE(config.ComputeAllRelations().ok());
  const Decisions computed =
      ExpectMatchesBruteForce(config, label + " computed");

  Edit(&config);
  const RelationStore& store = *config.relation_store();
  bool patched = false;
  for (size_t row = 0; row < store.regions(); ++row) {
    patched |= store.patch_entries(row) != 0;
  }
  ASSERT_TRUE(patched) << label;
  const Decisions edited =
      ExpectMatchesBruteForce(config, label + " computed and edited");

  const Result<Configuration> reopened =
      ConfigurationFromXml(ConfigurationToXml(config));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ(reopened->relation_store(), nullptr);
  ASSERT_EQ(reopened->relation_count(), config.relation_count());
  const Decisions records =
      ExpectMatchesBruteForce(*reopened, label + " XML round-tripped");

  // One rule in every state: each direction pair is decided by its class
  // code or by the resolution kernel, whatever the configuration stores,
  // so two states over the same geometry split their pairs alike.
  for (const Decisions& d : {uncomputed, computed, edited, records}) {
    EXPECT_GT(d.implicit, 0u) << label;
    EXPECT_GT(d.explicit_pairs, 0u) << label;
  }
  EXPECT_TRUE(uncomputed == computed) << label;
  EXPECT_TRUE(edited == records) << label;
}

TEST(QueryOracleTest, GeneratedMapsMatchBruteForceInEveryState) {
  for (uint64_t seed : {1, 2, 3}) {
    const std::string s = " seed " + std::to_string(seed);
    ExpectMatchesInEveryState(GeneratedMap(seed, 1), "map" + s);
    ExpectMatchesInEveryState(GeneratedMap(seed, 3), "multi-polygon map" + s);
  }
}

TEST(QueryOracleTest, OverlappingRegionsMatchBruteForceInEveryState) {
  for (uint64_t seed : {1, 2}) {
    ExpectMatchesInEveryState(OverlappingRegions(seed),
                              "overlapping seed " + std::to_string(seed));
  }
}

TEST(QueryOracleTest, TouchingRectanglesMatchBruteForceInEveryState) {
  ExpectMatchesInEveryState(TouchingRectangles(), "touching rectangles");
}

// An uncomputed one-polygon map: the decider builds the box profile and
// polygon boxes itself. Regions in disjoint grid cells never cross on both
// axes, so every kCross pair, of `query` and of `related` alike, takes the
// one-axis shortcut and Compute-CDR never runs.
TEST(QueryOracleTest, UncomputedMapDecidesKCrossPairsWithoutComputeCdr) {
  const Configuration config = GeneratedMap(1, 1);
  ASSERT_EQ(config.relation_store(), nullptr);

  const obs::MetricsSnapshot before = obs::CaptureMetrics();
  for (const std::string& text : Queries(config)) {
    ASSERT_TRUE(EvaluateQuery(config, text).ok()) << text;
  }
  const obs::MetricsSnapshot queried = obs::CaptureMetrics().Diff(before);
  EXPECT_GT(queried.counter("query.direction.explicit"), 0u);
  EXPECT_EQ(queried.counter("core.cdr.runs"), 0u);

  const obs::MetricsSnapshot before_related = obs::CaptureMetrics();
  const Result<DirectionalIndex> index = DirectionalIndex::Build(config);
  ASSERT_TRUE(index.ok()) << index.status();
  const DisjunctiveRelation relation =
      *DisjunctiveRelation::Parse("{N, NE, E, N:NE, NE:E, B:N, B:S:SW:W}");
  for (const AnnotatedRegion& region : config.regions()) {
    ASSERT_TRUE(index->FindMatching(region.id, relation).ok()) << region.id;
  }
  const obs::MetricsSnapshot related =
      obs::CaptureMetrics().Diff(before_related);
  EXPECT_GT(related.counter("index.query.refined"), 0u);
  EXPECT_EQ(related.counter("core.cdr.runs"), 0u);
}

}  // namespace
}  // namespace cardir
