// Degenerate-geometry corpus for the Compute-CDR pipelines: a hand-built
// set of valid regions engineered so their edges, vertices and bounding
// boxes collide exactly — collinear runs lying ON other regions' mbb
// lines, duplicate consecutive vertices, unit-thin slivers, shared
// corners — plus degenerate (zero-width / zero-height / point) reference
// bands fed to the unchecked entry points. Every combination is checked
// three ways: the serial qualitative path vs the sweep-built relation
// store (bit-identical masks across thread counts), the
// SoA percent path vs the scalar reference path, and the §3.2 refinement
// guarantee that tiles holding positive area are tiles of the qualitative
// relation (qual ⊇ quant).

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/compute_cdr.h"
#include "core/compute_cdr_percent.h"
#include "core/tile.h"
#include "engine/relation_store.h"
#include "engine/serial_oracle.h"
#include "geometry/box.h"
#include "geometry/region.h"
#include "gtest/gtest.h"

namespace cardir {
namespace {

// All corpus regions live on the integer grid [0, 100]² so that mbb lines
// of one region pass exactly through vertices and edges of the others.
std::vector<Region> DegenerateCorpus() {
  std::vector<Region> corpus;

  // [0] A 20×20 square; its mbb lines are the grid lines x,y ∈ {20, 40}.
  corpus.push_back(Region(
      Polygon({{20.0, 20.0}, {20.0, 40.0}, {40.0, 40.0}, {40.0, 20.0}})));

  // [1] A square sharing [0]'s east edge exactly: the common boundary
  // x = 40 lies ON both regions' mbb lines.
  corpus.push_back(Region(
      Polygon({{40.0, 20.0}, {40.0, 40.0}, {60.0, 40.0}, {60.0, 20.0}})));

  // [2] A square whose interior contains [0] entirely, with boundary on
  // grid lines: every [0] edge lies strictly inside, and [2]'s mbb lines
  // pass through [0]-adjacent grid coordinates.
  corpus.push_back(Region(
      Polygon({{0.0, 0.0}, {0.0, 100.0}, {100.0, 100.0}, {100.0, 0.0}})));

  // [3] A collinear run along y = 40 (three vertices on one line, so two
  // consecutive edges lie ON other regions' mbb line) — the pieces the
  // splitter must classify by interior side. (Duplicate consecutive
  // vertices fail Region::Validate, so they are exercised separately on
  // the unchecked path below.)
  corpus.push_back(Region(Polygon({{10.0, 40.0},
                                   {30.0, 40.0},
                                   {50.0, 40.0},
                                   {50.0, 60.0},
                                   {10.0, 60.0}})));

  // [4] A unit-thin horizontal sliver on y ∈ [39, 40]: its north edge is
  // [0]'s and [3]'s mbb line y = 40; its own mbb is one unit tall.
  corpus.push_back(Region(
      Polygon({{5.0, 39.0}, {5.0, 40.0}, {95.0, 40.0}, {95.0, 39.0}})));

  // [5] A unit-thin vertical sliver on x ∈ [20, 21] crossing [0]'s west
  // line and [4]'s band.
  corpus.push_back(Region(
      Polygon({{20.0, 5.0}, {20.0, 95.0}, {21.0, 95.0}, {21.0, 5.0}})));

  // [6] A concave plus-shape whose re-entrant corners sit exactly on
  // [0]'s mbb corners (20,20)/(40,40) and whose arms straddle the lines.
  corpus.push_back(Region(Polygon({{25.0, 10.0},
                                   {25.0, 20.0},
                                   {20.0, 20.0},
                                   {10.0, 20.0},
                                   {10.0, 35.0},
                                   {25.0, 35.0},
                                   {25.0, 50.0},
                                   {35.0, 50.0},
                                   {35.0, 35.0},
                                   {50.0, 35.0},
                                   {50.0, 20.0},
                                   {35.0, 20.0},
                                   {35.0, 10.0}})));

  // [7] A two-polygon region: one component equals [0] shifted to touch
  // the corpus frame corner, the other is a triangle with a vertex
  // exactly on [0]'s center column x = 30.
  corpus.push_back(Region({
      Polygon({{60.0, 60.0}, {60.0, 80.0}, {80.0, 80.0}, {80.0, 60.0}}),
      Polygon({{30.0, 70.0}, {45.0, 90.0}, {45.0, 70.0}}),
  }));

  for (Region& region : corpus) region.EnsureClockwise();
  return corpus;
}

// §3.2 refines §3.1: every tile with a strictly positive percentage must
// be a tile of the qualitative relation. (The converse can fail only for
// B, whose qualitative membership may come from a boundary-only contact.)
void ExpectQualContainsQuant(const CardinalRelation& qual,
                             const PercentageMatrix& matrix) {
  for (Tile t : kAllTiles) {
    if (matrix.at(t) > 0.0) {
      EXPECT_TRUE(qual.Includes(t))
          << "tile " << t << " holds " << matrix.at(t)
          << "% but is missing from " << qual.ToString();
    }
  }
}

TEST(DegenerateCorpusTest, EngineMatchesSerialOnTouchingGeometry) {
  const std::vector<Region> corpus = DegenerateCorpus();
  for (const Region& region : corpus) {
    ASSERT_TRUE(region.Validate().ok()) << "corpus region is invalid";
  }

  const std::vector<uint16_t> serial = SerialMasks(corpus);
  for (int threads : {1, 2, 8}) {
    EngineOptions options;
    options.threads = threads;
    EngineStats stats;
    auto store = ComputeRelationStore(corpus, options, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_EQ(store->pair_count(), serial.size());
    EXPECT_EQ(stats.prefiltered_pairs + stats.computed_pairs,
              stats.total_pairs);
    size_t k = 0;
    store->ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
      EXPECT_EQ(relation.mask(), serial[k])
          << "pair (" << i << ", " << j << "), " << threads << " threads";
      ++k;
    });
    EXPECT_EQ(k, serial.size());
  }
}

TEST(DegenerateCorpusTest, PercentPathsAgreeAndRefineQualitative) {
  const std::vector<Region> corpus = DegenerateCorpus();
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (size_t j = 0; j < corpus.size(); ++j) {
      if (i == j) continue;
      const Region& a = corpus[i];
      const Region& b = corpus[j];

      CdrScratch scratch;
      const CdrPercentComputation soa =
          ComputeCdrPercentUnchecked(a, b.BoundingBox(), &scratch);
      const CdrPercentComputation scalar = ComputeCdrPercentScalar(a, b);

      // The two float paths share the split core; only the accumulation
      // order differs, so per-tile areas agree to a few ulp of the area.
      const double tol = 1e-9 * std::max(1.0, a.Area());
      for (Tile t : kAllTiles) {
        const int ti = static_cast<int>(t);
        EXPECT_NEAR(soa.tile_areas[ti], scalar.tile_areas[ti], tol)
            << "pair (" << i << ", " << j << "), tile " << t;
      }
      EXPECT_NEAR(soa.total_area, a.Area(), tol)
          << "pair (" << i << ", " << j << ")";

      auto qual = ComputeCdr(a, b);
      ASSERT_TRUE(qual.ok()) << qual.status();
      ExpectQualContainsQuant(*qual, soa.matrix);
      ExpectQualContainsQuant(*qual, scalar.matrix);
    }
  }
}

TEST(DegenerateCorpusTest, DegenerateReferenceBands) {
  const std::vector<Region> corpus = DegenerateCorpus();
  // Zero-width, zero-height and point reference mbbs, placed so the
  // degenerate band cuts straight through corpus geometry (x = 30 is
  // [0]'s center column and a [7] triangle vertex; y = 40 carries [3]'s
  // collinear run and [4]'s north edge).
  const std::vector<Box> bands = {
      Box(30.0, 0.0, 30.0, 100.0),   // Zero width, full height.
      Box(0.0, 40.0, 100.0, 40.0),   // Zero height, full width.
      Box(20.0, 20.0, 20.0, 40.0),   // Zero width on [0]'s west line.
      Box(30.0, 30.0, 30.0, 30.0),   // A single point inside [0].
  };

  for (size_t i = 0; i < corpus.size(); ++i) {
    for (size_t band = 0; band < bands.size(); ++band) {
      const Box& mbb = bands[band];
      CdrMetricsDelta metrics;
      CdrScratch scratch;
      const CdrComputation qual =
          ComputeCdrUnchecked(corpus[i], mbb, &metrics, &scratch);
      const CdrPercentComputation quant =
          ComputeCdrPercentUnchecked(corpus[i], mbb, &scratch);

      // The division is area-preserving even against a degenerate band.
      const double tol = 1e-9 * std::max(1.0, corpus[i].Area());
      EXPECT_NEAR(quant.total_area, corpus[i].Area(), tol)
          << "region " << i << ", band " << band;
      ExpectQualContainsQuant(qual.relation, quant.matrix);

      // Splitting must produce a piece count in [edges, 5·edges] and be
      // identical between the two pipelines (shared split core).
      EXPECT_GE(qual.output_edges, qual.input_edges);
      EXPECT_LE(qual.output_edges, 5 * qual.input_edges);
    }
  }
}

TEST(DegenerateCorpusTest, DuplicateVerticesMatchDeduplicatedRegion) {
  // Duplicate consecutive vertices fail Validate, but the unchecked
  // pipelines must treat them as the region without the duplicates:
  // zero-length edges produce no lanes and no trapezoid terms.
  const Region with_dupes(Polygon({{10.0, 40.0},
                                   {10.0, 40.0},
                                   {30.0, 40.0},
                                   {50.0, 40.0},
                                   {50.0, 60.0},
                                   {50.0, 60.0},
                                   {10.0, 60.0}}));
  const Region without(Polygon(
      {{10.0, 40.0}, {30.0, 40.0}, {50.0, 40.0}, {50.0, 60.0}, {10.0, 60.0}}));
  ASSERT_TRUE(without.Validate().ok());

  const std::vector<Box> mbbs = {
      Box(20.0, 20.0, 40.0, 40.0),  // South line through the collinear run.
      Box(30.0, 45.0, 45.0, 55.0),  // Inside the region.
      Box(50.0, 40.0, 50.0, 60.0),  // Zero width on the east edge.
  };
  for (size_t m = 0; m < mbbs.size(); ++m) {
    CdrMetricsDelta metrics;
    CdrScratch scratch;
    const CdrComputation qual_dupes =
        ComputeCdrUnchecked(with_dupes, mbbs[m], &metrics, &scratch);
    const CdrComputation qual_clean =
        ComputeCdrUnchecked(without, mbbs[m], &metrics, &scratch);
    EXPECT_EQ(qual_dupes.relation.mask(), qual_clean.relation.mask())
        << "mbb " << m;
    EXPECT_EQ(qual_dupes.output_edges, qual_clean.output_edges) << "mbb " << m;

    const CdrPercentComputation pct_dupes =
        ComputeCdrPercentUnchecked(with_dupes, mbbs[m], &scratch);
    const CdrPercentComputation pct_clean =
        ComputeCdrPercentUnchecked(without, mbbs[m], &scratch);
    for (Tile t : kAllTiles) {
      const int ti = static_cast<int>(t);
      EXPECT_EQ(pct_dupes.tile_areas[ti], pct_clean.tile_areas[ti])
          << "mbb " << m << ", tile " << t;
    }
  }
}

}  // namespace
}  // namespace cardir
