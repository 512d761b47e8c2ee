// Differential property tests of the interval-classification kernel
// (ClassPairCode + the class-pair table, the code the relation store, the
// sweep join and the delta engine run) against its two oracles: the
// per-pair MBB prefilter (engine/prefilter.h) and the full Compute-CDR on
// rectangle regions. The layouts are adversarial by construction — every
// ordered pair over a coordinate grid that includes touching boundaries,
// shared corners, zero-width/zero-height boxes and identical boxes —
// because those are exactly the cases where inclusive band semantics and
// the degenerate-box override could diverge from the oracle.

#include "engine/interval_kernel.h"

#include <optional>
#include <vector>

#include "core/compute_cdr.h"
#include "core/tile.h"
#include "engine/prefilter.h"
#include "geometry/polygon.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "reasoning/disjunctive_relation.h"
#include "reasoning/interval_algebra.h"

namespace cardir {
namespace {

// Every interval [a, b] (a <= b; a == b gives zero-width/height extents)
// over a coordinate set that hits the reference lines of every other box
// exactly, plus strictly-inside / outside / straddling positions.
std::vector<Box> AdversarialBoxes() {
  const double coords[] = {5, 10, 15, 20, 25};
  std::vector<Box> boxes;
  for (double ax : coords) {
    for (double bx : coords) {
      if (bx < ax) continue;
      for (double ay : coords) {
        for (double by : coords) {
          if (by < ay) continue;
          boxes.emplace_back(ax, ay, bx, by);
        }
      }
    }
  }
  return boxes;
}

TEST(IntervalKernelTest, StartupValidationPasses) {
  const Status status = ValidateClassKernelOnce();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(IntervalKernelTest, TableIsTileAtForResolvableCodesElseEmpty) {
  const auto& table = ClassPairRelationTable();
  const auto& relations = ClassPairRelations();
  for (uint8_t xc = 0; xc < 4; ++xc) {
    for (uint8_t yc = 0; yc < 4; ++yc) {
      const uint8_t code = static_cast<uint8_t>((xc << 2) | yc);
      if (xc == 3 || yc == 3) {
        EXPECT_EQ(table[code], 0u) << "code " << int(code);
        EXPECT_TRUE(relations[code].IsEmpty()) << "code " << int(code);
      } else {
        const Tile tile = TileAt(static_cast<TileColumn>(xc),
                                 static_cast<TileRow>(yc));
        EXPECT_EQ(table[code], CardinalRelation(tile).mask())
            << "code " << int(code);
        EXPECT_EQ(relations[code], CardinalRelation(tile))
            << "code " << int(code);
      }
    }
  }
}

// The accept mask is the relation's membership test over the 16 class
// codes: for every singleton of the 511 basic relations, the empty and the
// universal relation and mixed disjunctions, bit `code` equals
// Contains(ClassPairRelations()[code]), and no kCross code is accepted.
TEST(IntervalKernelTest, AcceptMaskBitIsMembershipOfTheCodesRelation) {
  std::vector<DisjunctiveRelation> relations = {
      DisjunctiveRelation(), DisjunctiveRelation::Universal(),
      *DisjunctiveRelation::Parse("{N, NE, E, N:NE, NE:E}"),
      *DisjunctiveRelation::Parse("{B, B:N, NW:N:NE, SW}"),
      *DisjunctiveRelation::Parse("{B:S:SW:W, N:NE}")};
  for (uint16_t mask = 1; mask < 512; ++mask) {
    relations.emplace_back(CardinalRelation::FromMask(mask));
  }
  const auto& code_relations = ClassPairRelations();
  for (const DisjunctiveRelation& relation : relations) {
    const uint16_t accept = ClassCodeAcceptMask(relation);
    for (uint8_t code = 0; code < kNumClassPairCodes; ++code) {
      EXPECT_EQ(AcceptsClassCode(accept, code),
                relation.Contains(code_relations[code]))
          << relation << " code " << int(code);
      if ((code >> 2) == 3 || (code & 3) == 3) {
        EXPECT_FALSE(AcceptsClassCode(accept, code))
            << relation << " accepts kCross code " << int(code);
      }
    }
  }
  // The nine tiles' singletons each accept exactly their own code.
  for (uint8_t xc = 0; xc < 3; ++xc) {
    for (uint8_t yc = 0; yc < 3; ++yc) {
      const Tile tile =
          TileAt(static_cast<TileColumn>(xc), static_cast<TileRow>(yc));
      EXPECT_EQ(ClassCodeAcceptMask(DisjunctiveRelation(CardinalRelation(tile))),
                1u << ((xc << 2) | yc));
    }
  }
}

// ClassPairCode must agree with MbbPrefilterRelation on every ordered pair
// of adversarial boxes, degenerate ones included: same resolvable set, same
// relation. For non-degenerate pairs the non-resolvable set must be exactly
// the properly-crossing set (the sweep's crossing statistic falls out of
// the class codes).
TEST(IntervalKernelTest, EveryOrderedPairMatchesPrefilterOracle) {
  const std::vector<Box> boxes = AdversarialBoxes();
  const RegionProfile profile = RegionProfile::FromBoxes(boxes);
  const auto& table = ClassPairRelationTable();
  for (size_t r = 0; r < boxes.size(); ++r) {
    const Box& reference = boxes[r];
    for (size_t p = 0; p < boxes.size(); ++p) {
      const Box& primary = boxes[p];
      const std::optional<CardinalRelation> oracle =
          MbbPrefilterRelation(primary, reference);
      const uint16_t mask = table[ClassPairCode(profile, p, r)];
      ASSERT_EQ(oracle.has_value(), mask != 0)
          << "primary #" << p << " reference #" << r;
      if (oracle.has_value()) {
        ASSERT_EQ(oracle->mask(), mask)
            << "primary #" << p << " reference #" << r;
      }
      if (!primary.IsDegenerate() && !reference.IsDegenerate()) {
        ASSERT_EQ(mask == 0,
                  MbbProperlyCrossesReferenceLines(primary, reference))
            << "crossing fallout, primary #" << p << " reference #" << r;
      }
    }
  }
}

// Every pair the kernel resolves must agree with the full algorithm run on
// the boxes as rectangle regions — including identical boxes (B relation)
// and boxes that touch along an edge or share only a corner.
TEST(IntervalKernelTest, ResolvedPairsMatchComputeCdrOnRectangles) {
  const std::vector<Box> boxes = AdversarialBoxes();
  const RegionProfile profile = RegionProfile::FromBoxes(boxes);
  const auto& relations = ClassPairRelations();
  size_t resolved = 0;
  for (size_t p = 0; p < boxes.size(); ++p) {
    const Box& primary = boxes[p];
    if (primary.IsEmpty() || primary.IsDegenerate()) continue;
    const Region primary_region(
        MakeRectangle(primary.min_x(), primary.min_y(), primary.max_x(),
                      primary.max_y()));
    for (size_t r = 0; r < boxes.size(); ++r) {
      const CardinalRelation relation =
          relations[ClassPairCode(profile, p, r)];
      if (relation.IsEmpty()) continue;
      const Box& reference = boxes[r];
      const Region reference_region(
          MakeRectangle(reference.min_x(), reference.min_y(),
                        reference.max_x(), reference.max_y()));
      const auto exact = ComputeCdr(primary_region, reference_region);
      ASSERT_TRUE(exact.ok()) << exact.status();
      ASSERT_EQ(relation, *exact)
          << "primary #" << p << " reference #" << r << ": kernel "
          << relation.ToString() << " vs Compute-CDR " << exact->ToString();
      ++resolved;
    }
  }
  // The grid must actually exercise the resolvable side (identical boxes,
  // touching boxes and corner-sharing boxes are all in it).
  EXPECT_GT(resolved, 1000u);
}

// A degenerate box forces both axes to kCross whichever side of the pair
// it is on.
TEST(IntervalKernelTest, DegenerateBoxesAlwaysDefer) {
  const std::vector<Box> boxes = {Box(10, 10, 10, 18),   // Zero width.
                                  Box(10, 10, 18, 10),   // Zero height.
                                  Box(12, 12, 12, 12),   // A point.
                                  Box(10, 10, 20, 20)};  // The reference.
  const RegionProfile profile = RegionProfile::FromBoxes(boxes);
  const auto& table = ClassPairRelationTable();
  const size_t ref = boxes.size() - 1;
  for (size_t i = 0; i < ref; ++i) {
    EXPECT_EQ(ClassPairCode(profile, i, ref), 0x0f) << "box #" << i;
    EXPECT_EQ(ClassPairCode(profile, ref, i), 0x0f) << "box #" << i;
    EXPECT_EQ(table[ClassPairCode(profile, i, ref)], 0u) << "box #" << i;
  }
}

// The scalar classifier and the Allen coarsening are two routes to the same
// interval class on non-degenerate input.
TEST(IntervalKernelTest, AllenBridgeAgreesWithScalarClassifier) {
  const double coords[] = {0, 4, 8, 10, 14, 20, 22, 26};
  const double m1 = 8, m2 = 20;
  for (double lo : coords) {
    for (double hi : coords) {
      if (hi <= lo) continue;  // Allen classification needs lo < hi.
      const IntervalClass scalar = ClassifyIntervalClass(lo, hi, m1, m2);
      const IntervalClass allen =
          IntervalClassOfAllen(ClassifyIntervals(lo, hi, m1, m2));
      EXPECT_EQ(scalar, allen) << "[" << lo << ", " << hi << "]";
    }
  }
}

TEST(IntervalKernelTest, AllenBlocksCoarsenAsDocumented) {
  EXPECT_EQ(IntervalClassOfAllen(AllenRelation::kBefore), IntervalClass::kLow);
  EXPECT_EQ(IntervalClassOfAllen(AllenRelation::kMeets), IntervalClass::kLow);
  EXPECT_EQ(IntervalClassOfAllen(AllenRelation::kDuring), IntervalClass::kMid);
  EXPECT_EQ(IntervalClassOfAllen(AllenRelation::kStarts), IntervalClass::kMid);
  EXPECT_EQ(IntervalClassOfAllen(AllenRelation::kFinishes),
            IntervalClass::kMid);
  EXPECT_EQ(IntervalClassOfAllen(AllenRelation::kEquals), IntervalClass::kMid);
  EXPECT_EQ(IntervalClassOfAllen(AllenRelation::kMetBy), IntervalClass::kHigh);
  EXPECT_EQ(IntervalClassOfAllen(AllenRelation::kAfter), IntervalClass::kHigh);
  for (AllenRelation r :
       {AllenRelation::kOverlaps, AllenRelation::kFinishedBy,
        AllenRelation::kContains, AllenRelation::kStartedBy,
        AllenRelation::kOverlappedBy}) {
    EXPECT_EQ(IntervalClassOfAllen(r), IntervalClass::kCross);
  }
}

}  // namespace
}  // namespace cardir
