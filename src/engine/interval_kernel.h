// Interval-classification kernel: resolves a pair of bounding boxes to its
// cardinal direction relation in O(1), or flags it for the full algorithm.
//
// The paper's §4 observation: the cardinal direction relation between two
// bounding boxes factors into two independent 1-D interval relations — the
// x-projections and the y-projections. Each axis of a primary's mbb is
// classified against the two reference lines of that axis into one of four
// *interval classes*
//
//   kLow   — entirely on the low side   (hi <= m1;  West resp. South)
//   kMid   — inside the band            (m1 <= lo and hi <= m2)
//   kHigh  — entirely on the high side  (lo >= m2;  East resp. North)
//   kCross — properly straddles a line  (not box-resolvable)
//
// with the same inclusive boundary semantics as engine/prefilter.h, so a
// (x class, y class) pair with neither class kCross determines the 9-tile
// relation by table lookup — `ClassPairRelationTable()[code]` — and a pair
// with a kCross class is exactly a pair whose mbb properly crosses a
// reference line (or involves a degenerate box).
//
// `ClassPairCode` is the one place that arithmetic lives: the relation
// store's implicit reads, the sweep join's candidate filter and the delta
// engine's dirty-pair resolution all call it. The class-pair table is
// proven against core/tile.h's TileAt at compile time (static_assert in
// interval_kernel.cc); `ValidateClassKernelOnce` cross-checks
// `ClassPairCode` against `MbbPrefilterRelation` at runtime (audit builds
// and tests); `IntervalClassOfAllen` bridges the classes to the Allen
// interval algebra of reasoning/interval_algebra.h (each class is a
// coarsening of a block of Allen relations).

#ifndef CARDIR_ENGINE_INTERVAL_KERNEL_H_
#define CARDIR_ENGINE_INTERVAL_KERNEL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cardinal_relation.h"
#include "geometry/box.h"
#include "reasoning/disjunctive_relation.h"
#include "reasoning/interval_algebra.h"
#include "util/status.h"

namespace cardir {

/// Position of a primary interval relative to the reference band [m1, m2].
enum class IntervalClass : uint8_t {
  kLow = 0,    ///< hi <= m1 — West (x axis) / South (y axis).
  kMid = 1,    ///< m1 <= lo and hi <= m2 — the middle band.
  kHigh = 2,   ///< lo >= m2 — East (x axis) / North (y axis).
  kCross = 3,  ///< Properly straddles m1 or m2 (or degenerate input).
};

/// Struct-of-arrays bounding-box profile of a set of regions (one
/// contiguous double array per bound). `cross_override[i]` is 0b1111 when
/// box i is empty or degenerate (zero width/height) — OR-ing it into the
/// class code forces both axes to kCross, routing the pair to the full
/// algorithm, the same bail-out MbbPrefilterRelation takes.
struct RegionProfile {
  std::vector<double> min_x, max_x, min_y, max_y;
  std::vector<uint8_t> cross_override;

  size_t size() const { return min_x.size(); }
  Box box(size_t i) const {
    return Box(min_x[i], min_y[i], max_x[i], max_y[i]);
  }

  static RegionProfile FromBoxes(const std::vector<Box>& boxes);
};

/// Packs two axis classes into a 4-bit code: (x class << 2) | y class.
inline constexpr uint8_t kNumClassPairCodes = 16;

/// Relation-mask lookup by class-pair code: the 9-bit CardinalRelation mask
/// of the single tile at (column = x class, row = y class), or 0 when either
/// class is kCross (pair not box-resolvable). Built from core/tile.h's
/// TileAt as a constexpr table, never transcribed by hand, and proven
/// against TileAt in both orientations by static_assert (see the
/// compile-time table proof in interval_kernel.cc) — divergence is a build
/// break, not a startup abort.
const std::array<uint16_t, kNumClassPairCodes>& ClassPairRelationTable();

/// The same table as ready-made CardinalRelation values (the empty relation
/// — IsEmpty() — for non-resolvable codes), so hot loops return table
/// entries directly instead of re-checking the mask through
/// CardinalRelation::FromMask per pair.
const std::array<CardinalRelation, kNumClassPairCodes>& ClassPairRelations();

/// Classifies one axis extent [lo, hi] against the band [m1, m2].
/// Degenerate extents (lo == hi) and degenerate bands (m1 == m2) are the
/// caller's problem — ClassPairCode masks them with `cross_override`.
inline IntervalClass ClassifyIntervalClass(double lo, double hi, double m1,
                                           double m2) {
  if (hi <= m1) return IntervalClass::kLow;
  if (lo >= m2) return IntervalClass::kHigh;
  if (lo >= m1 && hi <= m2) return IntervalClass::kMid;
  return IntervalClass::kCross;
}

/// The class-pair code of profiled boxes (primary i, reference j):
/// (x class << 2) | y class, with both boxes' degenerate overrides OR-ed
/// in. `ClassPairRelations()[code]` is the pair's relation whenever the
/// code is resolvable (no kCross axis).
inline uint8_t ClassPairCode(const RegionProfile& profile, size_t i,
                             size_t j) {
  const uint8_t cx = static_cast<uint8_t>(
      ClassifyIntervalClass(profile.min_x[i], profile.max_x[i],
                            profile.min_x[j], profile.max_x[j]));
  const uint8_t cy = static_cast<uint8_t>(
      ClassifyIntervalClass(profile.min_y[i], profile.max_y[i],
                            profile.min_y[j], profile.max_y[j]));
  return static_cast<uint8_t>(static_cast<uint8_t>(cx << 2 | cy) |
                              profile.cross_override[i] |
                              profile.cross_override[j]);
}

/// A direction atom `x R y` compiled against class-pair codes: bit c is set
/// iff code c is resolvable and `relation` contains ClassPairRelations()[c].
/// A pair whose code is resolvable then satisfies the atom iff its bit is
/// set; kCross codes are never accepted, their pairs need the relation.
uint16_t ClassCodeAcceptMask(const DisjunctiveRelation& relation);

/// Whether `accept` (a ClassCodeAcceptMask) accepts class-pair code `code`.
inline bool AcceptsClassCode(uint16_t accept, uint8_t code) {
  return ((accept >> code) & 1u) != 0;
}

/// The interval class that Allen relation `r` between a primary interval
/// and the reference band coarsens to: {before, meets} → kLow, {during,
/// starts, finishes, equals} → kMid, {metBy, after} → kHigh, and the five
/// relations straddling an endpoint (overlaps, finishedBy, contains,
/// startedBy, overlappedBy) → kCross.
IntervalClass IntervalClassOfAllen(AllenRelation r);

/// Cross-checks ClassPairCode + the relation table against
/// MbbPrefilterRelation over a grid of box pairs, including touching,
/// corner-sharing, nested, identical and degenerate boxes, and checks the
/// Allen coarsening on the non-degenerate pairs. Runs the grid once per
/// process (subsequent calls return the cached status). The sweep join
/// runs it only in audit builds (CARDIR_AUDIT=ON); tests call it directly.
Status ValidateClassKernelOnce();

}  // namespace cardir

#endif  // CARDIR_ENGINE_INTERVAL_KERNEL_H_
