// Shared core of the edge division at the reference mbb lines (paper §3.1):
// a header-only template that computes the proper crossings of one directed
// edge with the four mbb lines, snaps the split points exactly onto the
// lines they cross, and hands every non-degenerate piece to an emitter.
//
// Two users exist: the classic AoS API of core/edge_splitter.h (one
// `ClassifiedEdge` per piece, through ForEachSplitPiece) and the SoA walk
// of core/edge_soa.h, which runs its own straddle test inline and calls
// SplitStraddlingEdge only for an edge that crosses a line. Keeping the
// crossing / sorting / snapping logic in one template is what guarantees
// the two pipelines emit bit-identical piece sets — the SoA differential
// tests (tests/core/edge_soa_test.cc) then only have to pin the
// classification.

#ifndef CARDIR_CORE_EDGE_SPLIT_DETAIL_H_
#define CARDIR_CORE_EDGE_SPLIT_DETAIL_H_

#include <algorithm>
#include <array>

#include "geometry/box.h"

// Crossing parameters and snapped coordinates are compared exactly on
// purpose: coincident-crossing dedupe and degenerate-mbb guards operate
// on values computed from identical expressions, never on independently
// rounded results.
// cardir-analyzer: allow-file(float-eq): exact dedupe/degeneracy guards on identically-computed values
#include "geometry/segment.h"

namespace cardir {
namespace edge_split_detail {

// Which mbb line a crossing parameter came from (for coordinate snapping).
enum class CrossedLine { kWest, kEast, kSouth, kNorth };

struct Crossing {
  double t;
  CrossedLine line;
};

/// Splits an edge known to strictly straddle at least one mbb line (the
/// per-line straddle flags are the caller's, so a fused caller that already
/// computed the edge extent pays for them once) and calls
/// `emit(start, end)` for every non-degenerate piece in traversal order.
/// Returns the number of pieces emitted (≥ 2 would be expected, but corner
/// crossings can merge; ≤ 5: at most 4 crossing points).
template <typename Emit>
int SplitStraddlingEdge(const Segment& edge, const Box& mbb,
                        unsigned straddle_w, unsigned straddle_e,
                        unsigned straddle_s, unsigned straddle_n,
                        Emit&& emit) {
  // Parameters in (0,1) of proper crossings with the four mbb lines. A
  // straddling extent guarantees a non-zero delta along that axis, so t is
  // the plain proper-crossing parameter of CrossVerticalLine /
  // CrossHorizontalLine without the optional wrapper. A degenerate band
  // (max == min) straddles both of its lines with the same parameter; the
  // east/north twins are skipped so the crossing is recorded once.
  std::array<Crossing, 4> crossings;
  int crossing_count = 0;
  auto add = [&crossings, &crossing_count](double t, CrossedLine line) {
    crossings[static_cast<size_t>(crossing_count++)] = Crossing{t, line};
  };
  if (straddle_w != 0) {
    add((mbb.min_x() - edge.a.x) / (edge.b.x - edge.a.x), CrossedLine::kWest);
  }
  if (straddle_e != 0 && mbb.max_x() != mbb.min_x()) {
    add((mbb.max_x() - edge.a.x) / (edge.b.x - edge.a.x), CrossedLine::kEast);
  }
  if (straddle_s != 0) {
    add((mbb.min_y() - edge.a.y) / (edge.b.y - edge.a.y), CrossedLine::kSouth);
  }
  if (straddle_n != 0 && mbb.max_y() != mbb.min_y()) {
    add((mbb.max_y() - edge.a.y) / (edge.b.y - edge.a.y), CrossedLine::kNorth);
  }
  // Insertion sort: at most 4 elements, and gcc 12's std::sort trips a
  // -Warray-bounds false positive on partial std::array ranges.
  for (int i = 1; i < crossing_count; ++i) {
    const Crossing key = crossings[static_cast<size_t>(i)];
    int j = i - 1;
    while (j >= 0 && crossings[static_cast<size_t>(j)].t > key.t) {
      crossings[static_cast<size_t>(j + 1)] = crossings[static_cast<size_t>(j)];
      --j;
    }
    crossings[static_cast<size_t>(j + 1)] = key;
  }

  // Snap each split point's coordinate exactly onto the line(s) it crosses,
  // so sub-edge extents compare exactly against the mbb bounds.
  auto snapped_point = [&](int index) {
    Point p = edge.At(crossings[static_cast<size_t>(index)].t);
    const double t = crossings[static_cast<size_t>(index)].t;
    for (int j = 0; j < crossing_count; ++j) {
      if (crossings[static_cast<size_t>(j)].t != t) continue;
      switch (crossings[static_cast<size_t>(j)].line) {
        case CrossedLine::kWest: p.x = mbb.min_x(); break;
        case CrossedLine::kEast: p.x = mbb.max_x(); break;
        case CrossedLine::kSouth: p.y = mbb.min_y(); break;
        case CrossedLine::kNorth: p.y = mbb.max_y(); break;
      }
    }
    return p;
  };

  int emitted = 0;
  Point start = edge.a;
  double prev_t = 0.0;
  for (int i = 0; i <= crossing_count; ++i) {
    Point end;
    if (i == crossing_count) {
      end = edge.b;
    } else {
      const double t = crossings[static_cast<size_t>(i)].t;
      if (t == prev_t && i > 0) continue;  // Coincident crossing (corner).
      end = snapped_point(i);
      prev_t = t;
    }
    if (!(start == end)) {
      emit(start, end);
      ++emitted;
    }
    start = end;
  }
  return emitted;
}

/// Splits `edge` at its proper crossings with the four lines of `mbb` and
/// calls `emit(start, end)` for every non-degenerate piece, in traversal
/// order. Degenerate (zero-length) input edges emit nothing. Returns the
/// number of pieces emitted (≤ 5: at most 4 crossing points).
template <typename Emit>
int ForEachSplitPiece(const Segment& edge, const Box& mbb, Emit&& emit) {
  if (edge.IsDegenerate()) return 0;

  // Strict-straddle flags against the four mbb lines, computed branch-free
  // (crossing-pair edges are a ~30/70 mix, so a short-circuit chain here
  // mispredicts constantly). An edge whose extent does not strictly
  // straddle any line cannot properly cross one (a proper crossing requires
  // endpoints strictly on opposite sides), so it is a single piece — the
  // fast path skips the divisions, the sort and the snapping for the
  // majority even of a crossing pair's edges.
  const double xlo = std::min(edge.a.x, edge.b.x);
  const double xhi = std::max(edge.a.x, edge.b.x);
  const double ylo = std::min(edge.a.y, edge.b.y);
  const double yhi = std::max(edge.a.y, edge.b.y);
  const unsigned straddle_w = static_cast<unsigned>(xlo < mbb.min_x()) &
                              static_cast<unsigned>(mbb.min_x() < xhi);
  const unsigned straddle_e = static_cast<unsigned>(xlo < mbb.max_x()) &
                              static_cast<unsigned>(mbb.max_x() < xhi);
  const unsigned straddle_s = static_cast<unsigned>(ylo < mbb.min_y()) &
                              static_cast<unsigned>(mbb.min_y() < yhi);
  const unsigned straddle_n = static_cast<unsigned>(ylo < mbb.max_y()) &
                              static_cast<unsigned>(mbb.max_y() < yhi);
  if ((straddle_w | straddle_e | straddle_s | straddle_n) == 0) {
    emit(edge.a, edge.b);
    return 1;
  }
  return SplitStraddlingEdge(edge, mbb, straddle_w, straddle_e, straddle_s,
                             straddle_n, emit);
}

}  // namespace edge_split_detail
}  // namespace cardir

#endif  // CARDIR_CORE_EDGE_SPLIT_DETAIL_H_
