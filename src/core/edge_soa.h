// Struct-of-arrays sub-edge pipeline for the Compute-CDR hot path.
//
// The per-pair cost of a *crossing* pair (one the sweep join's interval
// kernel cannot resolve from boxes) is the §3.1 edge division plus per-piece
// tile classification. The AoS pipeline (core/edge_splitter.h) materialises
// a `ClassifiedEdge` struct per piece and classifies each piece with a
// branchy scalar cascade; it stays as the reference. This header is the
// product path: one walk over a polygon's edges that splits each edge at
// the mbb lines (the shared split core of core/edge_split_detail.h, so
// piece sets match the AoS pipeline exactly) and classifies every piece in
// the same pass, branch-free on both axes, into a 4-bit
// `(column << 2) | row` code. Pieces lying exactly ON an mbb line (tie-
// broken by the ring direction) send the polygon through the exact scalar
// cascade, so the codes are bit-identical to `ClassifySubEdge` on every
// piece the splitter can emit. The walk has two entry points:
//
//  * `AppendSplitClassifySoA` appends each piece's endpoints and code to
//    four contiguous double lanes (x0/y0/x1/y1) and a code lane of a
//    reusable `EdgeSoA` scratch — Compute-CDR% accumulates its per-tile
//    trapezoids from them;
//  * `SplitClassifyBitmapSoA` stores nothing and returns only the "codes
//    present" bitmap, which Compute-CDR folds through `SubEdgeCodeMasks()`
//    into a 9-bit CardinalRelation mask.

#ifndef CARDIR_CORE_EDGE_SOA_H_
#define CARDIR_CORE_EDGE_SOA_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/tile.h"
#include "geometry/box.h"
#include "geometry/polygon.h"

namespace cardir {

/// Reusable struct-of-arrays sub-edge scratch. Lanes are parallel arrays;
/// `count` is the number of live lanes (the vectors are capacity, not
/// size-authoritative — `Clear` keeps the allocations). One EdgeSoA per
/// worker thread amortises the buffers across every pair the worker
/// computes (the sweep join's emit strips hand one through
/// `SweepScratch`/`CdrScratch`).
struct EdgeSoA {
  EdgeSoA() = default;
  // Move-only: the lane buffers are charged to the mem.edge_soa telemetry
  // arena on growth and released in the destructor, so a copy would
  // double-count. Moves leave the source's vectors empty (libstdc++
  // guarantees this for the default allocator), so the moved-from
  // destructor releases zero bytes — accounting stays balanced.
  EdgeSoA(EdgeSoA&&) = default;
  EdgeSoA& operator=(EdgeSoA&&) = default;
  EdgeSoA(const EdgeSoA&) = delete;
  EdgeSoA& operator=(const EdgeSoA&) = delete;
  ~EdgeSoA();

  std::vector<double> x0, y0, x1, y1;  ///< Piece endpoints, directed a→b.
  std::vector<uint8_t> code;           ///< (column << 2) | row per lane.
  size_t count = 0;

  void Clear() { count = 0; }

  /// Grow-only: ensures every lane array can hold at least `lanes` entries.
  void EnsureCapacity(size_t lanes);

  /// Bytes held by the five lane arrays (size == capacity under the
  /// grow-only doubling policy; this is what the mem.edge_soa gauges see).
  size_t LaneBytes() const {
    return x0.size() * (4 * sizeof(double) + sizeof(uint8_t));
  }
};

/// Packs a column/row pair into the 4-bit sub-edge code. Same layout as the
/// engine's interval-kernel class-pair codes (x class high, y class low).
inline constexpr uint8_t SubEdgeCode(TileColumn column, TileRow row) {
  return static_cast<uint8_t>((static_cast<int>(column) << 2) |
                              static_cast<int>(row));
}

inline constexpr uint8_t kNumSubEdgeCodes = 16;

/// 9-bit CardinalRelation mask of the tile at each code (0 for the six
/// unreachable code values). Built from core/tile.h's TileAt as a constexpr
/// table and proven against it by static_assert in edge_soa.cc — a
/// table/TileAt divergence is a build break.
const std::array<uint16_t, kNumSubEdgeCodes>& SubEdgeCodeMasks();

/// What one walk over a polygon found: the piece count and the "codes
/// present" bitmap (OR of `1 << code` over the pieces).
struct SplitClassifyResult {
  size_t pieces = 0;
  uint16_t code_bitmap = 0;
};

/// Splits every edge of `polygon` at the lines of `mbb` (non-empty) and
/// appends each piece's endpoints and code to `soa`'s lanes, after its
/// `count` live ones. Returns the appended lane count and their bitmap.
SplitClassifyResult AppendSplitClassifySoA(const Polygon& polygon,
                                           const Box& mbb, EdgeSoA* soa);

/// The same walk with nothing appended: Compute-CDR needs only the bitmap,
/// so no lane or code is stored. Only when a piece lies exactly ON a line
/// (or straddles one after rounding) are the pieces materialised into
/// `fallback_scratch` (cleared first; callers must not rely on its
/// contents) and re-classified through the exact scalar cascade, so the
/// count and bitmap equal AppendSplitClassifySoA's on every input.
SplitClassifyResult SplitClassifyBitmapSoA(const Polygon& polygon,
                                           const Box& mbb,
                                           EdgeSoA* fallback_scratch);

}  // namespace cardir

#endif  // CARDIR_CORE_EDGE_SOA_H_
