// Struct-of-arrays sub-edge pipeline for the Compute-CDR hot path.
//
// The per-pair cost of a *crossing* pair (one the sweep join's interval
// kernel cannot resolve from boxes) is the §3.1 edge division plus per-piece
// tile classification. The AoS pipeline (core/edge_splitter.h) materialises
// a `ClassifiedEdge` struct per piece and classifies each piece with a
// branchy scalar cascade; this header is the batched alternative:
//
//  * `AppendSplitEdgesSoA` runs the shared split core
//    (core/edge_split_detail.h) over a polygon's edges and appends each
//    piece's endpoints into four contiguous double lanes (x0/y0/x1/y1) of a
//    reusable `EdgeSoA` scratch — no per-piece structs, one grow-only
//    capacity check per polygon;
//  * `ClassifySubEdgesSoA` then classifies every lane in two branch-free
//    passes (column, row) against the reference bands, the same arithmetic
//    select idiom as the engine's interval kernel, writing a 4-bit
//    `(column << 2) | row` code per lane. The passes carry the
//    interior-side tie-breaks of the scalar classifier (sub-edges lying
//    exactly ON an mbb line resolve by the ring direction), so the codes
//    are bit-identical to `ClassifySubEdge` on every piece the splitter
//    can emit;
//  * `SubEdgeCodeMasks()` maps codes to 9-bit CardinalRelation masks for
//    the qualitative OR-reduction; Compute-CDR% consumes the codes
//    directly for its per-tile trapezoid accumulation.
//
// The batched entry point is compiled with CARDIR_KERNEL_CLONES
// (util/target_clones.h): multi-versioned for AVX2 with ifunc dispatch on
// x86-64 GCC, compiled out under the sanitizers.

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

/// The tile at each code (Tile::kB for unreachable values — callers index
/// only with codes produced by ClassifySubEdgesSoA).
const std::array<Tile, kNumSubEdgeCodes>& SubEdgeCodeTiles();

/// Splits every edge of `polygon` at the `mbb` lines (shared split core, so
/// piece sets match core/edge_splitter.h exactly) and appends the pieces'
/// endpoints to `soa`'s lanes. Returns the number of lanes appended. Does
/// not classify — call ClassifySubEdgesSoA once per batch.
size_t AppendSplitEdgesSoA(const Polygon& polygon, const Box& mbb,
                           EdgeSoA* soa);

/// What AppendSplitClassifySoA appended: the lane count and the "codes
/// present" bitmap (OR of `1 << code` over the appended lanes).
struct SplitClassifyResult {
  size_t pieces = 0;
  uint16_t code_bitmap = 0;
};

/// Fused split + classify: appends `polygon`'s sub-edge lanes exactly like
/// AppendSplitEdgesSoA and fills their codes in the same pass, reusing the
/// edge extents the split precheck already computed (a non-crossing edge —
/// the majority even inside a crossing pair — is classified from the
/// min/max the straddle test needed anyway, so it never gets re-loaded by
/// a second pass). The hot loop is the same branch-free interval-class
/// arithmetic as ClassifySubEdgesSoA, with the identical on-line-tie /
/// residual-straddle fallback: such lanes trigger one exact scalar
/// re-classification of the appended range. This is the product hot path;
/// the standalone ClassifySubEdgesSoA kernel remains for callers that
/// stage lanes first (and as the differential anchor in tests).
SplitClassifyResult AppendSplitClassifySoA(const Polygon& polygon,
                                           const Box& mbb, EdgeSoA* soa);

/// Store-free variant for the qualitative path: identical piece walk and
/// classification as AppendSplitClassifySoA, but nothing is appended — the
/// per-lane endpoint/code stores are skipped entirely, since Compute-CDR
/// only folds the codes-present bitmap into a relation mask. On the rare
/// tie/straddle fallback the pieces are re-materialised into
/// `fallback_scratch` (cleared first; its lanes are scratch only, callers
/// must not rely on its contents) and re-classified through the exact
/// scalar cascade, so the bitmap is bit-identical to the appending variant
/// on every input.
SplitClassifyResult SplitClassifyBitmapSoA(const Polygon& polygon,
                                           const Box& mbb,
                                           EdgeSoA* fallback_scratch);

/// Classifies lanes [0, soa->count) against the bands of `mbb` (which must
/// be non-empty), writing each lane's code, and returns the "codes
/// present" bitmap (OR of `1 << code` over all lanes — the qualitative
/// path expands it through SubEdgeCodeMasks without re-touching the
/// lanes). Branch-free fused column/row kernel for the common case; lanes
/// lying exactly ON a band line (tie-broken by ring direction) or hitting
/// the defensive residual-straddle case fall back to the exact scalar
/// classification for the whole batch.
uint16_t ClassifySubEdgesSoA(EdgeSoA* soa, const Box& mbb);

}  // namespace cardir

#endif  // CARDIR_CORE_EDGE_SOA_H_
