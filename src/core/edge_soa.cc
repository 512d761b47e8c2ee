#include "core/edge_soa.h"

#include <algorithm>

#include "core/edge_split_detail.h"
#include "core/edge_splitter.h"
#include "geometry/segment.h"
#include "obs/memstats.h"
#include "util/logging.h"

namespace cardir {
namespace {

constexpr std::array<uint16_t, kNumSubEdgeCodes> BuildSubEdgeCodeMasks() {
  std::array<uint16_t, kNumSubEdgeCodes> masks{};
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 3; ++r) {
      const Tile tile =
          TileAt(static_cast<TileColumn>(c), static_cast<TileRow>(r));
      masks[SubEdgeCode(static_cast<TileColumn>(c), static_cast<TileRow>(r))] =
          static_cast<uint16_t>(1u << static_cast<int>(tile));
    }
  }
  return masks;
}

constexpr std::array<uint16_t, kNumSubEdgeCodes> kSubEdgeCodeMasks =
    BuildSubEdgeCodeMasks();

// Compile-time proof over all 16 sub-edge codes, both orientations:
// forward, every reachable (column << 2) | row code carries exactly the
// single-tile mask of TileAt(column, row), and the six unreachable code
// values carry mask 0; backward, every tile's own column/row — the pair
// the scalar classifier produces — packs to a code whose mask is that
// tile's bit. A divergence between this table and core/tile.h's grid is a
// build break, not a startup abort (ctest's differential tests remain as
// the runtime cross-check of the *classifiers* that produce the codes).
constexpr bool SubEdgeMasksAgreeWithTileAt() {
  bool reachable[kNumSubEdgeCodes] = {};
  for (int c = 0; c < 3; ++c) {
    for (int r = 0; r < 3; ++r) {
      const Tile tile =
          TileAt(static_cast<TileColumn>(c), static_cast<TileRow>(r));
      const uint8_t code =
          SubEdgeCode(static_cast<TileColumn>(c), static_cast<TileRow>(r));
      reachable[code] = true;
      if (kSubEdgeCodeMasks[code] !=
          static_cast<uint16_t>(1u << static_cast<int>(tile))) {
        return false;
      }
    }
  }
  for (int code = 0; code < kNumSubEdgeCodes; ++code) {
    if (!reachable[code] && kSubEdgeCodeMasks[code] != 0) return false;
  }
  for (Tile tile : kAllTiles) {
    const uint8_t code = SubEdgeCode(ColumnOf(tile), RowOf(tile));
    if (kSubEdgeCodeMasks[code] !=
        static_cast<uint16_t>(1u << static_cast<int>(tile))) {
      return false;
    }
  }
  return true;
}
static_assert(SubEdgeMasksAgreeWithTileAt(),
              "core/edge_soa: sub-edge code masks disagree with "
              "core/tile.h's TileAt");

// Branch-free classification of one lane along one axis. Returns the axis
// class (0 = low/west/south, 1 = middle, 2 = high/east/north) assuming the
// lane is NOT exactly on a band line, and ORs a fallback flag into *odd
// when that assumption fails:
//
//  * a tie — the lane lies exactly ON a line (lo==hi==m1 or m2, or the
//    band is degenerate), where the scalar classifier breaks towards the
//    polygon's interior side using the ring direction;
//  * a residual floating-point straddle (none of low/mid/high holds),
//    which the scalar cascade resolves by the larger part.
//
// Both are measure-zero for random workloads and the second is outright
// unreachable for splitter output (split points are snapped exactly onto
// the lines), so the walk keeps the hot lane to three compares and a
// handful of integer ops and its caller re-classifies the polygon's pieces
// through the exact scalar cascade when *odd comes back non-zero. That
// trades a rare O(n) scalar pass for dropping the tie-break arithmetic —
// and the cross-axis direction loads it needs — from every hot lane.
inline unsigned ClassifyAxisLane(double lo, double hi, double m1, double m2,
                                 unsigned* odd) {
  const unsigned low = static_cast<unsigned>(hi <= m1);
  const unsigned high = static_cast<unsigned>(lo >= m2);
  const unsigned mid = static_cast<unsigned>(lo >= m1) &
                       static_cast<unsigned>(hi <= m2);
  // Tie: two predicates hold at once. Straddle: none does.
  *odd |= (mid & (low | high)) | (low & high) | (1u - (low | high | mid));
  return 2u * high + mid;
}

// Exact scalar re-classification of lanes [begin, soa->count): the
// fallback for a polygon with a lane exactly ON a band line (tie, broken
// towards the polygon's interior side by the ring direction) or hitting
// the defensive residual-straddle case. Returns the codes-present bitmap
// of the range.
uint16_t ReclassifyScalarRange(EdgeSoA* soa, const Box& mbb, size_t begin) {
  uint16_t bitmap = 0;
  for (size_t i = begin; i < soa->count; ++i) {
    const Segment piece(Point{soa->x0[i], soa->y0[i]},
                        Point{soa->x1[i], soa->y1[i]});
    const Tile tile = ClassifySubEdge(piece, mbb);
    const uint8_t code = SubEdgeCode(ColumnOf(tile), RowOf(tile));
    soa->code[i] = code;
    bitmap = static_cast<uint16_t>(bitmap | (1u << code));
  }
  return bitmap;
}

// What one walk over a polygon's edges found. `odd` is non-zero when a
// piece tied or straddled, so `bitmap` (and the appended codes) need the
// exact scalar pass.
struct Walk {
  size_t pieces;
  unsigned bitmap;
  unsigned odd;
};

// The one split-and-classify walk (paper §3.1): splits each edge of
// `polygon` at the `mbb` lines with the shared split core and classifies
// every piece with ClassifyAxisLane on both axes. A non-straddling edge —
// the majority even inside a crossing pair — is one piece, classified
// inline (the compiler shares its min/max with the straddle test); only a
// straddling edge calls out, to SplitStraddlingEdge. With kAppend the
// pieces' endpoints and codes are appended to `soa`'s lanes; without it
// `soa` is not touched (callers pass null) and only the count and the
// bitmap come back.
template <bool kAppend>
Walk SplitClassify(const Polygon& polygon, const Box& mbb, EdgeSoA* soa) {
  const size_t n = polygon.size();
  double* x0 = nullptr;
  double* y0 = nullptr;
  double* x1 = nullptr;
  double* y1 = nullptr;
  uint8_t* codes = nullptr;
  size_t begin = 0;
  if constexpr (kAppend) {
    // At most 5 pieces per edge (4 crossing points), so one grow covers
    // the whole polygon and the walk writes through raw pointers.
    soa->EnsureCapacity(soa->count + 5 * n);
    x0 = soa->x0.data();
    y0 = soa->y0.data();
    x1 = soa->x1.data();
    y1 = soa->y1.data();
    codes = soa->code.data();
    begin = soa->count;
  }
  const double m1 = mbb.min_x();
  const double m2 = mbb.max_x();
  const double l1 = mbb.min_y();
  const double l2 = mbb.max_y();

  size_t k = begin;
  unsigned bitmap = 0;
  unsigned odd = 0;
  const auto piece = [&](const Point& a, const Point& b) {
    const unsigned col = ClassifyAxisLane(std::min(a.x, b.x),
                                          std::max(a.x, b.x), m1, m2, &odd);
    const unsigned row = ClassifyAxisLane(std::min(a.y, b.y),
                                          std::max(a.y, b.y), l1, l2, &odd);
    const unsigned code = (col << 2) | row;
    bitmap |= 1u << code;
    if constexpr (kAppend) {
      x0[k] = a.x;
      y0[k] = a.y;
      x1[k] = b.x;
      y1[k] = b.y;
      codes[k] = static_cast<uint8_t>(code);
    }
    ++k;
  };
  const auto edge = [&](const Point& a, const Point& b) {
    if (a == b) return;  // Degenerate edge: no pieces (shared-core rule).
    const double xlo = std::min(a.x, b.x);
    const double xhi = std::max(a.x, b.x);
    const double ylo = std::min(a.y, b.y);
    const double yhi = std::max(a.y, b.y);
    const unsigned straddle_w = static_cast<unsigned>(xlo < m1) &
                                static_cast<unsigned>(m1 < xhi);
    const unsigned straddle_e = static_cast<unsigned>(xlo < m2) &
                                static_cast<unsigned>(m2 < xhi);
    const unsigned straddle_s = static_cast<unsigned>(ylo < l1) &
                                static_cast<unsigned>(l1 < yhi);
    const unsigned straddle_n = static_cast<unsigned>(ylo < l2) &
                                static_cast<unsigned>(l2 < yhi);
    if ((straddle_w | straddle_e | straddle_s | straddle_n) == 0) {
      piece(a, b);
      return;
    }
    edge_split_detail::SplitStraddlingEdge(Segment(a, b), mbb, straddle_w,
                                           straddle_e, straddle_s, straddle_n,
                                           piece);
  };
  // Walk the ring directly (vertex i → i+1, closing edge last) instead of
  // Polygon::edge(i), whose wrap-around `% size()` costs an integer divide
  // per edge — measurable at ~14 lanes per crossing pair.
  const Point* v = polygon.vertices().data();
  for (size_t i = 0; i + 1 < n; ++i) edge(v[i], v[i + 1]);
  if (n >= 2) edge(v[n - 1], v[0]);

  if constexpr (kAppend) soa->count = k;
  return Walk{k - begin, bitmap, odd};
}

}  // namespace

EdgeSoA::~EdgeSoA() {
  if (x0.empty()) return;
  CARDIR_MEMSTAT_FREE("edge_soa", LaneBytes());
}

void EdgeSoA::EnsureCapacity(size_t lanes) {
  if (x0.size() >= lanes) return;
  const size_t capacity = std::max(lanes, x0.size() * 2);
  CARDIR_MEMSTAT_ALLOC("edge_soa", (capacity - x0.size()) *
                                       (4 * sizeof(double) + sizeof(uint8_t)));
  x0.resize(capacity);
  y0.resize(capacity);
  x1.resize(capacity);
  y1.resize(capacity);
  code.resize(capacity);
}

const std::array<uint16_t, kNumSubEdgeCodes>& SubEdgeCodeMasks() {
  return kSubEdgeCodeMasks;
}

SplitClassifyResult AppendSplitClassifySoA(const Polygon& polygon,
                                           const Box& mbb, EdgeSoA* soa) {
  CARDIR_DCHECK(soa != nullptr);
  CARDIR_DCHECK(!mbb.IsEmpty());
  const size_t begin = soa->count;
  const Walk walk = SplitClassify<true>(polygon, mbb, soa);
  SplitClassifyResult result;
  result.pieces = walk.pieces;
  result.code_bitmap = walk.odd == 0 ? static_cast<uint16_t>(walk.bitmap)
                                     : ReclassifyScalarRange(soa, mbb, begin);
  return result;
}

SplitClassifyResult SplitClassifyBitmapSoA(const Polygon& polygon,
                                           const Box& mbb,
                                           EdgeSoA* fallback_scratch) {
  CARDIR_DCHECK(fallback_scratch != nullptr);
  CARDIR_DCHECK(!mbb.IsEmpty());
  const Walk walk = SplitClassify<false>(polygon, mbb, nullptr);
  if (walk.odd == 0) {
    SplitClassifyResult result;
    result.pieces = walk.pieces;
    result.code_bitmap = static_cast<uint16_t>(walk.bitmap);
    return result;
  }
  // Tie/straddle fallback: materialise the pieces after all; the appending
  // walk re-classifies them through the exact scalar cascade.
  fallback_scratch->Clear();
  return AppendSplitClassifySoA(polygon, mbb, fallback_scratch);
}

}  // namespace cardir
