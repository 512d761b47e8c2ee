#include "core/compute_cdr.h"

#include "core/edge_soa.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace cardir {

void CdrMetricsDelta::FlushToRegistry() {
  CARDIR_METRIC_COUNT("core.cdr.runs", runs);
  CARDIR_METRIC_COUNT("core.edges.input", edges_input);
  CARDIR_METRIC_COUNT("core.edges.split", edges_split);
  CARDIR_METRIC_COUNT("core.pip_tests", pip_tests);
  *this = CdrMetricsDelta{};
}

CdrComputation ComputeCdrUnchecked(const Region& primary,
                                   const Box& reference_mbb,
                                   CdrMetricsDelta* metrics,
                                   CdrScratch* scratch) {
  const Box& mbb = reference_mbb;
  CARDIR_DCHECK(!mbb.IsEmpty());
  // No profiler frame here: one Compute-CDR is ~100 ns, so even a cheap
  // frame push/pop per call shows up as tens of percent on the batch
  // workloads. Callers that loop over pairs open a strip-granularity
  // "cdr.compute" frame instead (engine/sweep_join.cc).
  const Point center = mbb.Center();

  CdrComputation result;
  // SoA walk (core/edge_soa.h): per polygon, one pass splits every edge
  // and classifies each piece branch-free, storing nothing; the
  // codes-present bitmap (≤9 set bits) then expands through the 16-entry
  // mask table — no per-piece struct, scalar cascade or second pass.
  const std::array<uint16_t, kNumSubEdgeCodes>& code_masks = SubEdgeCodeMasks();
  uint16_t mask = 0;
  constexpr uint16_t kMaskB = 1u << static_cast<int>(Tile::kB);
  // Precondition for the Fig. 5 point-in-polygon test below. A boundary
  // through the center would carry a B-coded piece, so in the B-unset
  // branch Contains(center) reduces to ray-crossing parity for a strictly
  // interior point: each of the four axis rays from the center must cross
  // the boundary, and (with B-coded pieces absent) the piece at each
  // crossing can only classify into the W, E, S or N tile respectively.
  // A bitmap missing any of the four therefore proves Contains(center)
  // false without the O(edges) walk. The open-tile argument needs a
  // non-degenerate mbb; zero-extent boxes keep the unconditional test.
  constexpr uint16_t kRayTiles =
      (1u << SubEdgeCode(TileColumn::kWest, TileRow::kMiddle)) |
      (1u << SubEdgeCode(TileColumn::kEast, TileRow::kMiddle)) |
      (1u << SubEdgeCode(TileColumn::kMiddle, TileRow::kSouth)) |
      (1u << SubEdgeCode(TileColumn::kMiddle, TileRow::kNorth));
  const bool proper_mbb =
      mbb.min_x() < mbb.max_x() && mbb.min_y() < mbb.max_y();
  for (const Polygon& polygon : primary.polygons()) {
    result.input_edges += polygon.size();
    // Store-free classification: the qualitative relation needs only the
    // codes-present bitmap, so no lanes are materialised (the scratch is
    // touched only on the tie/straddle fallback).
    const SplitClassifyResult split =
        SplitClassifyBitmapSoA(polygon, mbb, &scratch->soa);
    result.output_edges += split.pieces;
    unsigned bitmap = split.code_bitmap;
    while (bitmap != 0) {
      const int code = __builtin_ctz(bitmap);
      bitmap &= bitmap - 1;
      mask = static_cast<uint16_t>(mask | code_masks[code]);
    }
    // Fig. 5: "If the center of mbb(b) is in p Then R = tile-union(R, B)".
    // Catches polygons that contain the whole bounding box, whose boundary
    // never enters the B tile.
    if ((mask & kMaskB) == 0 &&
        (!proper_mbb || (split.code_bitmap & kRayTiles) == kRayTiles)) {
      ++metrics->pip_tests;
      if (polygon.Contains(center)) mask |= kMaskB;
    }
  }
  result.relation = CardinalRelation::FromMask(mask);
  ++metrics->runs;
  metrics->edges_input += result.input_edges;
  metrics->edges_split += result.output_edges;
  return result;
}

CdrComputation ComputeCdrUnchecked(const Region& primary,
                                   const Region& reference,
                                   CdrMetricsDelta* metrics) {
  // A fresh EdgeSoA costs five allocations — more than the whole division
  // of a small polygon. Callers without their own scratch share one
  // grow-only buffer per thread instead.
  thread_local CdrScratch scratch;
  return ComputeCdrUnchecked(primary, reference.BoundingBox(), metrics,
                             &scratch);
}

CdrComputation ComputeCdrUnchecked(const Region& primary,
                                   const Region& reference) {
  CdrMetricsDelta metrics;
  CdrComputation result = ComputeCdrUnchecked(primary, reference, &metrics);
  metrics.FlushToRegistry();
  return result;
}

Result<CdrComputation> ComputeCdrDetailed(const Region& primary,
                                          const Region& reference) {
  CARDIR_RETURN_IF_ERROR(primary.Validate());
  CARDIR_RETURN_IF_ERROR(reference.Validate());
  return ComputeCdrUnchecked(primary, reference);
}

Result<CardinalRelation> ComputeCdr(const Region& primary,
                                    const Region& reference) {
  CARDIR_ASSIGN_OR_RETURN(CdrComputation computation,
                          ComputeCdrDetailed(primary, reference));
  return computation.relation;
}

}  // namespace cardir
