// Algorithm Compute-CDR (paper §3.1, Fig. 5).
//
// Computes the qualitative cardinal direction relation R with a R b between
// regions a (primary) and b (reference) in REG*, in a single pass over the
// edges of a: each edge is divided at the mbb(b) lines into sub-edges lying
// in exactly one tile, the tiles are tile-unioned (Definition 2), and a
// per-polygon containment test of the centre of mbb(b) adds the B tile when
// a polygon of `a` swallows the whole bounding box without touching it.
//
// Running time: O(k_a + k_b) where k_a, k_b are the total edge counts
// (Theorem 1).

#ifndef CARDIR_CORE_COMPUTE_CDR_H_
#define CARDIR_CORE_COMPUTE_CDR_H_

#include "core/cardinal_relation.h"
#include "core/edge_soa.h"
#include "geometry/region.h"
#include "util/status.h"

namespace cardir {

/// Result of Compute-CDR together with instrumentation used by the
/// edge-introduction experiments (E4/E5 in DESIGN.md).
struct CdrComputation {
  /// The relation R such that `primary R reference` holds.
  CardinalRelation relation;
  /// Total edges of the primary region before division.
  size_t input_edges = 0;
  /// Total sub-edges after division at the mbb lines (Example 3: the
  /// quadrangle of Fig. 4 yields 9; polygon clipping would yield 19).
  size_t output_edges = 0;
};

/// Runs Compute-CDR. Fails with kInvalidArgument when either region fails
/// `Region::Validate()`. Both regions must use clockwise polygon rings (call
/// `Region::EnsureClockwise()` when unsure).
Result<CdrComputation> ComputeCdrDetailed(const Region& primary,
                                          const Region& reference);

/// Convenience wrapper returning only the relation.
Result<CardinalRelation> ComputeCdr(const Region& primary,
                                    const Region& reference);

/// Locally aggregated Compute-CDR instrumentation for tight loops. A caller
/// invoking Compute-CDR once per pair (the sweep join's strip loop, the
/// benchmark all-pairs loops) accumulates into one of these — plain integer
/// adds — and flushes to the metrics registry once per chunk, keeping
/// per-call atomics off the hot path (~22 ns per 4-counter flush on a
/// ~400 ns call otherwise; see DESIGN.md §3.14).
struct CdrMetricsDelta {
  uint64_t runs = 0;
  uint64_t edges_input = 0;
  uint64_t edges_split = 0;
  uint64_t pip_tests = 0;

  /// Adds the accumulated deltas to the core.* counters and zeroes this.
  void FlushToRegistry();
};

/// Reusable working memory for Compute-CDR and Compute-CDR%. A fresh run's
/// only heap allocation is the SoA lane scratch (core/edge_soa.h), which
/// Compute-CDR% appends every piece to and Compute-CDR only its
/// tie/straddle fallback; a caller computing many pairs (the sweep join's
/// emit strips and the delta engine via their per-worker scratch, the
/// benchmark loops) keeps one CdrScratch per thread and hands it to every
/// call, so the lane capacity is paid once instead of per pair.
struct CdrScratch {
  EdgeSoA soa;
};

/// Unchecked fast path used by benchmarks: skips validation. Preconditions:
/// both regions valid, clockwise, reference mbb non-empty.
///
/// Every form runs the same store-free walk per polygon of `primary`
/// (`SplitClassifyBitmapSoA`, core/edge_soa.h): the relation is the OR of
/// the tiles in its codes-present bitmap, plus Fig. 5's B test. The
/// two-argument form flushes its core.* counter deltas per call; the
/// three-argument form accumulates them into `metrics` (never null) for the
/// caller to flush, with a thread-local scratch.
CdrComputation ComputeCdrUnchecked(const Region& primary,
                                   const Region& reference);
CdrComputation ComputeCdrUnchecked(const Region& primary,
                                   const Region& reference,
                                   CdrMetricsDelta* metrics);

/// Like the three-argument form, but takes the reference's bounding box
/// directly and reuses `scratch` (never null) — the algorithm never looks
/// at the reference's geometry beyond its mbb, and a caller computing many
/// pairs against profiled boxes (the sweep join, the delta engine) already
/// holds every mbb, so re-deriving it from the polygon vertices on each
/// call would be the dominant per-pair overhead.
CdrComputation ComputeCdrUnchecked(const Region& primary,
                                   const Box& reference_mbb,
                                   CdrMetricsDelta* metrics,
                                   CdrScratch* scratch);

}  // namespace cardir

#endif  // CARDIR_CORE_COMPUTE_CDR_H_
