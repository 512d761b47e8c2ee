// MBB-derived relation bounds: the per-pair semantics reference that the
// interval kernel (engine/interval_kernel.h) is checked against.
//
// When the primary region's mbb fits inside a single column band and a
// single row band of the reference region's mbb, every point of the primary
// lies in one closed tile and the cardinal direction relation is that single
// tile — no edge splitting required. The nontrivial part is the boundary
// semantics: tiles are closed, so two mbbs may *touch* on a shared line
// (degenerate tile contact) without the primary gaining a tile on the far
// side. Compute-CDR resolves sub-edges lying exactly on an mbb line to the
// polygon's interior side (see core/edge_splitter.h), which for a region
// wholly contained in a closed half-plane is always the containing side.
// The prefilter therefore classifies with *inclusive* comparisons:
//
//   column West   iff  max_x(a) <= min_x(b)
//   column East   iff  min_x(a) >= max_x(b)
//   column Middle iff  min_x(a) >= min_x(b) and max_x(a) <= max_x(b)
//
// (rows analogously), matching Compute-CDR bit for bit on touching and
// collinear boxes. Boxes straddling an mbb line in either axis — exactly
// the pairs whose mbb properly crosses one of the four reference lines —
// are not box-resolvable and return nullopt.

#ifndef CARDIR_ENGINE_PREFILTER_H_
#define CARDIR_ENGINE_PREFILTER_H_

#include <optional>

#include "core/cardinal_relation.h"
#include "geometry/box.h"

namespace cardir {

/// The relation `a R b` when it is determined by the bounding boxes alone
/// (a single-tile relation, or B for a contained box), nullopt otherwise.
/// Degenerate (zero-width/height) or empty boxes always return nullopt so
/// callers fall back to the full algorithm. No read path calls it: every
/// one classifies with ClassPairCode, and this stays the oracle that
/// ValidateClassKernelOnce and the tests hold ClassPairCode against.
std::optional<CardinalRelation> MbbPrefilterRelation(const Box& primary_mbb,
                                                     const Box& reference_mbb);

/// True when `primary_mbb` properly crosses one of the four mbb lines of
/// `reference_mbb` (strictly overlaps both sides). For non-degenerate boxes
/// this is the exact complement of MbbPrefilterRelation succeeding; the
/// sweep join counts such pairs as `engine.pairs.crossing`.
bool MbbProperlyCrossesReferenceLines(const Box& primary_mbb,
                                      const Box& reference_mbb);

}  // namespace cardir

#endif  // CARDIR_ENGINE_PREFILTER_H_
