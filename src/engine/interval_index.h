// The sweep layer's shared enumeration + resolution kit, factored out of
// sweep_join.cc so the batch plane sweep and the incremental DeltaEngine
// (engine/delta_engine.h) run one implementation:
//
//   * IntervalOverlapIndex — per-axis strict-interval-overlap queries over
//     the non-degenerate boxes, now *updatable*: point mutations tombstone
//     the stale sorted entry and park the live interval in a small overflow
//     buffer, and an amortized rebuild re-sorts once the dead+overflow
//     fraction crosses a threshold (no balanced tree — the flat
//     block-summary layout is what makes the queries fast, so mutations
//     pay a deferred re-sort instead of per-update pointer surgery). The
//     intervals themselves are the caller's box profile, passed per call.
//   * CandidateBitset — the per-row mark/drain bitset that unions the two
//     axis queries (plus the degenerate ids) into an ascending-id candidate
//     stream without a per-row sort.
//   * PolygonBoxes + ResolveExplicitMask — the per-polygon mbb SoA and the
//     explicit-pair resolution kernel (one-axis-cross shortcut, full
//     Compute-CDR for both-axes-cross/degenerate pairs). Keeping resolution
//     here guarantees the delta path recomputes exactly the masks the sweep
//     would emit — the Digest equivalence contract depends on it — and the
//     readers' DirectionDecider (cardirect/query.h) decides kCross pairs
//     with the same kernel.

#ifndef CARDIR_ENGINE_INTERVAL_INDEX_H_
#define CARDIR_ENGINE_INTERVAL_INDEX_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/compute_cdr.h"
#include "engine/interval_kernel.h"
#include "geometry/box.h"
#include "geometry/region.h"

namespace cardir {

/// One axis of a box profile as an IntervalOverlapIndex reads it: id i
/// covers [lo[i], hi[i]] and is indexed unless skip[i] != 0 (degenerate
/// boxes are enumerated separately). Borrowed for one call.
struct AxisIntervals {
  const std::vector<double>& lo;
  const std::vector<double>& hi;
  const std::vector<uint8_t>& skip;
};

/// The x and y axes of `profile`, skipping its degenerate boxes.
inline AxisIntervals XIntervals(const RegionProfile& profile) {
  return {profile.min_x, profile.max_x, profile.cross_override};
}
inline AxisIntervals YIntervals(const RegionProfile& profile) {
  return {profile.min_y, profile.max_y, profile.cross_override};
}

/// Interval-overlap index over one axis of the non-degenerate boxes:
/// entries sorted by interval start, pruned by a two-level max-over-ends
/// block summary. ForEachOverlap reports every indexed interval strictly
/// overlapping the query: one lower_bound bounds the candidates to a prefix
/// (start < query end), then the scan skips every 64-entry block — and
/// every 64-block superblock — whose max end fails end > query start.
/// The flat layout beats the pointer-free segment tree it replaced by ~3x
/// on the gather-bound map workloads: skip decisions are sequential loads
/// over a dense summary array rather than a branchy recursive descent, and
/// surviving blocks are scanned as contiguous doubles.
///
/// The index keeps no copy of the intervals it covers: every call that can
/// re-sort takes the caller's per-id arrays (AxisIntervals — one axis of
/// the relation store's box profile in the engine), already updated for
/// the mutation it reports.
///
/// Mutations (Update/Append/Remove) keep queries exact without re-sorting
/// per call: the stale sorted entry is tombstoned (its end set to −inf, so
/// the possibly-stale block maxima stay *conservative* — a block is skipped
/// only when its recorded max end fails the query, which the true max then
/// fails too), the live interval goes to an overflow buffer scanned
/// linearly per query, and the whole index rebuilds from the caller's
/// arrays once dead + overflow entries exceed rebuild_threshold() =
/// max(64, size/8). Remove renumbers the ids above the erased one in place:
/// the renumbering is monotone, so the sorted order survives it. Only the
/// delta engine mutates an index, so a mutation-triggered rebuild records
/// the span delta.index_rebuild and counts delta.index.rebuilds.
class IntervalOverlapIndex {
 public:
  static constexpr size_t kBlock = 64;           // Entries per block.
  static constexpr size_t kSuper = 64 * kBlock;  // Entries per superblock.

  /// (Re)builds from scratch over every id of `axis`.
  void Build(const AxisIntervals& axis);

  /// Entry `id` (id < size()) now has the interval `axis` gives it; a
  /// skipped entry leaves query results. Amortized O(1) + the deferred
  /// rebuild share.
  void Update(size_t id, const AxisIntervals& axis);

  /// Adds the entry for a brand-new id == size(), `axis`'s last.
  void Append(const AxisIntervals& axis);

  /// Erases entry `id` and renumbers every id above it down by one — the
  /// contract of RelationStore::EraseRegion, which has already erased it
  /// from `axis`. O(size) memmove-class work (the position map shifts, one
  /// pass renumbers the sorted ids) + the deferred rebuild share.
  void Remove(size_t id, const AxisIntervals& axis);

  /// Ids covered (including skipped/tombstoned ones).
  size_t size() const { return pos_.size(); }

  /// Tombstoned + overflow entries awaiting the amortized rebuild (reaches
  /// 0 right after a rebuild).
  size_t pending() const { return dead_ + overflow_ids_.size(); }

  /// The mutation that lifts pending() above this re-sorts the index.
  size_t rebuild_threshold() const { return std::max(kBlock, size() / 8); }

  size_t bytes() const {
    return (ids_.capacity() + overflow_ids_.capacity()) * sizeof(uint32_t) +
           (lo_.capacity() + hi_.capacity() + block_max_.capacity() +
            super_max_.capacity() + overflow_lo_.capacity() +
            overflow_hi_.capacity()) *
               sizeof(double) +
           pos_.capacity() * sizeof(uint64_t);
  }

  /// Invokes `fn(id)` for every indexed id with lo_id < qhi and hi_id >
  /// qlo — exactly the strict-overlap candidates of the query interval.
  /// Order is unspecified (callers union into a CandidateBitset); each live
  /// id is reported at most once.
  template <typename Fn>
  void ForEachOverlap(double qlo, double qhi, Fn&& fn) const {
    const size_t limit = static_cast<size_t>(
        std::lower_bound(lo_.begin(), lo_.end(), qhi) - lo_.begin());
    for (size_t s = 0; s * kSuper < limit; ++s) {
      if (!(super_max_[s] > qlo)) continue;
      const size_t block_end =
          std::min((s + 1) * (kSuper / kBlock), (limit + kBlock - 1) / kBlock);
      for (size_t b = s * (kSuper / kBlock); b < block_end; ++b) {
        if (!(block_max_[b] > qlo)) continue;
        const size_t end = std::min(limit, (b + 1) * kBlock);
        for (size_t p = b * kBlock; p < end; ++p) {
          if (hi_[p] > qlo) fn(ids_[p]);
        }
      }
    }
    for (size_t p = 0; p < overflow_ids_.size(); ++p) {
      if (overflow_lo_[p] < qhi && overflow_hi_[p] > qlo) {
        fn(overflow_ids_[p]);
      }
    }
  }

 private:
  // pos_ encoding: absent (skipped), a main-array position, or a tagged
  // overflow slot.
  static constexpr uint64_t kAbsent = ~uint64_t{0};
  static constexpr uint64_t kOverflowTag = uint64_t{1} << 63;

  void RebuildIfStale(const AxisIntervals& axis);
  void RemoveOverflowAt(size_t slot);

  std::vector<uint32_t> ids_;      // Indexed ids, sorted by lo.
  std::vector<double> lo_;         // Sorted interval starts (lower_bound key).
  std::vector<double> hi_;         // Interval ends (−inf = tombstone).
  std::vector<double> block_max_;  // Max end per kBlock entries.
  std::vector<double> super_max_;  // Max end per kSuper entries.
  std::vector<uint64_t> pos_;  // id → main position / overflow slot / absent.
  // Updated-but-not-yet-rebuilt live entries, scanned linearly per query.
  std::vector<uint32_t> overflow_ids_;
  std::vector<double> overflow_lo_, overflow_hi_;
  size_t dead_ = 0;  // Tombstones in the main arrays.
};

/// Per-row candidate accumulator: one bit per region. The two axis queries
/// and the degenerate-id list Mark bits, the union is drained in ascending
/// id order with countr_zero — duplicates between the sources collapse for
/// free, and no per-row sort is needed. Drain re-zeroes the words, so the
/// bitset is clean for the next row.
class CandidateBitset {
 public:
  void Reset(size_t bits) { words_.assign((bits + 63) / 64, 0); }

  void Mark(uint32_t j) { words_[j >> 6] |= uint64_t{1} << (j & 63); }
  void Clear(uint32_t j) { words_[j >> 6] &= ~(uint64_t{1} << (j & 63)); }

  template <typename Fn>
  void Drain(Fn&& fn) {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      words_[w] = 0;
      while (word != 0) {
        const uint32_t j = static_cast<uint32_t>(
            w * 64 + static_cast<size_t>(std::countr_zero(word)));
        word &= word - 1;
        fn(j);
      }
    }
  }

  size_t bytes() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> words_;
};

/// Per-polygon bounding boxes of all regions, flattened SoA with row
/// offsets — the one-axis-cross shortcut reads these instead of rescanning
/// polygon vertices per crossing pair. Updatable for the delta engine:
/// replacing a region with the same polygon count overwrites in place,
/// otherwise the arrays are spliced.
struct PolygonBoxes {
  std::vector<uint64_t> offsets = {0};  // regions + 1 entries.
  std::vector<double> min_x, max_x, min_y, max_y;

  void Build(const std::vector<const Region*>& regions);
  void ReplaceRegion(size_t i, const Region& region);
  void AppendRegion(const Region& region);
  void EraseRegion(size_t i);
  size_t bytes() const {
    return offsets.capacity() * sizeof(uint64_t) +
           (min_x.capacity() + max_x.capacity() + min_y.capacity() +
            max_y.capacity()) *
               sizeof(double);
  }
};

/// The sweep's plan (engine/sweep_join.cc), which the DeltaEngine keeps and
/// updates: the overlap indexes, the ascending degenerate ids, the
/// per-polygon boxes.
struct SweepPlan {
  IntervalOverlapIndex x_index, y_index;
  std::vector<uint32_t> degenerate_ids;
  PolygonBoxes poly;

  size_t bytes() const {
    return x_index.bytes() + y_index.bytes() + poly.bytes() +
           degenerate_ids.capacity() * sizeof(uint32_t);
  }
};

/// Resolves the relation mask of one *explicit* pair (primary i, reference
/// j) — `code` must be non-resolvable (RelationStore::IsExplicit). Exactly
/// the sweep emit pass's per-pair resolution: degenerate boxes and
/// both-axes-crossing pairs run the full Compute-CDR against the profiled
/// reference mbb; a single crossing axis takes the shortcut — with (say)
/// the y class fixed at cy, every point of the primary lies in tile row cy,
/// and each polygon's connected boundary spans its full mbb x-extent, so
/// three strict compares of the polygon's x-bounds against the reference's
/// x-lines decide its tile columns (see sweep_join.cc for the exactness
/// argument). Inline because the sweep calls it once per explicit pair.
inline uint16_t ResolveExplicitMask(uint8_t code, const Region& primary,
                                    const Box& reference_box,
                                    const RegionProfile& profile, size_t i,
                                    size_t j, const PolygonBoxes& poly,
                                    CdrMetricsDelta* metrics,
                                    CdrScratch* scratch) {
  const std::array<uint16_t, kNumClassPairCodes>& table =
      ClassPairRelationTable();
  const uint8_t cx = static_cast<uint8_t>(code >> 2);
  const uint8_t cy = static_cast<uint8_t>(code & 0b0011u);
  if (profile.cross_override[i] != 0 || profile.cross_override[j] != 0 ||
      (cx == 3 && cy == 3)) {
    // Degenerate box or both axes crossing: full Compute-CDR against the
    // profiled mbb.
    return ComputeCdrUnchecked(primary, reference_box, metrics, scratch)
        .relation.mask();
  }
  uint16_t mask = 0;
  if (cx == 3) {
    // x crossing: row fixed at cy; each polygon's x-extent decides its
    // columns.
    const double m1 = profile.min_x[j];
    const double m2 = profile.max_x[j];
    for (uint64_t p = poly.offsets[i]; p < poly.offsets[i + 1]; ++p) {
      if (poly.min_x[p] < m1) mask |= table[cy];
      if (poly.max_x[p] > m1 && poly.min_x[p] < m2) {
        mask |= table[(1u << 2) | cy];
      }
      if (poly.max_x[p] > m2) mask |= table[(2u << 2) | cy];
    }
  } else {
    // y crossing: column fixed at cx, rows from y-extents.
    const double m1 = profile.min_y[j];
    const double m2 = profile.max_y[j];
    for (uint64_t p = poly.offsets[i]; p < poly.offsets[i + 1]; ++p) {
      if (poly.min_y[p] < m1) mask |= table[cx << 2];
      if (poly.max_y[p] > m1 && poly.min_y[p] < m2) {
        mask |= table[(cx << 2) | 1u];
      }
      if (poly.max_y[p] > m2) mask |= table[(cx << 2) | 2u];
    }
  }
  return mask;
}

}  // namespace cardir

#endif  // CARDIR_ENGINE_INTERVAL_INDEX_H_
