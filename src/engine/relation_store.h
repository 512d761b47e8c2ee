// RelationStore: the sweep engine's sub-quadratic all-pairs result type.
//
// A dense matrix would store 2 bytes for every one of the n·(n−1) ordered
// pairs — 50 MB at n = 5000 — even though on map-like workloads the vast
// majority of relations are *implicit*: determined entirely by the two
// boxes' per-axis interval classes (engine/interval_kernel.h). The store
// therefore keeps only
//
//   * the SoA box profile of the run's regions (4 doubles + 1 byte each),
//     from which any implicit pair's relation is recomputed in O(1) — one
//     ClassPairCode and one 16-entry table lookup, the same function the
//     sweep's candidate filter runs, so the recomputed relation is
//     bit-identical to the serial Compute-CDR loop's;
//   * an *explicit-pair overlay*: the packed relation masks of exactly the
//     pairs that are not box-resolvable (either axis class kCross, or a
//     degenerate/empty box), laid out row-major with ascending reference
//     index inside each row, plus one offset per row. Per-row, the overlay
//     is the run-length structure the plane sweep emits: each row's code
//     sequence over ascending reference index is long implicit runs broken
//     by the row's few crossing pairs, and only the breaks are stored.
//
// Overlay membership of a pair is itself derivable from the boxes (the
// same O(1) classification), so the overlay needs no reference indices:
// row iteration walks the row left to right consuming overlay masks at the
// non-resolvable positions, and (i, j) lookup ranks j among row i's
// non-resolvable columns. On the map workloads the overlay holds ~2% of
// the pairs, putting the whole store two orders of magnitude under the
// dense matrix (see DESIGN.md §3.19 and the mem.relation_store telemetry
// in BENCH_engine.json).
//
// ComputeRelationStore builds the store with a plane-sweep spatial join
// instead of all-pairs enumeration: see engine/sweep_join.cc.
//
// Mutation layer (DESIGN.md §3.20, §3.32): the store supports
// single-region rewrites without rebuilding the positional base. The base
// overlay stays immutable between EraseRegion calls; an edited row is its
// base slots plus one *patch list*, sorted by column: 6 bytes per entry
// (a uint32_t column and a uint16_t holding the 9-bit mask and three
// flags). An entry overrides its column and records whether the base row
// still carries an (orphaned) slot for it (`consumes base`), so the walk
// stays cursor-aligned; a *ghost* consumes a base slot of an erased column.
// The edit layer is row-indexed: a uint32_t row → record table points into
// a dense pool of per-row edit records, so finding a row's edits is one
// array index and EraseRegion renumbers rows and columns in place.
// Callers (the DeltaEngine, the mutation property tests) own the
// consistency contract: after every profile change (SetRegionBox /
// AppendRegion), every pair whose explicitness or mask changed must be
// patched before the store is read — exactly the dirty set the sweep
// completeness bound yields. PatchPair patches one pair, PatchRow a
// mutated region's row in one merge, both under one rule.

#ifndef CARDIR_ENGINE_RELATION_STORE_H_
#define CARDIR_ENGINE_RELATION_STORE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cardinal_relation.h"
#include "engine/interval_kernel.h"
#include "geometry/region.h"
#include "obs/memstats.h"
#include "util/status.h"

namespace cardir {

/// Tuning knobs for the sweep join.
struct EngineOptions {
  /// Total threads, including the calling thread. 0 = all hardware threads;
  /// at most kMaxEngineThreads (engine/parallel_for.h).
  int threads = 1;
};

/// Instrumentation of one sweep-join run.
struct EngineStats {
  size_t total_pairs = 0;        ///< n·(n−1) ordered pairs.
  size_t prefiltered_pairs = 0;  ///< Resolved implicitly from the boxes.
  size_t computed_pairs = 0;     ///< Explicit: stored in the overlay.
  size_t crossing_pairs = 0;     ///< Explicit pairs whose mbbs cross lines.
  int threads_used = 1;
};

/// Mixes one relation entry into a 64-bit value. Pair digests are *summed*,
/// so a total over any enumeration order is comparable: RelationStore::
/// Digest and the tests' serial oracle use this same mix, and two equal
/// digests mean bit-identical relation sets (modulo hash collisions).
inline uint64_t MixPairDigest(size_t primary, size_t reference,
                              uint16_t mask) {
  uint64_t z = (static_cast<uint64_t>(primary) << 40) ^
               (static_cast<uint64_t>(reference) << 16) ^ mask;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class RelationStore;
struct SweepPlan;

/// Computes the all-pairs relation store of `regions` with the plane-sweep
/// spatial join (engine/sweep_join.cc): only pairs whose boxes interact on
/// an axis are ever examined, every other pair is resolved implicitly from
/// its interval classes. The result is bit-identical to the serial
/// Compute-CDR loop for every thread count (the oracle tests hold the two
/// against each other). Fails with kInvalidArgument when a region fails
/// Region::Validate() or `options.threads` exceeds kMaxEngineThreads.
Result<RelationStore> ComputeRelationStore(
    const std::vector<const Region*>& regions,
    const EngineOptions& options = {}, EngineStats* stats = nullptr);

/// Value-typed overload.
Result<RelationStore> ComputeRelationStore(
    const std::vector<Region>& regions, const EngineOptions& options = {},
    EngineStats* stats = nullptr);

/// The sweep join behind ComputeRelationStore, for a caller that keeps the
/// run's plan (DeltaEngine::Build): also fills `*plan`, even below two
/// regions, where no pair is swept.
Result<RelationStore> SweepJoin(const std::vector<const Region*>& regions,
                                const EngineOptions& options,
                                EngineStats* stats, SweepPlan* plan);

/// Borrowed pointers to `regions`, in order: the form the sweep takes.
inline std::vector<const Region*> RegionPointers(
    const std::vector<Region>& regions) {
  std::vector<const Region*> pointers;
  pointers.reserve(regions.size());
  for (const Region& region : regions) pointers.push_back(&region);
  return pointers;
}

/// One pair's change under a mutation: whether it was explicit immediately
/// before the profile change and is explicit after, and its mask when
/// explicit after (RelationStore::PatchPair / PatchRow).
struct PairEdit {
  uint8_t was_explicit = 0;
  uint8_t now_explicit = 0;
  uint16_t mask = 0;
};

/// The relation between every ordered pair of an engine run's regions,
/// stored as box profile + explicit-pair overlay (see file comment).
/// Cheaply movable; charges its footprint to the mem.relation_store arena.
class RelationStore {
 public:
  RelationStore() = default;
  RelationStore(RelationStore&&) = default;
  RelationStore& operator=(RelationStore&&) = default;
  // Copies re-charge the arena for the clone's own footprint (the charge
  // is per-instance state, not shared).
  RelationStore(const RelationStore& other)
      : profile_(other.profile_),
        row_offsets_(other.row_offsets_),
        overlay_masks_(other.overlay_masks_),
        edit_slot_(other.edit_slot_),
        edits_(other.edits_),
        edit_heap_bytes_(SumHeapBytes(edits_)),
        charge_(bytes()) {}
  RelationStore& operator=(const RelationStore& other) {
    if (this != &other) {
      profile_ = other.profile_;
      row_offsets_ = other.row_offsets_;
      overlay_masks_ = other.overlay_masks_;
      edit_slot_ = other.edit_slot_;
      edits_ = other.edits_;
      edit_heap_bytes_ = SumHeapBytes(edits_);
      charge_ = MemCharge(bytes());
    }
    return *this;
  }

  /// Regions covered by the store (indices in [0, regions())).
  size_t regions() const { return profile_.size(); }

  /// Ordered pairs represented: n·(n−1).
  size_t pair_count() const {
    const size_t n = profile_.size();
    return n < 2 ? 0 : n * (n - 1);
  }

  /// Base-overlay slots. On a freshly built store this is exactly the
  /// explicit pair count; after mutations it also counts slots orphaned by
  /// patches (reclaimed only by a full rebuild).
  size_t overlay_pairs() const { return overlay_masks_.size(); }

  /// Storage footprint in bytes (what mem.relation_store is charged),
  /// including the mutation layer's patch lists. Exact and O(1): the edit
  /// records' list capacities are a running total.
  size_t bytes() const {
    return (profile_.min_x.capacity() + profile_.max_x.capacity() +
            profile_.min_y.capacity() + profile_.max_y.capacity()) *
               sizeof(double) +
           profile_.cross_override.capacity() * sizeof(uint8_t) +
           row_offsets_.capacity() * sizeof(uint64_t) +
           overlay_masks_.capacity() * sizeof(uint16_t) +
           edit_slot_.capacity() * sizeof(uint32_t) +
           edits_.capacity() * sizeof(RowEdit) + edit_heap_bytes_;
  }

  /// The profiled boxes, indices parallel to the store's regions. A pair's
  /// ClassPairCode over them is its relation's whole record whenever the
  /// code is resolvable (ClassPairRelations()[code]); only kCross pairs
  /// need Relation().
  const RegionProfile& profile() const { return profile_; }

  /// True when either axis class of (primary, reference) is kCross or a box
  /// is degenerate — i.e. the pair's mask lives in the overlay.
  bool IsExplicit(size_t primary, size_t reference) const {
    return !ResolvableCode(ClassPairCode(profile_, primary, reference));
  }

  /// The stored relation `primary R reference`. Precondition: both indices
  /// in range and distinct (returns the empty relation for primary ==
  /// reference). A patched row first binary-searches its patch list
  /// (O(log n)). Otherwise an implicit pair is O(1) and an explicit one
  /// ranks `reference` among the row's base columns, O(n) scalar
  /// classifications (9.8 µs at 4k regions, 93 µs at 50k) — readers that
  /// hold the class code read only kCross pairs here; use ForEachInRow for
  /// bulk traversal.
  CardinalRelation Relation(size_t primary, size_t reference) const;

  /// Invokes `fn(reference, relation)` for every reference ≠ primary in
  /// ascending reference order — the canonical row order of the serial
  /// loop.
  template <typename Fn>
  void ForEachInRow(size_t primary, Fn&& fn) const {
    const size_t n = profile_.size();
    const std::array<CardinalRelation, kNumClassPairCodes>& relations =
        ClassPairRelations();
    const uint16_t* overlay = overlay_masks_.data() + row_offsets_[primary];
    size_t cursor = 0;
    const RowEdit* edit = FindEdit(primary);
    if (edit == nullptr) {
      for (size_t j = 0; j < n; ++j) {
        if (j == primary) continue;
        const uint8_t code = ClassPairCode(profile_, primary, j);
        if (ResolvableCode(code)) {
          fn(j, relations[code]);
        } else {
          fn(j, CardinalRelation::FromMask(overlay[cursor++]));
        }
      }
      assert(cursor == row_offsets_[primary + 1] - row_offsets_[primary]);
      return;
    }
    // Patched row: merge the base walk with the sorted patch list. Ghosts
    // consume an orphaned base slot of an erased column and are processed
    // at the top of their column's iteration — before the self-skip, since
    // renumbering can leave a ghost at the row's own index — and a final
    // pass drains ghosts parked past the last column.
    const uint32_t* cols = edit->cols.data();
    const uint16_t* entries = edit->entries.data();
    const size_t pn = edit->cols.size();
    size_t pi = 0;
    for (size_t j = 0; j <= n; ++j) {
      while (pi < pn && cols[pi] == j && (entries[pi] & kGhost) != 0) {
        ++cursor;
        ++pi;
      }
      if (j == n) break;
      if (j == primary) continue;
      if (pi < pn && cols[pi] == j) {
        const uint16_t entry = entries[pi++];
        if ((entry & kConsumesBase) != 0) ++cursor;
        if ((entry & kExplicit) != 0) {
          fn(j, CardinalRelation::FromMask(entry & kMaskBits));
        } else {
          fn(j, relations[ClassPairCode(profile_, primary, j)]);
        }
      } else {
        const uint8_t code = ClassPairCode(profile_, primary, j);
        if (ResolvableCode(code)) {
          fn(j, relations[code]);
        } else {
          fn(j, CardinalRelation::FromMask(overlay[cursor++]));
        }
      }
    }
  }

  /// Invokes `fn(primary, reference, relation)` over all ordered pairs in
  /// canonical row-major order (the serial loop's iteration order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t n = profile_.size();
    if (n < 2) return;
    for (size_t i = 0; i < n; ++i) {
      ForEachInRow(i, [&fn, i](size_t j, const CardinalRelation& relation) {
        fn(i, j, relation);
      });
    }
  }

  /// Order-independent digest over all pairs: the MixPairDigest sum, equal
  /// to the same sum over the serial Compute-CDR loop on the same regions.
  uint64_t Digest() const;

  /// True iff neither 2-bit axis class of `code` is kCross (== 3).
  static constexpr bool ResolvableCode(uint8_t code) {
    return (code & 0b1100u) != 0b1100u && (code & 0b0011u) != 0b0011u;
  }

  // ---- Mutation layer (see file comment). The caller owns consistency:
  // after a profile change, every pair whose explicitness or mask changed
  // must be patched before the store is read.

  /// Overwrites region `id`'s profiled box (and its degenerate override).
  void SetRegionBox(size_t id, const Box& box);

  /// Extends the profile with a new region (index regions()); its row has
  /// no base slots, so the caller must PatchRow it before reading, and
  /// PatchPair the new column into every row where (j, new) is explicit
  /// (was_explicit = 0 — the base rows predate the column).
  void AppendRegion(const Box& box);

  /// Records that pair (row, col)'s stored state changed (`change`, see
  /// PairEdit). Explicit pairs whose mask is unchanged must be patched too
  /// — the base slot is stale once the profile moved. The pair's entry
  /// keeps the base-slot flag of its first patch, when "before" still
  /// meant base-build time, and is dropped once it is implicit and owns no
  /// base slot. A full patch list grows by an eighth (+4), so its slack
  /// stays a fraction of its live entries.
  void PatchPair(size_t row, size_t col, const PairEdit& change);

  /// PatchPair of (row, cols[k]) by changes[k] for every k, in one merge
  /// of the row's patch list with `cols` (ascending, row itself absent):
  /// how the DeltaEngine writes a mutated region's row from its dirty set.
  void PatchRow(size_t row, const std::vector<uint32_t>& cols,
                const std::vector<PairEdit>& changes);

  /// Removes region `id`: its row, its column in every other row, its
  /// profile entry; indices above `id` renumber down by one. Precondition:
  /// every explicit pair (j, id) has been patched implicit (PatchPair with
  /// now_explicit = 0), so base slots of column `id` are recorded in
  /// patch lists and convert to ghosts. O(regions + overlay + edits) of
  /// memmove-class work: the base and the row → edit table are spliced, and
  /// one pass renumbers the edit records in place (no container rebuilt).
  void EraseRegion(size_t id);

  /// Re-charges the mem.relation_store arena for the current footprint.
  /// Call once per mutation batch. Audit builds check the running edit-layer
  /// total against a walk of the records here.
  void RechargeMem();

  /// Entries in row `row`'s patch list, ghosts included; 0 for a row that
  /// reads its base only — test hook.
  size_t patch_entries(size_t row) const {
    const RowEdit* edit = FindEdit(row);
    return edit != nullptr ? edit->cols.size() : 0;
  }

 private:
  friend Result<RelationStore> SweepJoin(const std::vector<const Region*>&,
                                         const EngineOptions&, EngineStats*,
                                         SweepPlan*);
  friend class DeltaEngine;

  // edit_slot_ value of a row without an edit record.
  static constexpr uint32_t kNoEdit = ~uint32_t{0};
  // A patch entry: the relation mask in the low 9 bits, then the flags. A
  // stored entry is never 0 (see PatchedEntry).
  static constexpr uint16_t kMaskBits = 0x01ff;
  static constexpr uint16_t kConsumesBase = 1u << 9;
  static constexpr uint16_t kExplicit = 1u << 10;
  static constexpr uint16_t kGhost = 1u << 11;

  // One row's patch list, sorted by (column, ghosts first), as parallel
  // column ids and entries. A ghost consumes one orphaned base slot of an
  // erased column; a normal entry overrides its column (explicit with its
  // mask, or implicit) and consumes a base slot iff the base row was built
  // with one for that column.
  struct RowEdit {
    uint32_t row = 0;  // Back-reference for the pool's swap-remove.
    std::vector<uint32_t> cols;
    std::vector<uint16_t> entries;
  };

  // The entry a pair keeps after `change`, given its current entry `old`
  // (0 when it has none): the base-slot flag stays the first patch's. 0
  // when the pair needs no entry — implicit and owning no base slot.
  static uint16_t PatchedEntry(uint16_t old, const PairEdit& change) {
    const uint16_t base =
        old != 0 ? old & kConsumesBase
                 : (change.was_explicit != 0 ? kConsumesBase : uint16_t{0});
    if (change.now_explicit == 0) return base;
    return static_cast<uint16_t>(base | kExplicit | (change.mask & kMaskBits));
  }
  // The position of column `col`'s override in `edit`'s list, or where it
  // would go: past the ghosts parked at `col`.
  static size_t OverrideAt(const RowEdit& edit, uint32_t col) {
    size_t at = static_cast<size_t>(
        std::lower_bound(edit.cols.begin(), edit.cols.end(), col) -
        edit.cols.begin());
    while (at < edit.cols.size() && edit.cols[at] == col &&
           (edit.entries[at] & kGhost) != 0) {
      ++at;
    }
    return at;
  }

  const RowEdit* FindEdit(size_t row) const {
    if (edit_slot_.empty() || edit_slot_[row] == kNoEdit) return nullptr;
    return &edits_[edit_slot_[row]];
  }
  RowEdit* FindEdit(size_t row) {
    return const_cast<RowEdit*>(std::as_const(*this).FindEdit(row));
  }
  // Row `row`'s record, created (empty patch list) when absent.
  RowEdit& EditFor(size_t row);
  // Frees the pool record at `slot` (swap-remove).
  void DropEditAt(uint32_t slot);
  // Heap bytes of one record's list, and their sum over `edits`.
  static size_t HeapBytes(const RowEdit& edit) {
    return edit.cols.capacity() * sizeof(uint32_t) +
           edit.entries.capacity() * sizeof(uint16_t);
  }
  static size_t SumHeapBytes(const std::vector<RowEdit>& edits) {
    size_t total = 0;
    for (const RowEdit& edit : edits) total += HeapBytes(edit);
    return total;
  }

  // Balances the mem.relation_store gauges across moves and destruction.
  struct MemCharge {
    size_t charged = 0;
    MemCharge() = default;
    explicit MemCharge(size_t bytes) : charged(bytes) {
      if (charged != 0) CARDIR_MEMSTAT_ALLOC("relation_store", charged);
    }
    MemCharge(MemCharge&& other) noexcept
        : charged(std::exchange(other.charged, 0)) {}
    MemCharge& operator=(MemCharge&& other) noexcept {
      if (this != &other) {
        Release();
        charged = std::exchange(other.charged, 0);
      }
      return *this;
    }
    ~MemCharge() { Release(); }
    void Release() {
      if (charged != 0) {
        CARDIR_MEMSTAT_FREE("relation_store", charged);
        charged = 0;
      }
    }
  };

  RegionProfile profile_;
  std::vector<uint64_t> row_offsets_ = {0};  // regions() + 1 entries.
  std::vector<uint16_t> overlay_masks_;  // Row-major, ascending reference.
  // Mutation layer: row → index into edits_ (kNoEdit when the row reads its
  // base only; empty until the first edit), and the records themselves.
  std::vector<uint32_t> edit_slot_;
  std::vector<RowEdit> edits_;
  // SumHeapBytes(edits_), kept current by every edit.
  size_t edit_heap_bytes_ = 0;
  MemCharge charge_;
};

}  // namespace cardir

#endif  // CARDIR_ENGINE_RELATION_STORE_H_
