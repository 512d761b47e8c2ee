// DeltaEngine: incremental maintenance of a RelationStore under region
// insert / move / remove, instead of a full ComputeAllRelations per
// mutation (884.9 ms at n = 50k on the bench host).
//
// The dirty-set argument reuses the sweep join's completeness bound
// (engine/sweep_join.cc): a pair is explicit only when an axis class is
// kCross or a box is degenerate, and a kCross class forces strict interval
// overlap on that axis. A mutation of region k changes only the class
// codes of pairs involving k, so the pairs whose *stored* state can change
// — explicit before or explicit after — are contained in
//
//   strict-overlap candidates of k's OLD box ∪ candidates of its NEW box
//   ∪ {pairs against a degenerate box} (every row when k itself is one),
//
// which two updatable per-axis IntervalOverlapIndex queries per box
// enumerate in O(log n + out). Everything outside the dirty set either
// doesn't involve k (its code is untouched) or stays implicit on both
// sides of the mutation — and implicit relations are re-derived from the
// live box profile on every read, so they need no storage update at all.
// Dirty pairs are re-resolved with the exact sweep resolution kernel
// (ResolveExplicitMask) and spliced into the store via its mutation layer
// under one rule: PatchPair for the mutated column, and for the mutated
// row the same patch in one merge (PatchRow; see relation_store.h and
// DESIGN.md §3.20, §3.32).
//
// Correctness contract: after any mutation sequence, Digest() is
// bit-identical to the serial Compute-CDR loop over the same geometries (the
// randomized mutation-script oracle in tests/engine/delta_engine_test.cc
// holds the two against each other).
//
// The engine keeps the sweep's store and plan (Build) and no geometry:
// Insert and Move borrow the mutated region and read a dirty partner's
// geometry through the caller's accessor.
//
// Locking discipline: one mutex serializes Insert/Move/Remove/Digest; the
// per-engine DeltaScratch and the borrowed geometry are read under that
// lock, and the caller keeps the geometry it hands out unchanged during
// the call. `store()` and `plan()` return the live store and plan without
// locking — callers synchronize reads against mutations themselves
// (Configuration is single-threaded; concurrent readers take Digest() or
// copy the engine).

#ifndef CARDIR_ENGINE_DELTA_ENGINE_H_
#define CARDIR_ENGINE_DELTA_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/interval_index.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "util/status.h"

namespace cardir {

/// What one mutation touched. `touched` lists the *dirty* ordered pairs —
/// every (k, j) and (j, k) whose stored relation was re-examined (for
/// Remove, with pre-removal indices; the pairs themselves are deleted).
/// Relations outside this set kept their stored state; implicit relations
/// involving the mutated region re-derive from the updated box profile on
/// read without appearing here unless they were dirty-set candidates.
struct DeltaResult {
  std::vector<std::pair<uint32_t, uint32_t>> touched;
  size_t pairs_reresolved = 0;  ///< Dirty pairs re-resolved explicitly.
  size_t pairs_implicit = 0;    ///< Dirty pairs that settled implicit.
  uint64_t apply_us = 0;        ///< Wall time of the apply, microseconds.
};

/// Per-engine working memory of the delta apply: the candidate bitset, the
/// Compute-CDR scratch arena and the reusable gather/emit vectors. Guarded
/// by the engine's mutex; escapes into cross-thread lambdas are forbidden
/// (analyzer scratch-escape check).
struct DeltaScratch {
  CandidateBitset bits;
  CdrScratch cdr;
  std::vector<uint32_t> affected;  // Dirty partner ids j, ascending.
  std::vector<PairEdit> row;       // Row pair (k, j), per partner.
  std::vector<PairEdit> column;    // Column pair (j, k), per partner.

  size_t bytes() const {
    return bits.bytes() + affected.capacity() * sizeof(uint32_t) +
           (row.capacity() + column.capacity()) * sizeof(PairEdit);
  }
};

/// Incrementally maintained all-pairs relation store (see file comment).
class DeltaEngine {
 public:
  /// Region j's current geometry, for the dirty partners of an Insert or
  /// Move (never asked for the mutated region).
  using RegionAccessor = std::function<const Region&(size_t)>;

  DeltaEngine() = default;
  ~DeltaEngine();
  DeltaEngine(const DeltaEngine& other);
  DeltaEngine& operator=(const DeltaEngine& other);
  DeltaEngine(DeltaEngine&& other) noexcept;
  DeltaEngine& operator=(DeltaEngine&& other) noexcept;

  /// Runs the sweep join over `regions` (borrowed for the call, e.g.
  /// RegionPointers(v)) and keeps its store, equal to ComputeRelationStore's,
  /// and its plan. Fails like ComputeRelationStore. `stats`, when non-null,
  /// receives the batch run's instrumentation.
  static Result<DeltaEngine> Build(const std::vector<const Region*>& regions,
                                   const EngineOptions& options = {},
                                   EngineStats* stats = nullptr);

  /// Appends `region` as index regions() and resolves its pairs against
  /// the existing set, reading partner j's geometry as `region_at(j)`.
  /// Fails on invalid geometry (engine untouched).
  Result<DeltaResult> Insert(const Region& region,
                             const RegionAccessor& region_at);

  /// Region `id` now has `geometry`: re-resolves exactly the dirty pairs
  /// of its old ∪ new box, reading partner j's geometry as `region_at(j)`.
  /// Fails on bad id / invalid geometry.
  Result<DeltaResult> Move(size_t id, const Region& geometry,
                           const RegionAccessor& region_at);

  /// Removes region `id`; indices above it renumber down by one.
  Result<DeltaResult> Remove(size_t id);

  /// Order-independent digest over all pairs — bit-identical to a fresh
  /// ComputeRelationStore(...).Digest() on the current geometries. Takes
  /// the lock.
  uint64_t Digest() const;

  size_t regions() const { return store_.regions(); }

  /// The live store (unsynchronized — see the locking discipline above).
  const RelationStore& store() const { return store_; }

  /// The sweep's plan as the mutations keep it (unsynchronized, like
  /// store()); its polygon boxes are parallel to the store's regions.
  const SweepPlan& plan() const { return plan_; }

  /// Footprint of the store, the plan and the scratch.
  size_t bytes() const;

 private:
  void GatherAffected(size_t id, bool all_rows, const Box& old_box,
                      const Box& new_box);
  // The stages of one mutation, over the dirty partners in
  // scratch_.affected. SampleDirty records (id, j) and (j, id) explicitness
  // before the profile changes; ResolveDirty re-resolves row id (primary
  // `geometry`) and column id (primaries from `region_at`) against the
  // updated profile (span delta.resolve); PatchColumn applies column id's
  // changed pairs; PatchDirty also patches row id (span delta.patch);
  // ResolveAndPatch runs the last two for Insert and Move and reports the
  // apply as `event`.
  void SampleDirty(size_t id);
  void ResolveDirty(size_t id, const Region& geometry,
                    const RegionAccessor& region_at, DeltaResult* result);
  void PatchColumn(size_t id);
  void PatchDirty(size_t id);
  DeltaResult ResolveAndPatch(size_t id, const Region& geometry,
                              const RegionAccessor& region_at,
                              uint64_t start_us, const char* event);
  // Index-health gauges: delta.index.pending (the larger axis's dead +
  // overflow entries) and delta.index.rebuild_threshold.
  void PublishIndexHealth() const;
  void SetDegenerate(size_t id, bool degenerate);
  void RechargeAux();  // Charges the plan and scratch to mem.delta_engine.

  mutable std::mutex mu_;
  RelationStore store_;
  SweepPlan plan_;
  DeltaScratch scratch_;
  size_t aux_charged_ = 0;  // Live bytes charged to mem.delta_engine.
};

}  // namespace cardir

#endif  // CARDIR_ENGINE_DELTA_ENGINE_H_
