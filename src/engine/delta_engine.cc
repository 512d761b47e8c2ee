#include "engine/delta_engine.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace cardir {

DeltaEngine::~DeltaEngine() {
  if (aux_charged_ != 0) CARDIR_MEMSTAT_FREE("delta_engine", aux_charged_);
}

DeltaEngine::DeltaEngine(const DeltaEngine& other) {
  const std::lock_guard<std::mutex> lock(other.mu_);
  store_ = other.store_;
  plan_ = other.plan_;
  scratch_.bits.Reset(store_.regions());
  RechargeAux();
}

DeltaEngine& DeltaEngine::operator=(const DeltaEngine& other) {
  if (this != &other) {
    DeltaEngine copy(other);  // Locks `other`; swap-free two-step keeps the
    *this = std::move(copy);  // lock ordering trivial (never holds both).
  }
  return *this;
}

// Moving from an engine that another thread is mutating is a caller bug, so
// the move operations skip the (throwing) lock and stay noexcept.
DeltaEngine::DeltaEngine(DeltaEngine&& other) noexcept
    : store_(std::move(other.store_)),
      plan_(std::move(other.plan_)),
      scratch_(std::move(other.scratch_)),
      aux_charged_(std::exchange(other.aux_charged_, 0)) {}

DeltaEngine& DeltaEngine::operator=(DeltaEngine&& other) noexcept {
  if (this != &other) {
    if (aux_charged_ != 0) CARDIR_MEMSTAT_FREE("delta_engine", aux_charged_);
    store_ = std::move(other.store_);
    plan_ = std::move(other.plan_);
    scratch_ = std::move(other.scratch_);
    aux_charged_ = std::exchange(other.aux_charged_, 0);
  }
  return *this;
}

Result<DeltaEngine> DeltaEngine::Build(
    const std::vector<const Region*>& regions, const EngineOptions& options,
    EngineStats* stats) {
  DeltaEngine engine;
  Result<RelationStore> store = SweepJoin(regions, options, stats,
                                          &engine.plan_);
  if (!store.ok()) return store.status();
  engine.store_ = std::move(*store);
  engine.scratch_.bits.Reset(regions.size());
  engine.RechargeAux();
  return engine;
}

void DeltaEngine::GatherAffected(size_t id, bool all_rows,
                                 const Box& old_box, const Box& new_box) {
  DeltaScratch& ws = scratch_;
  ws.affected.clear();
  const size_t n = store_.regions();
  if (all_rows) {
    // A degenerate box (old or new) pairs explicitly with everyone; the
    // index queries can't bound that, so the whole id space is dirty.
    ws.affected.reserve(n);
    for (size_t j = 0; j < n; ++j) {
      if (j != id) ws.affected.push_back(static_cast<uint32_t>(j));
    }
    return;
  }
  ws.bits.Reset(n);
  const auto mark = [&ws](uint32_t j) { ws.bits.Mark(j); };
  // An empty Box() (inverted bounds) overlaps nothing.
  for (const Box& box : {old_box, new_box}) {
    plan_.x_index.ForEachOverlap(box.min_x(), box.max_x(), mark);
    plan_.y_index.ForEachOverlap(box.min_y(), box.max_y(), mark);
  }
  for (const uint32_t j : plan_.degenerate_ids) ws.bits.Mark(j);
  if (id < n) ws.bits.Clear(static_cast<uint32_t>(id));
  ws.bits.Drain([&ws](uint32_t j) { ws.affected.push_back(j); });
}

void DeltaEngine::SetDegenerate(size_t id, bool degenerate) {
  std::vector<uint32_t>& ids = plan_.degenerate_ids;
  const uint32_t id32 = static_cast<uint32_t>(id);
  const auto it = std::lower_bound(ids.begin(), ids.end(), id32);
  const bool present = it != ids.end() && *it == id32;
  if (degenerate && !present) {
    ids.insert(it, id32);
  } else if (!degenerate && present) {
    ids.erase(it);
  }
}

void DeltaEngine::SampleDirty(size_t id) {
  DeltaScratch& ws = scratch_;
  ws.row.assign(ws.affected.size(), PairEdit{});
  ws.column.assign(ws.affected.size(), PairEdit{});
  // A new region postdates every base row: nothing was explicit with it.
  if (id >= store_.regions()) return;
  for (size_t k = 0; k < ws.affected.size(); ++k) {
    const uint32_t j = ws.affected[k];
    ws.row[k].was_explicit = store_.IsExplicit(id, j) ? 1 : 0;
    ws.column[k].was_explicit = store_.IsExplicit(j, id) ? 1 : 0;
  }
}

void DeltaEngine::ResolveDirty(size_t id, const Region& geometry,
                               const RegionAccessor& region_at,
                               DeltaResult* result) {
  CARDIR_TRACE_SPAN("delta.resolve");
  DeltaScratch& ws = scratch_;
  const RegionProfile& profile = store_.profile_;
  const Box id_box = profile.box(id);
  CdrMetricsDelta cdr_metrics;
  result->touched.reserve(ws.affected.size() * 2);
  for (size_t k = 0; k < ws.affected.size(); ++k) {
    const uint32_t j = ws.affected[k];
    const uint8_t code_ij = ClassPairCode(profile, id, j);
    if (!RelationStore::ResolvableCode(code_ij)) {
      ws.row[k].now_explicit = 1;
      ws.row[k].mask = ResolveExplicitMask(code_ij, geometry, profile.box(j),
                                           profile, id, j, plan_.poly,
                                           &cdr_metrics, &ws.cdr);
      ++result->pairs_reresolved;
    } else {
      ++result->pairs_implicit;
    }
    const uint8_t code_ji = ClassPairCode(profile, j, id);
    if (!RelationStore::ResolvableCode(code_ji)) {
      ws.column[k].now_explicit = 1;
      ws.column[k].mask =
          ResolveExplicitMask(code_ji, region_at(j), id_box, profile, j, id,
                              plan_.poly, &cdr_metrics, &ws.cdr);
      ++result->pairs_reresolved;
    } else {
      ++result->pairs_implicit;
    }
    result->touched.emplace_back(static_cast<uint32_t>(id), j);
    result->touched.emplace_back(j, static_cast<uint32_t>(id));
  }
  cdr_metrics.FlushToRegistry();
}

void DeltaEngine::PatchColumn(size_t id) {
  const DeltaScratch& ws = scratch_;
  for (size_t k = 0; k < ws.affected.size(); ++k) {
    const PairEdit& change = ws.column[k];
    if (change.was_explicit != 0 || change.now_explicit != 0) {
      store_.PatchPair(ws.affected[k], id, change);
    }
  }
}

void DeltaEngine::PatchDirty(size_t id) {
  CARDIR_TRACE_SPAN("delta.patch");
  PatchColumn(id);
  store_.PatchRow(id, scratch_.affected, scratch_.row);
  store_.RechargeMem();
}

DeltaResult DeltaEngine::ResolveAndPatch(size_t id, const Region& geometry,
                                         const RegionAccessor& region_at,
                                         uint64_t start_us,
                                         const char* event) {
  DeltaResult result;
  ResolveDirty(id, geometry, region_at, &result);
  PatchDirty(id);
  RechargeAux();
  PublishIndexHealth();

  result.apply_us = obs::TraceNowMicros() - start_us;
  CARDIR_METRIC_COUNT("delta.pairs_reresolved", result.pairs_reresolved);
  CARDIR_METRIC_COUNT("delta.pairs_implicit", result.pairs_implicit);
  CARDIR_METRIC_OBSERVE("delta.apply_us", result.apply_us);
  CARDIR_RECORD_EVENT(kDelta, event, id, result.touched.size());
  return result;
}

void DeltaEngine::PublishIndexHealth() const {
  CARDIR_METRIC_GAUGE_SET(
      "delta.index.pending",
      std::max(plan_.x_index.pending(), plan_.y_index.pending()));
  CARDIR_METRIC_GAUGE_SET("delta.index.rebuild_threshold",
                          plan_.x_index.rebuild_threshold());
}

Result<DeltaResult> DeltaEngine::Insert(const Region& region,
                                        const RegionAccessor& region_at) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t start_us = obs::TraceNowMicros();
  const Status valid = region.Validate();
  if (!valid.ok()) return valid;
  const size_t id = store_.regions();
  const Box box = region.BoundingBox();
  const bool degenerate = box.IsEmpty() || box.IsDegenerate();

  {
    // Dirty set: candidates of the new box only — the column postdates
    // every base row, so nothing was explicit against it before.
    CARDIR_TRACE_SPAN("delta.gather");
    GatherAffected(id, degenerate, /*old_box=*/Box(), box);
    SampleDirty(id);
  }

  store_.AppendRegion(box);
  plan_.poly.AppendRegion(region);
  plan_.x_index.Append(XIntervals(store_.profile_));
  plan_.y_index.Append(YIntervals(store_.profile_));
  if (degenerate) plan_.degenerate_ids.push_back(static_cast<uint32_t>(id));
  return ResolveAndPatch(id, region, region_at, start_us, "delta.insert");
}

Result<DeltaResult> DeltaEngine::Move(size_t id, const Region& geometry,
                                      const RegionAccessor& region_at) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t start_us = obs::TraceNowMicros();
  if (id >= store_.regions()) {
    return Status::InvalidArgument("Move: region id out of range");
  }
  const Status valid = geometry.Validate();
  if (!valid.ok()) return valid;

  const RegionProfile& profile = store_.profile_;
  const Box new_box = geometry.BoundingBox();
  const bool new_degenerate = new_box.IsEmpty() || new_box.IsDegenerate();
  {
    CARDIR_TRACE_SPAN("delta.gather");
    GatherAffected(id, profile.cross_override[id] != 0 || new_degenerate,
                   profile.box(id), new_box);
    // (id, j) and (j, id) explicitness must be sampled before the profile
    // moves: it is the `was_explicit` the patches need to know whether the
    // base row still carries a slot for the pair.
    SampleDirty(id);
  }

  store_.SetRegionBox(id, new_box);
  plan_.poly.ReplaceRegion(id, geometry);
  plan_.x_index.Update(id, XIntervals(profile));
  plan_.y_index.Update(id, YIntervals(profile));
  SetDegenerate(id, new_degenerate);

  // Re-resolve the dirty pairs against the updated profile: row id is
  // patched in one merge, column id in every affected row.
  return ResolveAndPatch(id, geometry, region_at, start_us, "delta.move");
}

Result<DeltaResult> DeltaEngine::Remove(size_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t start_us = obs::TraceNowMicros();
  if (id >= store_.regions()) {
    return Status::InvalidArgument("Remove: region id out of range");
  }
  const RegionProfile& profile = store_.profile_;
  {
    CARDIR_TRACE_SPAN("delta.gather");
    GatherAffected(id, profile.cross_override[id] != 0,
                   profile.box(id), /*new_box=*/Box());
    SampleDirty(id);
  }
  const DeltaScratch& ws = scratch_;

  DeltaResult result;
  result.touched.reserve(ws.affected.size() * 2);
  for (const uint32_t j : ws.affected) {
    result.touched.emplace_back(static_cast<uint32_t>(id), j);
    result.touched.emplace_back(j, static_cast<uint32_t>(id));
  }
  {
    // EraseRegion's precondition: every explicit (j, id) patched implicit
    // first, so the base slots of column id are on record and convert to
    // ghosts. The dirty set is exactly those pairs (completeness bound).
    CARDIR_TRACE_SPAN("delta.patch");
    PatchColumn(id);
    store_.EraseRegion(id);
    plan_.poly.EraseRegion(id);
    store_.RechargeMem();
  }
  // After EraseRegion: the indexes read their intervals from the profile.
  plan_.x_index.Remove(id, XIntervals(profile));
  plan_.y_index.Remove(id, YIntervals(profile));
  SetDegenerate(id, false);
  std::vector<uint32_t>& degenerate_ids = plan_.degenerate_ids;
  for (auto it = std::lower_bound(degenerate_ids.begin(),
                                  degenerate_ids.end(),
                                  static_cast<uint32_t>(id));
       it != degenerate_ids.end(); ++it) {
    --*it;  // Ids above the erased one renumber down.
  }
  RechargeAux();
  PublishIndexHealth();

  // Every dirty pair ends non-explicit (deleted with the region).
  result.pairs_implicit = result.touched.size();
  result.apply_us = obs::TraceNowMicros() - start_us;
  CARDIR_METRIC_COUNT("delta.pairs_implicit", result.pairs_implicit);
  CARDIR_METRIC_OBSERVE("delta.apply_us", result.apply_us);
  CARDIR_RECORD_EVENT(kDelta, "delta.remove", id, result.touched.size());
  return result;
}

uint64_t DeltaEngine::Digest() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return store_.Digest();
}

size_t DeltaEngine::bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return store_.bytes() + plan_.bytes() + scratch_.bytes();
}

void DeltaEngine::RechargeAux() {
  const size_t now = plan_.bytes() + scratch_.bytes();
  const size_t grew = now > aux_charged_ ? now - aux_charged_ : 0;
  const size_t shrank = now < aux_charged_ ? aux_charged_ - now : 0;
  if (grew != 0) CARDIR_MEMSTAT_ALLOC("delta_engine", grew);
  if (shrank != 0) CARDIR_MEMSTAT_FREE("delta_engine", shrank);
  aux_charged_ = now;
}

}  // namespace cardir
