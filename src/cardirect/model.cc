#include "cardirect/model.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/compute_cdr_percent.h"
#include "util/string_util.h"

namespace cardir {

namespace {

// An id_slots_ entry that holds no position.
constexpr uint32_t kFreeSlot = std::numeric_limits<uint32_t>::max();

size_t HomeSlot(const std::string& id, size_t mask) {
  return std::hash<std::string>{}(id) & mask;
}

// The slot holding the position of `id`, or the free slot that ends its
// probe chain. `slots` is a power of two in size and never full.
size_t ProbeSlot(const std::vector<uint32_t>& slots,
                 const std::vector<AnnotatedRegion>& regions,
                 const std::string& id) {
  const size_t mask = slots.size() - 1;
  size_t slot = HomeSlot(id, mask);
  while (slots[slot] != kFreeSlot && regions[slots[slot]].id != id) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

}  // namespace

size_t Configuration::PositionOf(const std::string& id) const {
  if (id_slots_.empty()) return regions_.size();
  const uint32_t position = id_slots_[ProbeSlot(id_slots_, regions_, id)];
  return position == kFreeSlot ? regions_.size() : position;
}

void Configuration::IndexPosition(size_t position) {
  const size_t mask = id_slots_.size() - 1;
  size_t slot = HomeSlot(regions_[position].id, mask);
  while (id_slots_[slot] != kFreeSlot) slot = (slot + 1) & mask;
  id_slots_[slot] = static_cast<uint32_t>(position);
}

void Configuration::UnindexPosition(size_t position) {
  // Backward-shift erase: walk the rest of the probe chain and pull each
  // entry whose home slot does not lie between the hole and itself back
  // into the hole, so no chain is broken by the freed slot.
  const size_t mask = id_slots_.size() - 1;
  size_t hole = ProbeSlot(id_slots_, regions_, regions_[position].id);
  for (size_t slot = (hole + 1) & mask; id_slots_[slot] != kFreeSlot;
       slot = (slot + 1) & mask) {
    const size_t home = HomeSlot(regions_[id_slots_[slot]].id, mask);
    if (((slot - home) & mask) >= ((slot - hole) & mask)) {
      id_slots_[hole] = id_slots_[slot];
      hole = slot;
    }
  }
  id_slots_[hole] = kFreeSlot;
  // One contiguous pass: the regions after `position` move down by one.
  // Branch-free: free and occupied slots alternate unpredictably, so a
  // branch per slot mispredicts often.
  const uint32_t removed = static_cast<uint32_t>(position);
  for (uint32_t& entry : id_slots_) {
    entry -= static_cast<uint32_t>(entry > removed && entry != kFreeSlot);
  }
}

Status Configuration::AddRegion(AnnotatedRegion region) {
  if (region.id.empty()) {
    return Status::InvalidArgument("region id must not be empty");
  }
  if (PositionOf(region.id) != regions_.size()) {
    return Status::AlreadyExists("duplicate region id: '" + region.id + "'");
  }
  region.geometry.EnsureClockwise();
  Status status = region.geometry.Validate();
  if (!status.ok()) {
    return Status::InvalidArgument("region '" + region.id +
                                   "': " + status.message());
  }
  if (delta_.has_value()) {
    // Keep the computed store complete: resolve the new region's pairs
    // incrementally instead of invalidating n·(n−1) relations.
    Result<DeltaResult> applied =
        delta_->Insert(region.geometry, GeometryAt());
    if (!applied.ok()) return applied.status();
  }
  regions_.push_back(std::move(region));
  if (2 * regions_.size() > id_slots_.size()) {
    // Keep the table at most half full: rebuild it at twice the size.
    id_slots_.assign(std::max<size_t>(16, 2 * id_slots_.size()), kFreeSlot);
    for (size_t position = 0; position < regions_.size(); ++position) {
      IndexPosition(position);
    }
  } else {
    IndexPosition(regions_.size() - 1);
  }
  return Status::Ok();
}

Status Configuration::RemoveRegion(const std::string& id) {
  const size_t index = PositionOf(id);
  if (index == regions_.size()) {
    return Status::NotFound("no region with id '" + id + "'");
  }
  if (delta_.has_value()) {
    // Delta-maintain the computed store: only the removed region's pairs
    // go, everything else keeps its stored relation.
    Result<DeltaResult> applied = delta_->Remove(index);
    if (!applied.ok()) return applied.status();
  } else {
    relations_.erase(
        std::remove_if(relations_.begin(), relations_.end(),
                       [&id](const RelationRecord& rec) {
                         return rec.primary_id == id || rec.reference_id == id;
                       }),
        relations_.end());
  }
  UnindexPosition(index);
  regions_.erase(regions_.begin() + static_cast<std::ptrdiff_t>(index));
  return Status::Ok();
}

Status Configuration::AddPolygonToRegion(const std::string& id,
                                         Polygon polygon) {
  const size_t index = PositionOf(id);
  if (index == regions_.size()) {
    return Status::NotFound("no region with id '" + id + "'");
  }
  polygon.EnsureClockwise();
  CARDIR_RETURN_IF_ERROR(polygon.Validate());
  AnnotatedRegion& region = regions_[index];
  region.geometry.AddPolygon(std::move(polygon));
  if (delta_.has_value()) {
    // Re-resolve just this region's dirty pairs against the grown geometry.
    Result<DeltaResult> applied =
        delta_->Move(index, region.geometry, GeometryAt());
    if (!applied.ok()) return applied.status();
    return Status::Ok();
  }
  // XML-loaded records involving this region are stale now.
  relations_.erase(
      std::remove_if(relations_.begin(), relations_.end(),
                     [&id](const RelationRecord& rec) {
                       return rec.primary_id == id || rec.reference_id == id;
                     }),
      relations_.end());
  return Status::Ok();
}

Status Configuration::SetRelations(std::vector<RelationRecord> relations) {
  // One (primary position << 32 | reference position) key per record, so a
  // pair stated twice sorts next to itself.
  std::vector<uint64_t> pairs;
  pairs.reserve(relations.size());
  for (const RelationRecord& record : relations) {
    const size_t primary = PositionOf(record.primary_id);
    const size_t reference = PositionOf(record.reference_id);
    if (primary == regions_.size() || reference == regions_.size()) {
      return Status::NotFound("relation names an unknown region id");
    }
    if (primary == reference || record.relation.IsEmpty()) {
      return Status::InvalidArgument(
          "relation primary='" + record.primary_id + "' reference='" +
          record.reference_id + "' " +
          (primary == reference ? "relates a region to itself"
                                : "is the empty relation"));
    }
    pairs.push_back(static_cast<uint64_t>(primary) << 32 | reference);
  }
  std::sort(pairs.begin(), pairs.end());
  const auto duplicate = std::adjacent_find(pairs.begin(), pairs.end());
  if (duplicate != pairs.end()) {
    return Status::ParseError("<Relation> states the pair primary='" +
                              regions_[*duplicate >> 32].id + "' reference='" +
                              regions_[*duplicate & 0xffffffffu].id +
                              "' more than once");
  }
  relations_ = std::move(relations);
  delta_.reset();
  return Status::Ok();
}

const AnnotatedRegion* Configuration::FindRegion(const std::string& id) const {
  const size_t position = PositionOf(id);
  return position < regions_.size() ? &regions_[position] : nullptr;
}

std::vector<const AnnotatedRegion*> Configuration::RegionsByColor(
    const std::string& color) const {
  std::vector<const AnnotatedRegion*> out;
  for (const AnnotatedRegion& region : regions_) {
    if (region.color == color) out.push_back(&region);
  }
  return out;
}

Status Configuration::ComputeAllRelations(const EngineOptions& options,
                                          EngineStats* stats) {
  std::vector<const Region*> geometries;
  geometries.reserve(regions_.size());
  for (const AnnotatedRegion& region : regions_) {
    geometries.push_back(&region.geometry);
  }
  // Sweep join instead of all-pairs: the result is held as profile +
  // explicit-pair overlay (indices parallel regions_), not as n·(n−1)
  // id-keyed records — at engine scale the records themselves were the
  // dominant allocation. The engine keeps the sweep's plan for the edits.
  // Drop the old engine first: two live engines left heap holes that
  // raised repeated computes' peak resident set (DESIGN §3.27).
  delta_.reset();
  Result<DeltaEngine> engine = DeltaEngine::Build(geometries, options, stats);
  if (!engine.ok()) return engine.status();
  delta_ = std::move(*engine);
  relations_.clear();
  return Status::Ok();
}

DeltaEngine::RegionAccessor Configuration::GeometryAt() const {
  return [this](size_t j) -> const Region& { return regions_[j].geometry; };
}

std::optional<CardinalRelation> Configuration::StoredRelation(
    const std::string& primary_id, const std::string& reference_id) const {
  const RelationStore* store = relation_store();
  if (store != nullptr) {
    const size_t primary = PositionOf(primary_id);
    const size_t reference = PositionOf(reference_id);
    if (primary == regions_.size() || reference == regions_.size() ||
        primary == reference) {
      return std::nullopt;
    }
    return store->Relation(primary, reference);
  }
  for (const RelationRecord& record : relations_) {
    if (record.primary_id == primary_id &&
        record.reference_id == reference_id) {
      return record.relation;
    }
  }
  return std::nullopt;
}

Result<PercentageMatrix> Configuration::ComputePercentages(
    const std::string& primary_id, const std::string& reference_id) const {
  const AnnotatedRegion* primary = FindRegion(primary_id);
  if (primary == nullptr) {
    return Status::NotFound("no region with id '" + primary_id + "'");
  }
  const AnnotatedRegion* reference = FindRegion(reference_id);
  if (reference == nullptr) {
    return Status::NotFound("no region with id '" + reference_id + "'");
  }
  return ComputeCdrPercent(primary->geometry, reference->geometry);
}

}  // namespace cardir
