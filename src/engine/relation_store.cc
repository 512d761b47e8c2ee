#include "engine/relation_store.h"

namespace cardir {

CardinalRelation RelationStore::Relation(size_t primary,
                                         size_t reference) const {
  if (primary == reference) return CardinalRelation();
  if (!loose_.empty()) {
    const auto it = loose_.find(static_cast<uint32_t>(primary));
    if (it != loose_.end()) {
      const LooseRow& row = it->second;
      const auto pos = std::lower_bound(row.cols.begin(), row.cols.end(),
                                        static_cast<uint32_t>(reference));
      if (pos != row.cols.end() && *pos == reference) {
        return CardinalRelation::FromMask(
            row.masks[static_cast<size_t>(pos - row.cols.begin())]);
      }
      return (*relations_)[ClassPairCode(profile_, primary, reference)];
    }
  }
  const uint8_t code = ClassPairCode(profile_, primary, reference);
  const std::vector<RowPatch>* patches = FindPatches(primary);
  if (patches != nullptr) {
    auto pos = std::lower_bound(
        patches->begin(), patches->end(), static_cast<uint32_t>(reference),
        [](const RowPatch& patch, uint32_t col) { return patch.col < col; });
    while (pos != patches->end() && pos->col == reference &&
           pos->is_ghost != 0) {
      ++pos;
    }
    if (pos != patches->end() && pos->col == reference) {
      if (pos->is_explicit != 0) return CardinalRelation::FromMask(pos->mask);
      return (*relations_)[code];
    }
  }
  if (ResolvableCode(code)) return (*relations_)[code];
  // Rank `reference` among the row's base-consuming columns: the overlay
  // stores masks in ascending reference order with no indices, so
  // membership (an O(1) classification per column, adjusted by the row's
  // patch flags) doubles as the rank function.
  uint64_t rank = row_offsets_[primary];
  if (patches == nullptr) {
    for (size_t j = 0; j < reference; ++j) {
      if (j == primary) continue;
      if (!ResolvableCode(ClassPairCode(profile_, primary, j))) ++rank;
    }
    return CardinalRelation::FromMask(overlay_masks_[rank]);
  }
  size_t pi = 0;
  const size_t pn = patches->size();
  for (size_t j = 0; j < reference; ++j) {
    while (pi < pn && (*patches)[pi].col == j && (*patches)[pi].is_ghost) {
      ++rank;
      ++pi;
    }
    if (j == primary) continue;
    if (pi < pn && (*patches)[pi].col == j) {
      if ((*patches)[pi].consumes_base != 0) ++rank;
      ++pi;
    } else if (!ResolvableCode(ClassPairCode(profile_, primary, j))) {
      ++rank;
    }
  }
  // Ghosts parked at `reference` consume before its own slot.
  while (pi < pn && (*patches)[pi].col == reference &&
         (*patches)[pi].is_ghost) {
    ++rank;
    ++pi;
  }
  return CardinalRelation::FromMask(overlay_masks_[rank]);
}

uint64_t RelationStore::Digest() const {
  uint64_t digest = 0;
  ForEach([&digest](size_t i, size_t j, const CardinalRelation& relation) {
    digest += MixPairDigest(i, j, relation.mask());
  });
  return digest;
}

void RelationStore::SetRegionBox(size_t id, const Box& box) {
  profile_.min_x[id] = box.min_x();
  profile_.max_x[id] = box.max_x();
  profile_.min_y[id] = box.min_y();
  profile_.max_y[id] = box.max_y();
  profile_.cross_override[id] =
      (box.IsEmpty() || box.IsDegenerate()) ? 0x0f : 0x00;
}

void RelationStore::AppendRegion(const Box& box) {
  profile_.min_x.push_back(box.min_x());
  profile_.max_x.push_back(box.max_x());
  profile_.min_y.push_back(box.min_y());
  profile_.max_y.push_back(box.max_y());
  profile_.cross_override.push_back(
      (box.IsEmpty() || box.IsDegenerate()) ? 0x0f : 0x00);
  row_offsets_.push_back(row_offsets_.back());
}

void RelationStore::ReplaceRow(size_t row, std::vector<uint32_t> cols,
                               std::vector<uint16_t> masks) {
  assert(cols.size() == masks.size());
  assert(std::is_sorted(cols.begin(), cols.end()));
  LooseRow& loose = loose_[static_cast<uint32_t>(row)];
  loose.cols = std::move(cols);
  loose.masks = std::move(masks);
  patches_.erase(static_cast<uint32_t>(row));
}

void RelationStore::PatchPair(size_t row, size_t col, bool was_explicit,
                              bool now_explicit, uint16_t mask) {
  const uint32_t row32 = static_cast<uint32_t>(row);
  const uint32_t col32 = static_cast<uint32_t>(col);
  if (!loose_.empty()) {
    const auto lit = loose_.find(row32);
    if (lit != loose_.end()) {
      // Loose row: edit the explicit column list in place.
      LooseRow& loose = lit->second;
      auto pos = std::lower_bound(loose.cols.begin(), loose.cols.end(), col32);
      const size_t k = static_cast<size_t>(pos - loose.cols.begin());
      const bool present = pos != loose.cols.end() && *pos == col32;
      if (now_explicit) {
        if (present) {
          loose.masks[k] = mask;
        } else {
          loose.cols.insert(pos, col32);
          loose.masks.insert(loose.masks.begin() + static_cast<ptrdiff_t>(k),
                             mask);
        }
      } else if (present) {
        loose.cols.erase(pos);
        loose.masks.erase(loose.masks.begin() + static_cast<ptrdiff_t>(k));
      }
      return;
    }
  }
  const auto pit = patches_.find(row32);
  std::vector<RowPatch>* list = pit == patches_.end() ? nullptr : &pit->second;
  if (list != nullptr) {
    auto pos = std::lower_bound(
        list->begin(), list->end(), col32,
        [](const RowPatch& patch, uint32_t c) { return patch.col < c; });
    while (pos != list->end() && pos->col == col32 && pos->is_ghost != 0) {
      ++pos;
    }
    if (pos != list->end() && pos->col == col32) {
      // Existing override: keep its base-slot flag (set at first patch,
      // when "before" still meant base-build time).
      if (!now_explicit && pos->consumes_base == 0) {
        list->erase(pos);  // Degenerated to a no-op entry.
      } else {
        pos->is_explicit = now_explicit ? 1 : 0;
        pos->mask = mask;
      }
      return;
    }
    if (!was_explicit && !now_explicit) return;
    RowPatch patch;
    patch.col = col32;
    patch.consumes_base = was_explicit ? 1 : 0;
    patch.is_explicit = now_explicit ? 1 : 0;
    patch.mask = mask;
    list->insert(pos, patch);
    return;
  }
  if (!was_explicit && !now_explicit) return;
  RowPatch patch;
  patch.col = col32;
  patch.consumes_base = was_explicit ? 1 : 0;
  patch.is_explicit = now_explicit ? 1 : 0;
  patch.mask = mask;
  patches_[row32].push_back(patch);
}

void RelationStore::EraseRegion(size_t id) {
  const uint32_t id32 = static_cast<uint32_t>(id);
  // Base: drop row id's slots (orphaned or not) and its offset entry; rows
  // above shift down by the dropped count.
  const uint64_t begin = row_offsets_[id];
  const uint64_t count = row_offsets_[id + 1] - begin;
  overlay_masks_.erase(
      overlay_masks_.begin() + static_cast<ptrdiff_t>(begin),
      overlay_masks_.begin() + static_cast<ptrdiff_t>(begin + count));
  for (size_t r = id; r + 1 < row_offsets_.size(); ++r) {
    row_offsets_[r] = row_offsets_[r + 1] - count;
  }
  row_offsets_.pop_back();
  // Profile entry.
  const ptrdiff_t at = static_cast<ptrdiff_t>(id);
  profile_.min_x.erase(profile_.min_x.begin() + at);
  profile_.max_x.erase(profile_.max_x.begin() + at);
  profile_.min_y.erase(profile_.min_y.begin() + at);
  profile_.max_y.erase(profile_.max_y.begin() + at);
  profile_.cross_override.erase(profile_.cross_override.begin() + at);
  // Loose rows: drop the erased column, renumber columns and row keys.
  std::unordered_map<uint32_t, LooseRow> loose;
  loose.reserve(loose_.size());
  for (auto& entry : loose_) {
    if (entry.first == id32) continue;
    LooseRow& row = entry.second;
    auto pos = std::lower_bound(row.cols.begin(), row.cols.end(), id32);
    if (pos != row.cols.end() && *pos == id32) {
      row.masks.erase(row.masks.begin() + (pos - row.cols.begin()));
      pos = row.cols.erase(pos);
    }
    for (auto it = pos; it != row.cols.end(); ++it) --*it;
    loose.emplace(entry.first > id32 ? entry.first - 1 : entry.first,
                  std::move(row));
  }
  loose_ = std::move(loose);
  // Patch lists: the erased column's base-consuming overrides become
  // ghosts (their orphaned base slot outlives the column), its other
  // overrides drop, higher columns renumber. The transform is monotone on
  // (col, ghosts-first), so the list order is preserved.
  std::unordered_map<uint32_t, std::vector<RowPatch>> patches;
  patches.reserve(patches_.size());
  for (auto& entry : patches_) {
    if (entry.first == id32) continue;
    std::vector<RowPatch> out;
    out.reserve(entry.second.size());
    for (RowPatch patch : entry.second) {
      if (patch.is_ghost != 0) {
        if (patch.col > id32) --patch.col;
        out.push_back(patch);
      } else if (patch.col == id32) {
        if (patch.consumes_base != 0) {
          RowPatch ghost;
          ghost.col = id32;
          ghost.consumes_base = 1;
          ghost.is_ghost = 1;
          out.push_back(ghost);
        }
      } else {
        if (patch.col > id32) --patch.col;
        out.push_back(patch);
      }
    }
    if (!out.empty()) {
      patches.emplace(entry.first > id32 ? entry.first - 1 : entry.first,
                      std::move(out));
    }
  }
  patches_ = std::move(patches);
}

void RelationStore::MaybeCompactRow(size_t row) {
  const auto it = patches_.find(static_cast<uint32_t>(row));
  if (it == patches_.end() || it->second.size() <= kCompactPatches) return;
  // Rebuild the row as a loose row via one merged walk; the current codes
  // decide explicitness (patches never disagree with them — they exist to
  // keep the base cursor aligned and to carry masks).
  LooseRow loose;
  ForEachInRow(row, [this, row, &loose](size_t j,
                                        const CardinalRelation& relation) {
    if (!ResolvableCode(ClassPairCode(profile_, row, j))) {
      loose.cols.push_back(static_cast<uint32_t>(j));
      loose.masks.push_back(relation.mask());
    }
  });
  loose_[static_cast<uint32_t>(row)] = std::move(loose);
  patches_.erase(static_cast<uint32_t>(row));
}

}  // namespace cardir
