#include "engine/relation_store.h"

#include "audit/audit.h"

namespace cardir {

CardinalRelation RelationStore::Relation(size_t primary,
                                         size_t reference) const {
  if (primary == reference) return CardinalRelation();
  const RowEdit* edit = FindEdit(primary);
  if (edit != nullptr && edit->loose) {
    const auto pos = std::lower_bound(edit->cols.begin(), edit->cols.end(),
                                      static_cast<uint32_t>(reference));
    if (pos != edit->cols.end() && *pos == reference) {
      return CardinalRelation::FromMask(
          edit->masks[static_cast<size_t>(pos - edit->cols.begin())]);
    }
    return (*relations_)[ClassPairCode(profile_, primary, reference)];
  }
  const uint8_t code = ClassPairCode(profile_, primary, reference);
  const std::vector<RowPatch>* patches =
      edit != nullptr ? &edit->patches : nullptr;
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
  if (!edit_slot_.empty()) edit_slot_.push_back(kNoEdit);
}

RelationStore::RowEdit& RelationStore::EditFor(size_t row) {
  if (edit_slot_.empty()) edit_slot_.assign(regions(), kNoEdit);
  uint32_t& slot = edit_slot_[row];
  if (slot == kNoEdit) {
    slot = static_cast<uint32_t>(edits_.size());
    edits_.emplace_back().row = static_cast<uint32_t>(row);
  }
  return edits_[slot];
}

void RelationStore::DropEditAt(uint32_t slot) {
  edit_heap_bytes_ -= HeapBytes(edits_[slot]);
  edit_slot_[edits_[slot].row] = kNoEdit;
  if (slot + 1 != edits_.size()) {
    edits_[slot] = std::move(edits_.back());
    edit_slot_[edits_[slot].row] = slot;
  }
  edits_.pop_back();
}

void RelationStore::ReplaceRow(size_t row, std::vector<uint32_t> cols,
                               std::vector<uint16_t> masks) {
  assert(cols.size() == masks.size());
  assert(std::is_sorted(cols.begin(), cols.end()));
  RowEdit& edit = EditFor(row);
  const size_t before = HeapBytes(edit);
  edit.loose = true;
  edit.cols = std::move(cols);
  edit.masks = std::move(masks);
  edit.patches = std::vector<RowPatch>();  // Release, not just clear.
  edit_heap_bytes_ = edit_heap_bytes_ + HeapBytes(edit) - before;
}

void RelationStore::PatchPair(size_t row, size_t col, bool was_explicit,
                              bool now_explicit, uint16_t mask) {
  RowEdit* edit = FindEdit(row);
  if (edit == nullptr) {
    if (!was_explicit && !now_explicit) return;
    edit = &EditFor(row);
  }
  const uint32_t col32 = static_cast<uint32_t>(col);
  const size_t before = HeapBytes(*edit);
  if (edit->loose) {
    // Loose row: edit the explicit column list in place.
    auto pos = std::lower_bound(edit->cols.begin(), edit->cols.end(), col32);
    const size_t k = static_cast<size_t>(pos - edit->cols.begin());
    const bool present = pos != edit->cols.end() && *pos == col32;
    if (now_explicit) {
      if (present) {
        edit->masks[k] = mask;
      } else {
        if (edit->cols.size() == edit->cols.capacity()) {
          // Grow a full row by an eighth, not by doubling: the insert
          // memmoves the row anyway, so this keeps it O(row) per insert
          // while a row's slack stays a fraction of its live columns.
          const size_t grown = edit->cols.size() + edit->cols.size() / 8 + 4;
          edit->cols.reserve(grown);
          edit->masks.reserve(grown);
        }
        edit->cols.insert(edit->cols.begin() + static_cast<ptrdiff_t>(k),
                          col32);
        edit->masks.insert(edit->masks.begin() + static_cast<ptrdiff_t>(k),
                           mask);
      }
    } else if (present) {
      edit->cols.erase(pos);
      edit->masks.erase(edit->masks.begin() + static_cast<ptrdiff_t>(k));
    }
  } else {
    std::vector<RowPatch>& list = edit->patches;
    auto pos = std::lower_bound(
        list.begin(), list.end(), col32,
        [](const RowPatch& entry, uint32_t c) { return entry.col < c; });
    while (pos != list.end() && pos->col == col32 && pos->is_ghost != 0) {
      ++pos;
    }
    if (pos != list.end() && pos->col == col32) {
      // Existing override: keep its base-slot flag (set at first patch,
      // when "before" still meant base-build time).
      if (!now_explicit && pos->consumes_base == 0) {
        list.erase(pos);  // Degenerated to a no-op entry.
      } else {
        pos->is_explicit = now_explicit ? 1 : 0;
        pos->mask = mask;
      }
    } else if (was_explicit || now_explicit) {
      RowPatch patch;
      patch.col = col32;
      patch.consumes_base = was_explicit ? 1 : 0;
      patch.is_explicit = now_explicit ? 1 : 0;
      patch.mask = mask;
      list.insert(pos, patch);
    }
  }
  edit_heap_bytes_ = edit_heap_bytes_ + HeapBytes(*edit) - before;
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
  if (edit_slot_.empty()) return;
  // Edit layer, renumbered in place: row id's record goes, rows and
  // columns above id move down by one.
  if (edit_slot_[id] != kNoEdit) DropEditAt(edit_slot_[id]);
  edit_slot_.erase(edit_slot_.begin() + at);
  // Backwards, so a record DropEditAt moves into the current slot has
  // already been renumbered.
  for (uint32_t slot = static_cast<uint32_t>(edits_.size()); slot-- > 0;) {
    RowEdit& edit = edits_[slot];
    if (edit.row > id32) --edit.row;
    if (edit.loose) {
      // Loose row: drop the erased column, renumber the ones above it.
      auto pos = std::lower_bound(edit.cols.begin(), edit.cols.end(), id32);
      if (pos != edit.cols.end() && *pos == id32) {
        edit.masks.erase(edit.masks.begin() + (pos - edit.cols.begin()));
        pos = edit.cols.erase(pos);
      }
      for (auto it = pos; it != edit.cols.end(); ++it) --*it;
      continue;
    }
    // Patch list: the erased column's base-consuming overrides become
    // ghosts (their orphaned base slot outlives the column), its other
    // overrides drop, higher columns renumber. Each entry maps to at most
    // one, and the map is monotone on (col, ghosts-first), so the list
    // compacts in place and stays sorted. A list left empty is freed.
    size_t out = 0;
    for (RowPatch patch : edit.patches) {
      if (patch.is_ghost == 0 && patch.col == id32) {
        if (patch.consumes_base == 0) continue;
        patch.is_ghost = 1;
        patch.is_explicit = 0;
        patch.mask = 0;
      } else if (patch.col > id32) {
        --patch.col;
      }
      edit.patches[out++] = patch;
    }
    edit.patches.resize(out);
    if (out == 0) DropEditAt(slot);
  }
}

void RelationStore::MaybeCompactRow(size_t row) {
  RowEdit* edit = FindEdit(row);
  if (edit == nullptr || edit->loose ||
      edit->patches.size() <= kCompactPatches) {
    return;
  }
  // Rebuild the row as a loose row via one merged walk; the current codes
  // decide explicitness (patches never disagree with them — they exist to
  // keep the base cursor aligned and to carry masks).
  std::vector<uint32_t> cols;
  std::vector<uint16_t> masks;
  ForEachInRow(row, [this, row, &cols, &masks](
                        size_t j, const CardinalRelation& relation) {
    if (!ResolvableCode(ClassPairCode(profile_, row, j))) {
      cols.push_back(static_cast<uint32_t>(j));
      masks.push_back(relation.mask());
    }
  });
  // Exactly sized: PatchPair grows a full loose row by a fraction.
  cols.shrink_to_fit();
  masks.shrink_to_fit();
  ReplaceRow(row, std::move(cols), std::move(masks));
}

void RelationStore::RechargeMem() {
  CARDIR_AUDIT(SumHeapBytes(edits_) == edit_heap_bytes_
                   ? AuditResult()
                   : AuditResult("RelationStore: running edit-layer bytes "
                                 "drifted from its records"));
  charge_ = MemCharge(bytes());
}

}  // namespace cardir
