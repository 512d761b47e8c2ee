#include "engine/relation_store.h"

#include "audit/audit.h"

namespace cardir {

CardinalRelation RelationStore::Relation(size_t primary,
                                         size_t reference) const {
  if (primary == reference) return CardinalRelation();
  const std::array<CardinalRelation, kNumClassPairCodes>& relations =
      ClassPairRelations();
  const uint8_t code = ClassPairCode(profile_, primary, reference);
  const RowEdit* edit = FindEdit(primary);
  if (edit != nullptr) {
    const size_t at = OverrideAt(*edit, static_cast<uint32_t>(reference));
    if (at < edit->cols.size() && edit->cols[at] == reference) {
      const uint16_t entry = edit->entries[at];
      if ((entry & kExplicit) != 0) {
        return CardinalRelation::FromMask(entry & kMaskBits);
      }
      return relations[code];
    }
  }
  if (ResolvableCode(code)) return relations[code];
  // Rank `reference` among the row's base-consuming columns: the overlay
  // stores masks in ascending reference order with no indices, so
  // membership (an O(1) classification per column, adjusted by the row's
  // patch flags) doubles as the rank function.
  uint64_t rank = row_offsets_[primary];
  if (edit == nullptr) {
    for (size_t j = 0; j < reference; ++j) {
      if (j == primary) continue;
      if (!ResolvableCode(ClassPairCode(profile_, primary, j))) ++rank;
    }
    return CardinalRelation::FromMask(overlay_masks_[rank]);
  }
  const uint32_t* cols = edit->cols.data();
  const uint16_t* entries = edit->entries.data();
  const size_t pn = edit->cols.size();
  size_t pi = 0;
  for (size_t j = 0; j < reference; ++j) {
    while (pi < pn && cols[pi] == j && (entries[pi] & kGhost) != 0) {
      ++rank;
      ++pi;
    }
    if (j == primary) continue;
    if (pi < pn && cols[pi] == j) {
      if ((entries[pi] & kConsumesBase) != 0) ++rank;
      ++pi;
    } else if (!ResolvableCode(ClassPairCode(profile_, primary, j))) {
      ++rank;
    }
  }
  // Ghosts parked at `reference` consume before its own slot.
  while (pi < pn && cols[pi] == reference && (entries[pi] & kGhost) != 0) {
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

void RelationStore::PatchPair(size_t row, size_t col,
                              const PairEdit& change) {
  RowEdit* edit = FindEdit(row);
  if (edit == nullptr) {
    if (PatchedEntry(0, change) == 0) return;
    edit = &EditFor(row);
  }
  const uint32_t col32 = static_cast<uint32_t>(col);
  const size_t at = OverrideAt(*edit, col32);
  const bool present = at < edit->cols.size() && edit->cols[at] == col32;
  const uint16_t entry = PatchedEntry(present ? edit->entries[at] : 0, change);
  const ptrdiff_t offset = static_cast<ptrdiff_t>(at);
  if (present && entry != 0) {
    edit->entries[at] = entry;
  } else if (present) {
    edit->cols.erase(edit->cols.begin() + offset);
    edit->entries.erase(edit->entries.begin() + offset);
  } else if (entry != 0) {
    if (edit->cols.size() == edit->cols.capacity()) {
      // Grow a full list by an eighth, not by doubling: the insert
      // memmoves the list anyway, so this keeps it O(list) per insert
      // while the slack stays a fraction of the entries.
      const size_t before = HeapBytes(*edit);
      const size_t grown = edit->cols.size() + edit->cols.size() / 8 + 4;
      edit->cols.reserve(grown);
      edit->entries.reserve(grown);
      edit_heap_bytes_ = edit_heap_bytes_ + HeapBytes(*edit) - before;
    }
    edit->cols.insert(edit->cols.begin() + offset, col32);
    edit->entries.insert(edit->entries.begin() + offset, entry);
  }
}

void RelationStore::PatchRow(size_t row, const std::vector<uint32_t>& cols,
                             const std::vector<PairEdit>& changes) {
  CARDIR_DCHECK(cols.size() == changes.size());
  CARDIR_DCHECK(std::is_sorted(cols.begin(), cols.end()));
  const RowEdit* edit = FindEdit(row);
  const size_t size = edit != nullptr ? edit->cols.size() : 0;
  // One merge of the list with `cols`: entries of other columns (ghosts
  // included) carry over, each changed column keeps its PatchedEntry.
  std::vector<uint32_t> merged_cols;
  std::vector<uint16_t> merged_entries;
  merged_cols.reserve(size + cols.size());
  merged_entries.reserve(size + cols.size());
  size_t p = 0;
  const auto carry_below = [&](uint32_t col) {  // Up to col's override.
    while (p < size &&
           (edit->cols[p] < col ||
            (edit->cols[p] == col && (edit->entries[p] & kGhost) != 0))) {
      merged_cols.push_back(edit->cols[p]);
      merged_entries.push_back(edit->entries[p++]);
    }
  };
  for (size_t k = 0; k < cols.size(); ++k) {
    carry_below(cols[k]);
    const bool present = p < size && edit->cols[p] == cols[k];
    const uint16_t entry =
        PatchedEntry(present ? edit->entries[p++] : 0, changes[k]);
    if (entry != 0) {
      merged_cols.push_back(cols[k]);
      merged_entries.push_back(entry);
    }
  }
  carry_below(~uint32_t{0});
  if (edit == nullptr && merged_cols.empty()) return;
  // The row keeps its arrays when the merge fits them and is sized
  // exactly when it outgrows them.
  RowEdit& target = EditFor(row);
  const size_t before = HeapBytes(target);
  target.cols.assign(merged_cols.begin(), merged_cols.end());
  target.entries.assign(merged_entries.begin(), merged_entries.end());
  edit_heap_bytes_ = edit_heap_bytes_ + HeapBytes(target) - before;
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
    // Ghosts parked at column id stay there: they now sit before the
    // column that renumbers onto id, as their slots sit in the base. The
    // erased column's own override becomes a ghost if it consumes a base
    // slot and goes otherwise; the columns above it renumber down. Both
    // keep the list sorted on (column, ghosts first).
    size_t k = OverrideAt(edit, id32);
    if (k < edit.cols.size() && edit.cols[k] == id32) {
      if ((edit.entries[k] & kConsumesBase) != 0) {
        edit.entries[k] = kGhost | kConsumesBase;
        ++k;
      } else {
        edit.cols.erase(edit.cols.begin() + static_cast<ptrdiff_t>(k));
        edit.entries.erase(edit.entries.begin() + static_cast<ptrdiff_t>(k));
      }
    }
    for (; k < edit.cols.size(); ++k) --edit.cols[k];
    if (edit.cols.empty()) DropEditAt(slot);
  }
}

void RelationStore::RechargeMem() {
  CARDIR_AUDIT(SumHeapBytes(edits_) == edit_heap_bytes_
                   ? AuditResult()
                   : AuditResult("RelationStore: running edit-layer bytes "
                                 "drifted from its records"));
  charge_ = MemCharge(bytes());
}

}  // namespace cardir
