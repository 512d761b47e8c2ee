#include "engine/interval_kernel.h"

#include <optional>

#include "core/cardinal_relation.h"
#include "core/tile.h"
#include "engine/prefilter.h"
#include "util/string_util.h"

namespace cardir {
namespace {

constexpr std::array<uint16_t, kNumClassPairCodes>
BuildClassPairRelationTable() {
  std::array<uint16_t, kNumClassPairCodes> table{};
  for (int xc = 0; xc < 3; ++xc) {
    for (int yc = 0; yc < 3; ++yc) {
      const Tile tile = TileAt(static_cast<TileColumn>(xc),
                               static_cast<TileRow>(yc));
      table[static_cast<size_t>((xc << 2) | yc)] =
          CardinalRelation(tile).mask();
    }
  }
  // Codes with a kCross class keep mask 0: not box-resolvable.
  return table;
}

constexpr std::array<uint16_t, kNumClassPairCodes> kClassPairRelationTable =
    BuildClassPairRelationTable();

// ---- Compile-time table proof -------------------------------------------
//
// The table/TileAt agreement is a build break, so a drifted table can never
// even link. The runtime grid against MbbPrefilterRelation
// (ValidateClassKernelOnce) stays a debug-only cross-check because
// MbbPrefilterRelation lives behind std::optional plumbing that is more
// naturally exercised at runtime.
//
// Every one of the 16 class-pair codes, checked in both orientations:
// forward (a resolvable (x class, y class) code maps to exactly the
// single-tile mask of TileAt(x, y), a kCross code maps to 0) and backward
// (each tile's own column/row, fed back through the code layout, recovers
// that tile's mask — so the code packing (x << 2) | y cannot silently flip
// its operands).
constexpr bool ClassPairTableAgreesWithTileAt() {
  for (int xc = 0; xc < 4; ++xc) {
    for (int yc = 0; yc < 4; ++yc) {
      const uint16_t entry =
          kClassPairRelationTable[static_cast<size_t>((xc << 2) | yc)];
      if (xc == static_cast<int>(IntervalClass::kCross) ||
          yc == static_cast<int>(IntervalClass::kCross)) {
        if (entry != 0) return false;
        continue;
      }
      const Tile tile =
          TileAt(static_cast<TileColumn>(xc), static_cast<TileRow>(yc));
      if (entry != CardinalRelation(tile).mask()) return false;
    }
  }
  for (Tile tile : kAllTiles) {
    const int code = (static_cast<int>(ColumnOf(tile)) << 2) |
                     static_cast<int>(RowOf(tile));
    if (kClassPairRelationTable[static_cast<size_t>(code)] !=
        CardinalRelation(tile).mask()) {
      return false;
    }
  }
  return true;
}
static_assert(ClassPairTableAgreesWithTileAt(),
              "engine/interval_kernel: class-pair relation table disagrees "
              "with core/tile.h's TileAt");

// --------------------------------------------------------------------------

// One pair's code against the per-pair oracle: a resolvable code must carry
// exactly MbbPrefilterRelation's relation, a non-resolvable one must be a
// pair the oracle declines.
Status CheckCodeAgainstPrefilter(uint8_t code, const Box& primary,
                                 const Box& reference) {
  const CardinalRelation relation = ClassPairRelations()[code];
  const std::optional<CardinalRelation> oracle =
      MbbPrefilterRelation(primary, reference);
  if (oracle.has_value() != !relation.IsEmpty() ||
      (oracle.has_value() && *oracle != relation)) {
    return Status::Internal(StrFormat(
        "interval kernel disagrees with MbbPrefilterRelation on primary "
        "[%g,%g]x[%g,%g] vs reference [%g,%g]x[%g,%g]: code %u relation %s "
        "vs oracle %s",
        primary.min_x(), primary.max_x(), primary.min_y(), primary.max_y(),
        reference.min_x(), reference.max_x(), reference.min_y(),
        reference.max_y(), static_cast<unsigned>(code),
        relation.ToString().c_str(),
        oracle.has_value() ? oracle->ToString().c_str() : "(none)"));
  }
  return Status::Ok();
}

Status ValidateClassKernel() {
  const Box reference(10, 10, 20, 20);
  // Coordinate grid hitting both reference lines of each axis exactly, plus
  // strictly-inside, strictly-outside and straddling positions.
  const double coords[] = {4, 8, 10, 12, 15, 18, 20, 24, 28};
  const size_t m = sizeof(coords) / sizeof(coords[0]);
  std::vector<Box> boxes;
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a; b < m; ++b) {  // b == a gives degenerate extents.
      for (size_t c = 0; c < m; ++c) {
        for (size_t d = c; d < m; ++d) {
          boxes.emplace_back(coords[a], coords[c], coords[b], coords[d]);
        }
      }
    }
  }
  // The reference is profiled last, so every grid box is classified against
  // it through the same ClassPairCode the store runs.
  const size_t ref = boxes.size();
  boxes.push_back(reference);
  const RegionProfile profile = RegionProfile::FromBoxes(boxes);
  for (size_t i = 0; i < ref; ++i) {
    const uint8_t code = ClassPairCode(profile, i, ref);
    CARDIR_RETURN_IF_ERROR(
        CheckCodeAgainstPrefilter(code, boxes[i], reference));
    // The Allen coarsening must agree with the class codes wherever the
    // Allen classification is defined (non-degenerate extents).
    if (!boxes[i].IsDegenerate() && !boxes[i].IsEmpty()) {
      const IntervalClass x_allen = IntervalClassOfAllen(
          ClassifyIntervals(boxes[i].min_x(), boxes[i].max_x(),
                            reference.min_x(), reference.max_x()));
      const IntervalClass y_allen = IntervalClassOfAllen(
          ClassifyIntervals(boxes[i].min_y(), boxes[i].max_y(),
                            reference.min_y(), reference.max_y()));
      if (code != ((static_cast<uint8_t>(x_allen) << 2) |
                   static_cast<uint8_t>(y_allen))) {
        return Status::Internal(StrFormat(
            "interval kernel disagrees with the Allen coarsening on box "
            "[%g,%g]x[%g,%g]: code %u vs (%d, %d)",
            boxes[i].min_x(), boxes[i].max_x(), boxes[i].min_y(),
            boxes[i].max_y(), static_cast<unsigned>(code),
            static_cast<int>(x_allen), static_cast<int>(y_allen)));
      }
    }
  }
  // Swapped roles: a stride-subsample of the grid acts as the primary
  // against every box taken as the reference, degenerate references
  // included.
  for (size_t p = 0; p < ref; p += 31) {
    for (size_t j = 0; j < boxes.size(); ++j) {
      CARDIR_RETURN_IF_ERROR(CheckCodeAgainstPrefilter(
          ClassPairCode(profile, p, j), boxes[p], boxes[j]));
    }
  }
  return Status::Ok();
}

}  // namespace

RegionProfile RegionProfile::FromBoxes(const std::vector<Box>& boxes) {
  RegionProfile profile;
  const size_t n = boxes.size();
  profile.min_x.resize(n);
  profile.max_x.resize(n);
  profile.min_y.resize(n);
  profile.max_y.resize(n);
  profile.cross_override.resize(n);
  for (size_t i = 0; i < n; ++i) {
    profile.min_x[i] = boxes[i].min_x();
    profile.max_x[i] = boxes[i].max_x();
    profile.min_y[i] = boxes[i].min_y();
    profile.max_y[i] = boxes[i].max_y();
    profile.cross_override[i] =
        (boxes[i].IsEmpty() || boxes[i].IsDegenerate()) ? 0x0f : 0x00;
  }
  return profile;
}

const std::array<uint16_t, kNumClassPairCodes>& ClassPairRelationTable() {
  return kClassPairRelationTable;
}

const std::array<CardinalRelation, kNumClassPairCodes>& ClassPairRelations() {
  static const std::array<CardinalRelation, kNumClassPairCodes> relations =
      [] {
        std::array<CardinalRelation, kNumClassPairCodes> out{};
        const std::array<uint16_t, kNumClassPairCodes>& masks =
            ClassPairRelationTable();
        for (size_t code = 0; code < kNumClassPairCodes; ++code) {
          out[code] = CardinalRelation::FromMask(masks[code]);
        }
        return out;
      }();
  return relations;
}

uint16_t ClassCodeAcceptMask(const DisjunctiveRelation& relation) {
  uint16_t accept = 0;
  for (uint8_t code = 0; code < kNumClassPairCodes; ++code) {
    // Contains() is false for the empty relation of a kCross code.
    if (relation.Contains(ClassPairRelations()[code])) {
      accept = static_cast<uint16_t>(accept | 1u << code);
    }
  }
  return accept;
}

IntervalClass IntervalClassOfAllen(AllenRelation r) {
  switch (r) {
    case AllenRelation::kBefore:
    case AllenRelation::kMeets:
      return IntervalClass::kLow;
    case AllenRelation::kDuring:
    case AllenRelation::kStarts:
    case AllenRelation::kFinishes:
    case AllenRelation::kEquals:
      return IntervalClass::kMid;
    case AllenRelation::kMetBy:
    case AllenRelation::kAfter:
      return IntervalClass::kHigh;
    case AllenRelation::kOverlaps:
    case AllenRelation::kFinishedBy:
    case AllenRelation::kContains:
    case AllenRelation::kStartedBy:
    case AllenRelation::kOverlappedBy:
      return IntervalClass::kCross;
  }
  return IntervalClass::kCross;  // Unreachable for valid enum values.
}

Status ValidateClassKernelOnce() {
  static const Status status = ValidateClassKernel();
  return status;
}

}  // namespace cardir
