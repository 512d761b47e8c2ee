// Cardinal direction relations (paper §2, Definition 1).
//
// A cardinal direction relation R1:...:Rk is a non-empty set of distinct
// tiles; there are 2^9 − 1 = 511 basic relations, forming the set D*. Basic
// relations are jointly exhaustive and pairwise disjoint. A relation is
// printed with its tiles in the canonical order B,S,SW,W,NW,N,NE,E,SE,
// separated by ':', exactly as in the paper (e.g. "B:S:W", never "W:B:S").

#ifndef CARDIR_CORE_CARDINAL_RELATION_H_
#define CARDIR_CORE_CARDINAL_RELATION_H_

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/tile.h"
#include "util/status.h"

namespace cardir {

/// A basic cardinal direction relation: a set of tiles encoded as a 9-bit
/// mask (bit i = tile with enum value i). The empty mask is *not* a valid
/// relation (Definition 1 requires k ≥ 1) but is representable so that
/// relations can be built up with `Add`/`tile-union`.
class CardinalRelation {
 public:
  /// The empty (invalid as a final answer) relation; use as an accumulator.
  constexpr CardinalRelation() = default;

  constexpr explicit CardinalRelation(Tile tile)
      : mask_(static_cast<uint16_t>(1u << static_cast<int>(tile))) {}

  CardinalRelation(std::initializer_list<Tile> tiles) {
    for (Tile t : tiles) Add(t);
  }

  /// Builds a relation directly from a 9-bit mask (bits above 8 rejected by
  /// CHECK). Used by the reasoning layer to iterate all 511 relations.
  static CardinalRelation FromMask(uint16_t mask);

  /// Parses "B:S:SW" style strings (any tile order accepted on input).
  static Result<CardinalRelation> Parse(std::string_view text);

  constexpr uint16_t mask() const { return mask_; }
  constexpr bool IsEmpty() const { return mask_ == 0; }

  /// Number of tiles (the k of Definition 1).
  int TileCount() const;

  /// Single-tile relations are those with k = 1 (Definition 1).
  bool IsSingleTile() const { return TileCount() == 1; }

  bool Includes(Tile tile) const {
    return (mask_ & (1u << static_cast<int>(tile))) != 0;
  }

  void Add(Tile tile) { mask_ |= static_cast<uint16_t>(1u << static_cast<int>(tile)); }
  void Remove(Tile tile) {
    mask_ &= static_cast<uint16_t>(~(1u << static_cast<int>(tile)));
  }

  /// tile-union of Definition 2: the relation formed by the union of the
  /// tiles of this relation and `other`.
  CardinalRelation Union(const CardinalRelation& other) const {
    return FromMask(mask_ | other.mask_);
  }

  CardinalRelation Intersection(const CardinalRelation& other) const {
    return FromMask(mask_ & other.mask_);
  }

  /// True when every tile of this relation is a tile of `other`.
  bool IsSubsetOf(const CardinalRelation& other) const {
    return (mask_ & ~other.mask_) == 0;
  }

  /// Tiles in canonical order.
  std::vector<Tile> Tiles() const;

  /// Canonical "B:S:SW" rendering ("(empty)" for the empty accumulator),
  /// read from one table of all 512 masks that lives as long as the
  /// program.
  std::string_view Name() const;

  /// Name() as a string.
  std::string ToString() const;

  /// Goyal–Egenhofer direction-relation matrix rendering (§2): three lines
  /// of three cells, '#' for present, '.' for absent, rows north to south.
  std::string ToMatrixString() const;

  friend bool operator==(const CardinalRelation& a, const CardinalRelation& b) {
    return a.mask_ == b.mask_;
  }
  friend bool operator!=(const CardinalRelation& a, const CardinalRelation& b) {
    return a.mask_ != b.mask_;
  }
  /// Arbitrary-but-stable order so relations can key ordered containers.
  friend bool operator<(const CardinalRelation& a, const CardinalRelation& b) {
    return a.mask_ < b.mask_;
  }

 private:
  uint16_t mask_ = 0;
};

/// tile-union over a list (Definition 2).
CardinalRelation TileUnion(const std::vector<CardinalRelation>& relations);

/// Number of valid (non-empty) basic relations: 511.
inline constexpr int kNumBasicRelations = 511;

std::ostream& operator<<(std::ostream& os, const CardinalRelation& relation);

}  // namespace cardir

#endif  // CARDIR_CORE_CARDINAL_RELATION_H_
