#include "core/cardinal_relation.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/logging.h"
#include "util/string_util.h"

namespace cardir {
namespace {

using NameTable = std::array<std::string, 512>;

// The canonical name of every mask: its tiles in canonical order, separated
// by ':'.
NameTable BuildNameTable() {
  NameTable names;
  names[0] = "(empty)";
  for (uint16_t mask = 1; mask < names.size(); ++mask) {
    for (Tile t : CardinalRelation::FromMask(mask).Tiles()) {
      if (!names[mask].empty()) names[mask] += ':';
      names[mask] += TileName(t);
    }
  }
  return names;
}

}  // namespace

CardinalRelation CardinalRelation::FromMask(uint16_t mask) {
  CARDIR_CHECK((mask & ~0x1ffu) == 0) << "mask uses bits above the 9 tiles";
  CardinalRelation relation;
  relation.mask_ = mask;
  return relation;
}

Result<CardinalRelation> CardinalRelation::Parse(std::string_view text) {
  CardinalRelation relation;
  // One piece per ':', empty ones included, each read in place.
  for (size_t start = 0, end; start <= text.size(); start = end + 1) {
    end = std::min(text.find(':', start), text.size());
    const std::string_view name =
        StripWhitespace(text.substr(start, end - start));
    Tile tile;
    if (!ParseTile(name, &tile)) {
      return Status::ParseError("unknown tile name: '" + std::string(name) +
                                "'");
    }
    if (relation.Includes(tile)) {
      return Status::ParseError("duplicate tile in relation: '" +
                                std::string(name) + "'");
    }
    relation.Add(tile);
  }
  if (relation.IsEmpty()) {
    return Status::ParseError("empty cardinal direction relation");
  }
  return relation;
}

int CardinalRelation::TileCount() const { return std::popcount(mask_); }

std::vector<Tile> CardinalRelation::Tiles() const {
  std::vector<Tile> tiles;
  for (Tile t : kAllTiles) {
    if (Includes(t)) tiles.push_back(t);
  }
  return tiles;
}

std::string_view CardinalRelation::Name() const {
  static const NameTable& names = *new NameTable(BuildNameTable());
  return names[mask_];
}

std::string CardinalRelation::ToString() const { return std::string(Name()); }

std::string CardinalRelation::ToMatrixString() const {
  // Rows printed north to south, columns west to east, as in the paper's
  // direction-relation matrices.
  static constexpr Tile kLayout[3][3] = {
      {Tile::kNW, Tile::kN, Tile::kNE},
      {Tile::kW, Tile::kB, Tile::kE},
      {Tile::kSW, Tile::kS, Tile::kSE},
  };
  std::string out;
  for (int r = 0; r < 3; ++r) {
    out += '[';
    for (int c = 0; c < 3; ++c) {
      out += Includes(kLayout[r][c]) ? '#' : '.';
      if (c < 2) out += ' ';
    }
    out += ']';
    if (r < 2) out += '\n';
  }
  return out;
}

CardinalRelation TileUnion(const std::vector<CardinalRelation>& relations) {
  CardinalRelation out;
  for (const CardinalRelation& r : relations) out = out.Union(r);
  return out;
}

std::ostream& operator<<(std::ostream& os, const CardinalRelation& relation) {
  return os << relation.ToString();
}

}  // namespace cardir
