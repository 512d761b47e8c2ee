// Property test: the two parsers every <Edge> and <Relation> goes through
// against straightforward references. ParseDouble must give the value
// bits and the accept/reject decision of a strtod-only parse on printed
// random bit patterns and on edge strings; CardinalRelation::Parse must
// give the mask, or the ParseError and its message, of a parse over
// StrSplit pieces on reordered, padded, duplicated and unknown tiles.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/cardinal_relation.h"
#include "util/random.h"
#include "util/string_util.h"

namespace cardir {
namespace {

// ---- ParseDouble.

// The whole stripped text through strtod; only an overflow fails among
// range errors.
Result<double> ReferenceParseDouble(std::string_view text) {
  const std::string buf(StripWhitespace(text));
  if (buf.empty()) return Status::ParseError("empty number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() ||
      (errno == ERANGE && std::isinf(value))) {
    return Status::ParseError("not a number: '" + buf + "'");
  }
  return value;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameParse(const std::string& text) {
  const Result<double> got = ParseDouble(text);
  const Result<double> want = ReferenceParseDouble(text);
  ASSERT_EQ(got.ok(), want.ok()) << "'" << text << "'";
  if (want.ok()) {
    EXPECT_EQ(Bits(*got), Bits(*want)) << "'" << text << "'";
  } else {
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

TEST(ParseDoubleOracleTest, EdgeStrings) {
  for (const char* text :
       {"+1.5", "0x1p3", "1e-400", "1e400", "inf", "nan", " -0 ", "1e-310",
        "4.9406564584124654e-324", "1e", ".5", "5.", "", " ", "-", "+",
        "-inf", "INFINITY", "nan(123)", "-nan", "1.7976931348623157e308",
        "1.7976931348623159e308", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "1e+5", "1E5", "0X10", "1.5x", "1 5",
        "00012.50", "-.5e-3", "\t3.25\n", "1,5", "e5", "1e5.5",
        "123456789012345678901234567890"}) {
    ExpectSameParse(text);
  }
}

class ParseDoubleOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParseDoubleOracleTest, RandomBitPatternsAsPrinted) {
  Rng rng(GetParam());
  int parsed = 0;
  while (parsed < 40000) {
    const uint64_t bits = rng.NextUint64();
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    for (const char* format : {"%.17g", "%.15g", "%g"}) {
      const std::string text = StrFormat(format, value);
      ExpectSameParse(text);
      if (rng.NextBelow(8) == 0) ExpectSameParse(" +" + text + "\t");
    }
    ++parsed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParseDoubleOracleTest,
                         ::testing::Values(1, 2, 3));

// ---- CardinalRelation::Parse.

// Each piece of StrSplit(text, ':') stripped and read as a tile.
Result<CardinalRelation> ReferenceParseRelation(std::string_view text) {
  CardinalRelation relation;
  for (const std::string& piece : StrSplit(text, ':')) {
    const std::string_view name = StripWhitespace(piece);
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

void ExpectSameRelation(const std::string& text) {
  const Result<CardinalRelation> got = CardinalRelation::Parse(text);
  const Result<CardinalRelation> want = ReferenceParseRelation(text);
  ASSERT_EQ(got.ok(), want.ok()) << "'" << text << "'";
  if (want.ok()) {
    EXPECT_EQ(*got, *want) << "'" << text << "'";
  } else {
    EXPECT_EQ(got.status().code(), StatusCode::kParseError);
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

TEST(CardinalRelationParseOracleTest, EdgeStrings) {
  for (const char* text : {"", ":", "::", "B:", ":B", " B ", "B : S", "B::S",
                           "B:B", "b", "north", "N E", "B:S:SW:W:NW:N:NE:E:SE",
                           "SE:E:NE:N:NW:W:SW:S:B", "(empty)", " \t ",
                           "B:S:B:X", "X:B:B"}) {
    ExpectSameRelation(text);
  }
}

TEST(CardinalRelationParseOracleTest, RandomNamesReorderedPaddedAndDamaged) {
  Rng rng(7);
  const std::vector<std::string> kPads = {"", "", " ", "\t", "  "};
  const std::vector<std::string> kUnknown = {"", "X", "b", "NN", "S W",
                                             "north", "B1"};
  for (uint16_t mask = 1; mask < 512; ++mask) {
    for (int variant = 0; variant < 8; ++variant) {
      std::vector<std::string> pieces;
      for (const Tile tile : CardinalRelation::FromMask(mask).Tiles()) {
        pieces.emplace_back(TileName(tile));
      }
      rng.Shuffle(&pieces);
      if (variant % 4 == 1) {
        // A tile already present, anywhere.
        const std::string copy = pieces[rng.NextBelow(pieces.size())];
        pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(
                                           rng.NextBelow(pieces.size() + 1)),
                      copy);
      } else if (variant % 4 == 2) {
        pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(
                                           rng.NextBelow(pieces.size() + 1)),
                      kUnknown[rng.NextBelow(kUnknown.size())]);
      }
      std::string text;
      for (size_t k = 0; k < pieces.size(); ++k) {
        if (k > 0) text += ':';
        text += kPads[rng.NextBelow(kPads.size())] + pieces[k] +
                kPads[rng.NextBelow(kPads.size())];
      }
      ExpectSameRelation(text);
      if (variant % 4 == 0) {
        EXPECT_EQ(CardinalRelation::Parse(text)->mask(), mask) << text;
      }
    }
  }
}

}  // namespace
}  // namespace cardir
