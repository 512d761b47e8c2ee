// Property test: ConfigurationToXml, which formats the text of a <Relation>
// once per document, writes the same bytes as a per-pair reference writer
// on random configurations: computed, XML-loaded (also after a partial,
// reordered SetRelations and after edits) and uncomputed. Ids, names and
// colours carry all five escaped characters; regions have several polygons;
// coordinates need 15 digits, 17 digits or an exponent. Every non-empty
// relation mask also survives SaveConfiguration → LoadConfiguration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "cardirect/xml.h"
#include "properties/random_instances.h"
#include "util/string_util.h"

namespace cardir {
namespace {

// ---- The reference writer: every attribute escaped as it is written, each
// relation named from its tiles, each coordinate formatted with printf.

std::string ReferenceAttribute(std::string_view name, std::string_view value) {
  std::string out = " " + std::string(name) + "=\"";
  for (const char c : value) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

// %.15g when it reads back to the same value, else %.17g.
std::string ReferenceCoordinate(double value) {
  const std::string shorter = StrFormat("%.15g", value);
  if (std::strtod(shorter.c_str(), nullptr) == value) return shorter;
  return StrFormat("%.17g", value);
}

std::string ReferenceName(const CardinalRelation& relation) {
  std::string name;
  for (const Tile tile : relation.Tiles()) {
    if (!name.empty()) name += ':';
    name += TileName(tile);
  }
  return relation.IsEmpty() ? "(empty)" : name;
}

std::string ReferenceRelation(const std::string& primary_id,
                              const std::string& reference_id,
                              const CardinalRelation& relation) {
  return "  <Relation" + ReferenceAttribute("type", ReferenceName(relation)) +
         ReferenceAttribute("primary", primary_id) +
         ReferenceAttribute("reference", reference_id) + "/>\n";
}

std::string ReferenceXml(const Configuration& config) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Image";
  if (!config.name().empty()) out += ReferenceAttribute("name", config.name());
  if (!config.image_file().empty()) {
    out += ReferenceAttribute("file", config.image_file());
  }
  out += config.regions().empty() ? "/>\n" : ">\n";
  for (const AnnotatedRegion& region : config.regions()) {
    out += "  <Region" + ReferenceAttribute("id", region.id);
    if (!region.name.empty()) out += ReferenceAttribute("name", region.name);
    if (!region.color.empty()) out += ReferenceAttribute("color", region.color);
    out += ">\n";
    const std::vector<Polygon>& polygons = region.geometry.polygons();
    for (size_t p = 0; p < polygons.size(); ++p) {
      out += "    <Polygon" +
             ReferenceAttribute("id", region.id + "-p" + std::to_string(p)) +
             ">\n";
      for (const Point& vertex : polygons[p].vertices()) {
        out += "      <Edge" +
               ReferenceAttribute("x", ReferenceCoordinate(vertex.x)) +
               ReferenceAttribute("y", ReferenceCoordinate(vertex.y)) + "/>\n";
      }
      out += "    </Polygon>\n";
    }
    out += "  </Region>\n";
  }
  // Each representation read on its own terms: the store by position, the
  // records by the ids they hold.
  if (const RelationStore* store = config.relation_store()) {
    store->ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
      out += ReferenceRelation(config.regions()[i].id,
                               config.regions()[j].id, relation);
    });
  } else {
    for (const RelationRecord& record : config.relations()) {
      out += ReferenceRelation(record.primary_id, record.reference_id,
                               record.relation);
    }
  }
  if (!config.regions().empty()) out += "</Image>\n";
  return out;
}

// ---- Random configurations.

// 0..max_size characters: letters, digits, a space, a UTF-8 letter and the
// five characters the writer escapes, the latter drawn often.
std::string RandomText(Rng* rng, int max_size) {
  static const std::vector<std::string> kPieces = {
      "&", "<", ">", "\"", "'", "a", "Z", "0", "-", " ", "\xc3\xa9"};
  std::string text;
  const int size = static_cast<int>(rng->NextInt(0, max_size));
  for (int k = 0; k < size; ++k) {
    text += kPieces[rng->NextBelow(kPieces.size())];
  }
  return text;
}

// `region` scaled about the origin and shifted, so coordinates move into
// exponent notation (tiny or huge magnitudes) or below zero.
Region Transformed(const Region& region, double scale, double shift) {
  Region out;
  for (const Polygon& polygon : region.polygons()) {
    std::vector<Point> vertices;
    for (const Point& p : polygon.vertices()) {
      vertices.emplace_back(p.x * scale + shift, p.y * scale - shift);
    }
    out.AddPolygon(Polygon(std::move(vertices)));
  }
  return out;
}

Region RandomGeometry(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0: {
      // Quarter-unit rectangles: every coordinate fits 15 digits.
      Region region;
      const int polygons = static_cast<int>(rng->NextInt(1, 3));
      for (int p = 0; p < polygons; ++p) {
        const double x = static_cast<double>(rng->NextInt(-400, 400)) / 4;
        const double y = static_cast<double>(rng->NextInt(-400, 400)) / 4;
        region.AddPolygon(MakeRectangle(
            x, y, x + static_cast<double>(rng->NextInt(1, 40)) / 4,
            y + static_cast<double>(rng->NextInt(1, 40)) / 4));
      }
      return region;
    }
    case 1: {
      constexpr double kScales[] = {1e-9, 1e12, 1e17};
      return Transformed(RandomTestRegion(rng), kScales[rng->NextBelow(3)],
                         rng->NextBool() ? 0.0 : rng->NextDouble(-1e3, 1e3));
    }
    default:
      // Generated coordinates, most of which need 17 digits.
      return RandomTestRegion(rng);
  }
}

Configuration RandomConfiguration(Rng* rng) {
  Configuration config(RandomText(rng, 6), RandomText(rng, 6));
  const int regions = static_cast<int>(rng->NextInt(2, 12));
  for (int k = 0; k < regions; ++k) {
    AnnotatedRegion region;
    // Unique: the index follows the only '#'.
    region.id = RandomText(rng, 5) + "#" + std::to_string(k);
    region.name = RandomText(rng, 5);
    region.color = RandomText(rng, 3);
    region.geometry = RandomGeometry(rng);
    // A transform can, rarely, make a ring invalid; such a region is left
    // out.
    (void)config.AddRegion(std::move(region));
  }
  return config;
}

class XmlWriterOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlWriterOracleTest, WritesTheReferenceBytesInEveryState) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    Configuration config = RandomConfiguration(&rng);
    ASSERT_GE(config.regions().size(), 1u);
    // Uncomputed: regions only.
    EXPECT_EQ(ConfigurationToXml(config), ReferenceXml(config));

    // Computed: the store, before and after a delta-maintained edit.
    ASSERT_TRUE(config.ComputeAllRelations().ok());
    const std::string computed = ConfigurationToXml(config);
    EXPECT_EQ(computed, ReferenceXml(config));

    // XML-loaded records, whole and in document order.
    Result<Configuration> loaded = ConfigurationFromXml(computed);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(loaded->relation_store(), nullptr);
    EXPECT_EQ(ConfigurationToXml(*loaded), computed);
    EXPECT_EQ(ReferenceXml(*loaded), computed);

    // A partial set of records in shuffled order.
    std::vector<RelationRecord> records = loaded->relations();
    rng.Shuffle(&records);
    records.erase(records.begin() + static_cast<std::ptrdiff_t>(records.size() / 2),
                  records.end());
    ASSERT_TRUE(loaded->SetRelations(records).ok());
    EXPECT_EQ(ConfigurationToXml(*loaded), ReferenceXml(*loaded));

    // Edits: records touching an edited region drop; the store patches.
    const std::string& edited = config.regions()[0].id;
    const Polygon extra = MakeRectangle(-7.5, 3, -2, 9.125);
    ASSERT_TRUE(loaded->AddPolygonToRegion(edited, extra).ok());
    ASSERT_TRUE(config.AddPolygonToRegion(edited, extra).ok());
    EXPECT_EQ(ConfigurationToXml(*loaded), ReferenceXml(*loaded));
    EXPECT_EQ(ConfigurationToXml(config), ReferenceXml(config));
    const std::string removed = config.regions().back().id;
    ASSERT_TRUE(loaded->RemoveRegion(removed).ok());
    ASSERT_TRUE(config.RemoveRegion(removed).ok());
    EXPECT_EQ(ConfigurationToXml(*loaded), ReferenceXml(*loaded));
    EXPECT_EQ(ConfigurationToXml(config), ReferenceXml(config));
  }
}

TEST_P(XmlWriterOracleTest, CoordinatesMatchPrintfOnRandomBitPatterns) {
  // Every finite double, tiny, huge or subnormal, is written as printf
  // writes it, at whichever precision reads back.
  Rng rng(GetParam() * 104729 + 3);
  auto random_finite = [&rng] {
    double value = 0;
    do {
      const uint64_t bits = rng.NextUint64();
      std::memcpy(&value, &bits, sizeof(value));
    } while (!std::isfinite(value) || value == 0);
    return value;
  };
  int written = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    AnnotatedRegion region;
    region.id = "r";
    const double x = random_finite();
    const double y = random_finite();
    region.geometry =
        Region(Polygon({Point(x, 0), Point(0, y), Point(0, 0)}));
    Configuration config;
    // A triangle whose area underflows or overflows is not a region.
    if (!config.AddRegion(std::move(region)).ok()) continue;
    ASSERT_EQ(ConfigurationToXml(config), ReferenceXml(config))
        << StrFormat("x=%a y=%a", x, y);
    ++written;
  }
  EXPECT_GT(written, 1000);
}

TEST(XmlWriterMaskTest, EveryNonEmptyMaskSurvivesSaveAndLoad) {
  // 24 regions give 552 ordered pairs, room for one record per mask.
  Configuration config("masks", "");
  for (int k = 0; k < 24; ++k) {
    AnnotatedRegion region;
    region.id = "m" + std::to_string(k);
    region.geometry = Region(MakeRectangle(k, 0, k + 0.5, 1));
    ASSERT_TRUE(config.AddRegion(std::move(region)).ok());
  }
  std::vector<RelationRecord> records;
  for (uint16_t mask = 1; mask < 512; ++mask) {
    const size_t pair = mask - 1;
    const size_t primary = pair / 23;
    size_t reference = pair % 23;
    if (reference >= primary) ++reference;
    records.push_back({config.regions()[primary].id,
                       config.regions()[reference].id,
                       CardinalRelation::FromMask(mask)});
  }
  ASSERT_TRUE(config.SetRelations(records).ok());
  EXPECT_EQ(ConfigurationToXml(config), ReferenceXml(config));
  const std::string path = ::testing::TempDir() + "/cardir_mask_oracle.xml";
  ASSERT_TRUE(SaveConfiguration(config, path).ok());
  Result<Configuration> loaded = LoadConfiguration(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->relations().size(), records.size());
  for (size_t k = 0; k < records.size(); ++k) {
    EXPECT_EQ(loaded->relations()[k].primary_id, records[k].primary_id);
    EXPECT_EQ(loaded->relations()[k].reference_id, records[k].reference_id);
    EXPECT_EQ(loaded->relations()[k].relation, records[k].relation);
  }

  // The 512th mask, the empty accumulator, is no stated relation
  // (Definition 1): SetRelations refuses it and keeps the 511 records.
  EXPECT_EQ(config.SetRelations({{"m0", "m1", CardinalRelation()}}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(config.relations().size(), records.size());
  for (size_t k = 0; k < records.size(); ++k) {
    EXPECT_EQ(config.relations()[k].primary_id, records[k].primary_id);
    EXPECT_EQ(config.relations()[k].reference_id, records[k].reference_id);
    EXPECT_EQ(config.relations()[k].relation, records[k].relation);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlWriterOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace cardir
