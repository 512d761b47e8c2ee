// Robustness / fuzz tests for the two textual front doors: the XML reader
// and the query parser. Property: arbitrary input never crashes and either
// parses cleanly or returns a ParseError status; structured round-trips
// survive hostile content (entities, odd names, extreme numbers).

#include <gtest/gtest.h>

#include "cardirect/query.h"
#include "cardirect/xml.h"
#include "util/random.h"

namespace cardir {
namespace {

std::string RandomGarbage(Rng* rng, size_t length) {
  // Characters weighted toward XML/query syntax to reach deep parser paths.
  static constexpr char kAlphabet[] =
      "<>/=\"'{}(),|:&;#xX aabbccRegionImagePolygonEdgeNSWEB0123456789.-\n\t";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->NextBelow(sizeof(kAlphabet) - 1)];
  }
  return out;
}

TEST(XmlFuzzTest, GarbageNeverCrashesAndErrorsAreParseErrors) {
  Rng rng(2718);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string input = RandomGarbage(&rng, rng.NextBelow(160));
    auto config = ConfigurationFromXml(input);
    if (!config.ok()) {
      // Structural errors surface as ParseError; semantic ones (degenerate
      // polygons, duplicate ids) as InvalidArgument/AlreadyExists.
      const StatusCode code = config.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kAlreadyExists)
          << "input: " << input << " -> " << config.status();
    }
  }
}

TEST(XmlFuzzTest, MutatedValidDocumentsNeverCrash) {
  // Start from a valid document and apply random single-character edits.
  Configuration base("fuzz", "map.png");
  AnnotatedRegion region;
  region.id = "r1";
  region.name = "Region <&> \"one\"";
  region.color = "red";
  region.geometry.AddPolygon(MakeRectangle(0, 0, 4, 4));
  ASSERT_TRUE(base.AddRegion(std::move(region)).ok());
  ASSERT_TRUE(base.ComputeAllRelations().ok());
  const std::string valid = ConfigurationToXml(base);

  Rng rng(3141);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int edits = static_cast<int>(rng.NextInt(1, 4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0: mutated[pos] = static_cast<char>(rng.NextInt(32, 126)); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, '<'); break;
      }
    }
    auto result = ConfigurationFromXml(mutated);
    if (!result.ok()) {
      const StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kAlreadyExists)
          << result.status();
    }
  }
}

TEST(XmlFuzzTest, DeepNestingIsAParseError) {
  // The reader keeps at most four elements open (the DTD's depth), so a
  // million nested elements fail at the first misplaced one instead of
  // recursing a million frames deep.
  constexpr int kDepth = 1000000;
  std::string open;
  std::string close;
  for (int level = 0; level < kDepth; ++level) {
    open += "<a>";
    close += "</a>";
  }
  const std::string open_edge =
      "<Image><Region id=\"r\"><Polygon><Edge x=\"0\" y=\"0\">";
  for (const std::string& prefix :
       {std::string(), std::string("<Image>"), open_edge}) {
    const auto result = ConfigurationFromXml(prefix + open + close);
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << prefix;
    EXPECT_NE(result.status().message().find("<a>"), std::string::npos)
        << result.status();
  }
}

TEST(XmlRoundTripTest, HostileAttributeContentSurvives) {
  Configuration config("we & they <tag> 'quoted' \"double\"", "a&b.png");
  AnnotatedRegion region;
  region.id = "spiky";
  region.name = "<Region id=\"fake\"/>&amp; more";
  region.color = "rosé";  // Multi-byte UTF-8 passes through opaquely.
  region.geometry.AddPolygon(MakeRectangle(0, 0, 1, 1));
  ASSERT_TRUE(config.AddRegion(std::move(region)).ok());
  auto loaded = ConfigurationFromXml(ConfigurationToXml(config));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name(), config.name());
  EXPECT_EQ(loaded->regions()[0].name, config.regions()[0].name);
  EXPECT_EQ(loaded->regions()[0].color, config.regions()[0].color);
}

TEST(XmlRoundTripTest, ExtremeCoordinatesRoundTripBitExactly) {
  Configuration config;
  AnnotatedRegion region;
  region.id = "extreme";
  region.geometry.AddPolygon(Polygon({Point(1e-300, 0.1 + 0.2),
                                      Point(-1e300, 1.0 / 3.0),
                                      Point(12345.6789e-12, 9.87654321e15)}));
  // Subnormals: written with %.17g, read back through strtod's ERANGE.
  region.geometry.AddPolygon(
      Polygon({Point(1e-310, 2), Point(3, 4.9406564584124654e-324),
               Point(-2.5e-315, -1e-320)}));
  ASSERT_TRUE(config.AddRegion(std::move(region)).ok());
  auto loaded = ConfigurationFromXml(ConfigurationToXml(config));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->regions()[0].geometry, config.regions()[0].geometry);
}

TEST(QueryFuzzTest, GarbageNeverCrashes) {
  Rng rng(1618);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string input = RandomGarbage(&rng, rng.NextBelow(80));
    auto result = Query::Parse(input);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError)
          << "input: " << input;
    }
  }
}

TEST(QueryFuzzTest, MutatedValidQueriesNeverCrash) {
  const std::string valid =
      "(a, b) | color(a) = red, a {N, N:NE} b, area(b) > 10, "
      "percent(a, NE, b) > 50, distance(a, b) < 100, a meet b";
  Rng rng(1414);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = valid;
    const size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextInt(32, 126));
    auto result = Query::Parse(mutated);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    }
  }
}

}  // namespace
}  // namespace cardir
