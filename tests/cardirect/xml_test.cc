#include "cardirect/xml.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace cardir {
namespace {

Configuration SampleConfiguration() {
  Configuration config("peloponnesian-war", "ancient-greece.png");
  AnnotatedRegion attica;
  attica.id = "attica";
  attica.name = "Attica";
  attica.color = "blue";
  attica.geometry.AddPolygon(
      Polygon({Point(10, 20), Point(14.5, 21), Point(13, 17)}));
  CARDIR_CHECK_OK(config.AddRegion(attica));
  AnnotatedRegion pelo;
  pelo.id = "peloponnesos";
  pelo.name = "Peloponnesos";
  pelo.color = "red";
  pelo.geometry.AddPolygon(MakeRectangle(2, 2, 12, 18));
  pelo.geometry.AddPolygon(MakeRectangle(13, 3, 15, 5));  // An island.
  CARDIR_CHECK_OK(config.AddRegion(pelo));
  CARDIR_CHECK_OK(config.ComputeAllRelations());
  return config;
}

TEST(ConfigurationXmlTest, RoundTripPreservesEverything) {
  const Configuration original = SampleConfiguration();
  const std::string xml = ConfigurationToXml(original);
  auto loaded = ConfigurationFromXml(xml);
  ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << xml;
  EXPECT_EQ(loaded->name(), original.name());
  EXPECT_EQ(loaded->image_file(), original.image_file());
  ASSERT_EQ(loaded->regions().size(), original.regions().size());
  for (size_t i = 0; i < original.regions().size(); ++i) {
    const AnnotatedRegion& a = original.regions()[i];
    const AnnotatedRegion& b = loaded->regions()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.color, b.color);
    EXPECT_EQ(a.geometry, b.geometry);  // Exact coordinate round-trip.
  }
  // The original holds computed relations (RelationStore); the reloaded
  // configuration holds explicit records — same relations, same order.
  ASSERT_EQ(loaded->relations().size(), original.relation_count());
  size_t flat = 0;
  original.ForEachRelation([&](const std::string& primary_id,
                               const std::string& reference_id,
                               const CardinalRelation& relation) {
    EXPECT_EQ(loaded->relations()[flat].primary_id, primary_id);
    EXPECT_EQ(loaded->relations()[flat].reference_id, reference_id);
    EXPECT_EQ(loaded->relations()[flat].relation, relation);
    ++flat;
  });
}

// Two regions, one with two polygons, computed relations, and a name and a
// region id carrying all five escaped characters.
Configuration GoldenConfiguration() {
  Configuration config("<Hellas> & \"Attica\" 'map'", "ancient-greece.png");
  AnnotatedRegion attica;
  attica.id = "attica";
  attica.name = "Attica";
  attica.color = "blue";
  attica.geometry.AddPolygon(
      Polygon({Point(10, 20), Point(14.5, 21), Point(13, 17 + 1.0 / 3.0)}));
  CARDIR_CHECK_OK(config.AddRegion(attica));
  AnnotatedRegion pelo;
  pelo.id = "<pelo> & \"ponnesos\" 'isles'";
  pelo.color = "red";
  pelo.geometry.AddPolygon(MakeRectangle(2, 2, 12, 18));
  pelo.geometry.AddPolygon(MakeRectangle(13, 3, 15, 5));  // An island.
  CARDIR_CHECK_OK(config.AddRegion(pelo));
  CARDIR_CHECK_OK(config.ComputeAllRelations());
  return config;
}

// The exact document of GoldenConfiguration(). Saved files and their
// readers depend on these bytes: changing them is a format change.
constexpr char kGoldenXml[] = R"xml(<?xml version="1.0" encoding="UTF-8"?>
<Image name="&lt;Hellas&gt; &amp; &quot;Attica&quot; &apos;map&apos;" file="ancient-greece.png">
  <Region id="attica" name="Attica" color="blue">
    <Polygon id="attica-p0">
      <Edge x="10" y="20"/>
      <Edge x="14.5" y="21"/>
      <Edge x="13" y="17.333333333333332"/>
    </Polygon>
  </Region>
  <Region id="&lt;pelo&gt; &amp; &quot;ponnesos&quot; &apos;isles&apos;" color="red">
    <Polygon id="&lt;pelo&gt; &amp; &quot;ponnesos&quot; &apos;isles&apos;-p0">
      <Edge x="2" y="18"/>
      <Edge x="12" y="18"/>
      <Edge x="12" y="2"/>
      <Edge x="2" y="2"/>
    </Polygon>
    <Polygon id="&lt;pelo&gt; &amp; &quot;ponnesos&quot; &apos;isles&apos;-p1">
      <Edge x="13" y="5"/>
      <Edge x="15" y="5"/>
      <Edge x="15" y="3"/>
      <Edge x="13" y="3"/>
    </Polygon>
  </Region>
  <Relation type="B:N" primary="attica" reference="&lt;pelo&gt; &amp; &quot;ponnesos&quot; &apos;isles&apos;"/>
  <Relation type="B:S:SW:W:SE" primary="&lt;pelo&gt; &amp; &quot;ponnesos&quot; &apos;isles&apos;" reference="attica"/>
</Image>
)xml";

TEST(ConfigurationXmlTest, WritesTheGoldenDocument) {
  EXPECT_EQ(ConfigurationToXml(GoldenConfiguration()), kGoldenXml);
  EXPECT_EQ(ConfigurationToXml(Configuration()),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Image/>\n");
  // The XML-loaded record path writes the same bytes as the computed store.
  auto loaded = ConfigurationFromXml(kGoldenXml);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->relation_store(), nullptr);
  EXPECT_EQ(ConfigurationToXml(*loaded), kGoldenXml);
}

TEST(ConfigurationXmlTest, ReadsPrologueCommentsAndDoctype) {
  const char* doc =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!-- a comment -->\n"
      "<!DOCTYPE Image [ <!ELEMENT Image (Region+)> ]>\n"
      "<Image name=\"m\"><!-- inner --><Region id=\"r\"><?pi data?>"
      "<Polygon id=\"p\"><Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/>"
      "<Edge x=\"1\" y=\"0\"></Edge></Polygon></Region></Image>\n"
      "<!-- trailing -->\n";
  auto loaded = ConfigurationFromXml(doc);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name(), "m");
  ASSERT_EQ(loaded->regions().size(), 1u);
  EXPECT_EQ(loaded->regions()[0].geometry.polygons()[0].size(), 3u);
}

TEST(ConfigurationXmlTest, DecodesEntities) {
  auto loaded = ConfigurationFromXml(
      "<Image name=\"&lt;&amp;&gt;&quot;&apos;&#65;&#x42;\" file='two'/>");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name(), "<&>\"'AB");
  EXPECT_EQ(loaded->image_file(), "two");
}

TEST(ConfigurationXmlTest, RejectsMalformedCharacterReferences) {
  // Only `&#` digits `;` and `&#x` hex digits `;` are character references:
  // trailing junk, a space or a sign is an error naming the reference.
  for (const auto& [doc, reference] :
       std::vector<std::pair<std::string, std::string>>{
           {"<Image name=\"m&#65xyz;p\"/>", "&#65xyz;"},
           {"<Image>\n<Region id=\"r&# 66;\"/></Image>", "&# 66;"},
           {"<Image>\n<Region id=\"r\" color=\"c&#+67;\"/></Image>",
            "&#+67;"},
       }) {
    const Status status = ConfigurationFromXml(doc).status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << doc;
    EXPECT_NE(status.message().find(reference), std::string::npos) << status;
    EXPECT_EQ(status.message().rfind("xml:", 0), 0u) << status;
  }
}

TEST(ConfigurationXmlTest, UnknownRelationRegionIsNamed) {
  const Result<Configuration> loaded = ConfigurationFromXml(
      "<Image><Region id=\"b\"><Polygon id=\"p\">"
      "<Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/><Edge x=\"1\" "
      "y=\"0\"/></Polygon></Region>"
      "<Relation type=\"S\" primary=\"b\" reference=\"lake\"/></Image>");
  ASSERT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("primary='b' reference='lake'"),
            std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("unknown region id 'lake'"),
            std::string::npos)
      << loaded.status();
}

TEST(ConfigurationXmlTest, RejectsBadConfigurations) {
  // Malformed XML.
  for (const char* malformed : {
           "",                            // Empty document.
           "<Image>",                     // Unterminated.
           "<Image></Region>",            // Mismatched end tag.
           "<Image name=1/>",             // Unquoted attribute.
           "<Image name=\"&unknown;\"/>",  // Unknown entity.
           "<Image>&unknown;</Image>",    // Unknown entity in text.
           "<Image/><Image/>",            // Two roots.
       }) {
    EXPECT_EQ(ConfigurationFromXml(malformed).status().code(),
              StatusCode::kParseError)
        << malformed;
  }
  EXPECT_FALSE(ConfigurationFromXml("<NotImage/>").ok());
  // Region without id.
  EXPECT_FALSE(ConfigurationFromXml("<Image><Region/></Image>").ok());
  // Polygon with fewer than 3 edges.
  EXPECT_FALSE(ConfigurationFromXml(
                   "<Image><Region id=\"r\"><Polygon id=\"p\">"
                   "<Edge x=\"0\" y=\"0\"/><Edge x=\"1\" y=\"1\"/>"
                   "</Polygon></Region></Image>")
                   .ok());
  // Relation referencing an unknown region.
  EXPECT_FALSE(
      ConfigurationFromXml(
          "<Image><Region id=\"r\"><Polygon id=\"p\">"
          "<Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/><Edge x=\"1\" "
          "y=\"0\"/></Polygon></Region>"
          "<Relation type=\"S\" primary=\"r\" reference=\"ghost\"/></Image>")
          .ok());
  // Relation with an invalid type.
  EXPECT_FALSE(
      ConfigurationFromXml(
          "<Image><Region id=\"r\"><Polygon id=\"p\">"
          "<Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/><Edge x=\"1\" "
          "y=\"0\"/></Polygon></Region>"
          "<Relation type=\"QQ\" primary=\"r\" reference=\"r\"/></Image>")
          .ok());
  // Non-numeric coordinate.
  EXPECT_FALSE(ConfigurationFromXml(
                   "<Image><Region id=\"r\"><Polygon id=\"p\">"
                   "<Edge x=\"zero\" y=\"0\"/><Edge x=\"0\" y=\"1\"/>"
                   "<Edge x=\"1\" y=\"0\"/></Polygon></Region></Image>")
                   .ok());
  const std::string region_r =
      "<Region id=\"r\"><Polygon id=\"p\"><Edge x=\"0\" y=\"0\"/>"
      "<Edge x=\"0\" y=\"1\"/><Edge x=\"1\" y=\"0\"/></Polygon></Region>";
  // Two regions with one id.
  EXPECT_EQ(ConfigurationFromXml("<Image>" + region_r + region_r + "</Image>")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  // A relation of a region to itself, with a valid type.
  const auto self = ConfigurationFromXml(
      "<Image>" + region_r +
      "<Relation type=\"B\" primary=\"r\" reference=\"r\"/></Image>");
  EXPECT_EQ(self.status().code(), StatusCode::kParseError);
  EXPECT_NE(self.status().message().find("'r'"), std::string::npos)
      << self.status();
  // Two records for one ordered pair, next to each other or apart: the
  // first must not silently win.
  const std::string region_s =
      "<Region id=\"s\"><Polygon id=\"q\"><Edge x=\"5\" y=\"5\"/>"
      "<Edge x=\"5\" y=\"6\"/><Edge x=\"6\" y=\"5\"/></Polygon></Region>";
  for (const std::string& between :
       {std::string(), std::string("<Relation type=\"NE\" primary=\"s\" "
                                   "reference=\"r\"/>")}) {
    const auto duplicate = ConfigurationFromXml(
        "<Image>" + region_r + region_s +
        "<Relation type=\"W\" primary=\"r\" reference=\"s\"/>" + between +
        "<Relation type=\"N\" primary=\"r\" reference=\"s\"/></Image>");
    EXPECT_EQ(duplicate.status().code(), StatusCode::kParseError);
    EXPECT_NE(duplicate.status().message().find("'r'"), std::string::npos)
        << duplicate.status();
    EXPECT_NE(duplicate.status().message().find("'s'"), std::string::npos)
        << duplicate.status();
  }
  // Whatever the DTD does not place is an error naming it, never dropped:
  // a square that loses a vertex, a region or polygon that goes missing, an
  // attribute that goes unread.
  const std::string edges =
      "<Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/><Edge x=\"1\" y=\"1\"/>";
  const std::pair<std::string, std::string> misplaced[] = {
      {"<Image><Region id=\"r\"><Polygon id=\"p\">" + edges +
           "<Edg x=\"1\" y=\"0\"/></Polygon></Region></Image>",
       "<Edg>"},
      {"<Image>" + region_r + "<Regoin id=\"s\"><Polygon>" + edges +
           "</Polygon></Regoin></Image>",
       "<Regoin>"},
      {"<Image><Region id=\"r\"><Polygon>" + edges + "</Polygon><Polygn>" +
           edges + "</Polygn></Region></Image>",
       "<Polygn>"},
      {"<Image>" + region_r + "<Polygon>" + edges + "</Polygon></Image>",
       "<Polygon> is not allowed in <Image>"},
      {"<Image><Region id=\"r\"><Polygon>" + edges +
           "5,5</Polygon></Region></Image>",
       "'5,5'"},
      {"<Image><Region id=\"r\" colour=\"red\"><Polygon>" + edges +
           "</Polygon></Region></Image>",
       "'colour'"},
      {"<Image><Region id=\"r\"><Polygon><Edge x=\"0\" x=\"2\" y=\"0\"/>" +
           edges + "</Polygon></Region></Image>",
       "repeats attribute 'x'"},
  };
  for (const auto& [xml, offender] : misplaced) {
    const auto result = ConfigurationFromXml(xml);
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << xml;
    EXPECT_NE(result.status().message().find(offender), std::string::npos)
        << result.status();
  }
  // Distinct ordered pairs load, also both directions of one pair and
  // pairs sharing a primary or a reference.
  const std::string region_t =
      "<Region id=\"t\"><Polygon id=\"u\"><Edge x=\"10\" y=\"0\"/>"
      "<Edge x=\"10\" y=\"1\"/><Edge x=\"11\" y=\"0\"/></Polygon></Region>";
  EXPECT_TRUE(ConfigurationFromXml(
                  "<Image>" + region_r + region_s + region_t +
                  "<Relation type=\"SW\" primary=\"r\" reference=\"s\"/>"
                  "<Relation type=\"NE\" primary=\"s\" reference=\"r\"/>"
                  "<Relation type=\"SE\" primary=\"t\" reference=\"s\"/>"
                  "<Relation type=\"W\" primary=\"r\" reference=\"t\"/>"
                  "</Image>")
                  .ok());
}

TEST(ConfigurationXmlTest, SaveAndLoadFiles) {
  const Configuration original = SampleConfiguration();
  const std::string path = ::testing::TempDir() + "/cardir_xml_test.xml";
  ASSERT_TRUE(SaveConfiguration(original, path).ok());
  auto loaded = LoadConfiguration(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->regions().size(), original.regions().size());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadConfiguration(path + ".does-not-exist").ok());
}

TEST(ConfigurationXmlTest, LoadsFromAPipe) {
  // A FIFO has no size to read ahead; it loads to its end all the same,
  // here across several read steps.
  Configuration config;
  for (int k = 0; k < 60; ++k) {
    AnnotatedRegion region;
    region.id = StrFormat("r%d", k);
    region.geometry.AddPolygon(MakeRectangle(k, k % 7, k + 1.5, k % 7 + 2));
    CARDIR_CHECK_OK(config.AddRegion(std::move(region)));
  }
  CARDIR_CHECK_OK(config.ComputeAllRelations());
  const std::string xml = ConfigurationToXml(config);
  ASSERT_GT(xml.size(), size_t{1} << 17);
  // A reader that stops early makes the writer's next write fail (EPIPE)
  // instead of ending the test binary.
  std::signal(SIGPIPE, SIG_IGN);
  const std::string path = ::testing::TempDir() + "/cardir_xml_test.fifo";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  std::thread writer([&path, &xml] { std::ofstream(path) << xml; });
  const Result<Configuration> loaded = LoadConfiguration(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(ConfigurationToXml(*loaded), xml);
}

}  // namespace
}  // namespace cardir
