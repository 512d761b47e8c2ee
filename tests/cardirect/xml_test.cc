#include "cardirect/xml.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/logging.h"

namespace cardir {
namespace {

TEST(XmlParserTest, ParsesElementsAttributesAndNesting) {
  auto root = ParseXml(
      "<a x=\"1\" y='two'><b/><c k=\"v\">text</c></a>");
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(root->tag, "a");
  ASSERT_NE(root->FindAttribute("x"), nullptr);
  EXPECT_EQ(*root->FindAttribute("x"), "1");
  EXPECT_EQ(*root->FindAttribute("y"), "two");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0].tag, "b");
  EXPECT_EQ(root->children[1].text, "text");
  EXPECT_EQ(root->AttributeOr("missing", "dflt"), "dflt");
}

TEST(XmlParserTest, HandlesPrologueCommentsAndDoctype) {
  const char* doc =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!-- a comment -->\n"
      "<!DOCTYPE Image [ <!ELEMENT Image (Region+)> ]>\n"
      "<Image name=\"m\"><!-- inner --><Region id=\"r\"/></Image>";
  auto root = ParseXml(doc);
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(root->tag, "Image");
  EXPECT_EQ(root->children.size(), 1u);
}

TEST(XmlParserTest, DecodesEntities) {
  auto root = ParseXml("<a v=\"&lt;&amp;&gt;&quot;&apos;&#65;\">x &amp; y</a>");
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(*root->FindAttribute("v"), "<&>\"'A");
  EXPECT_EQ(root->text, "x & y");
}

TEST(XmlParserTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                    // Unterminated.
  EXPECT_FALSE(ParseXml("<a></b>").ok());                // Mismatched tags.
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());               // Unquoted attr.
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());       // Bad entity.
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());               // Two roots.
}

TEST(XmlWriterTest, EscapesAndRoundTrips) {
  XmlNode node;
  node.tag = "n";
  node.attributes.emplace_back("a", "x<y&\"z\"");
  XmlNode child;
  child.tag = "c";
  child.text = "1 < 2";
  node.children.push_back(child);
  const std::string xml = WriteXml(node);
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << xml;
  EXPECT_EQ(*parsed->FindAttribute("a"), "x<y&\"z\"");
  EXPECT_EQ(parsed->children[0].text, "1 < 2");
}

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

TEST(ConfigurationXmlTest, OutputFollowsTheDtdShape) {
  const std::string xml = ConfigurationToXml(SampleConfiguration());
  auto root = ParseXml(xml);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->tag, "Image");
  const auto regions = root->ChildrenNamed("Region");
  ASSERT_EQ(regions.size(), 2u);
  for (const XmlNode* region : regions) {
    EXPECT_NE(region->FindAttribute("id"), nullptr);
    for (const XmlNode* polygon : region->ChildrenNamed("Polygon")) {
      EXPECT_NE(polygon->FindAttribute("id"), nullptr);  // DTD: #REQUIRED.
      const auto edges = polygon->ChildrenNamed("Edge");
      EXPECT_GE(edges.size(), 3u);  // DTD: (Edge, Edge, Edge, Edge*).
      for (const XmlNode* edge : edges) {
        EXPECT_NE(edge->FindAttribute("x"), nullptr);
        EXPECT_NE(edge->FindAttribute("y"), nullptr);
      }
    }
  }
  for (const XmlNode* relation : root->ChildrenNamed("Relation")) {
    EXPECT_NE(relation->FindAttribute("type"), nullptr);
    EXPECT_NE(relation->FindAttribute("primary"), nullptr);
    EXPECT_NE(relation->FindAttribute("reference"), nullptr);
  }
}

TEST(ConfigurationXmlTest, RejectsBadConfigurations) {
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

TEST(XmlEscapeTest, EscapesAllFiveEntities) {
  EXPECT_EQ(XmlEscape("<a b=\"c\" & 'd'>"),
            "&lt;a b=&quot;c&quot; &amp; &apos;d&apos;&gt;");
  EXPECT_EQ(XmlEscape("plain"), "plain");
}

}  // namespace
}  // namespace cardir
