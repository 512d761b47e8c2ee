#include "cardirect/query.h"

#include <gtest/gtest.h>

namespace cardir {
namespace {

void AddRect(Configuration* config, const std::string& id,
             const std::string& name, const std::string& color, double x0,
             double y0, double x1, double y1) {
  AnnotatedRegion region;
  region.id = id;
  region.name = name;
  region.color = color;
  region.geometry.AddPolygon(MakeRectangle(x0, y0, x1, y1));
  ASSERT_TRUE(config->AddRegion(std::move(region)).ok());
}

// A stylised Peloponnesian-war configuration (paper §4, Fig. 11): blue =
// Athenean Alliance, red = Spartan Alliance. The "surrounded" pair is the
// blue island inside the red ring.
Configuration WarConfiguration() {
  Configuration config("peloponnesian-war", "ancient-greece.png");
  AddRect(&config, "attica", "Attica", "blue", 30, 30, 45, 45);
  AddRect(&config, "peloponnesos", "Peloponnesos", "red", 10, 10, 40, 35);
  AddRect(&config, "macedonia", "Macedonia", "black", 25, 60, 50, 75);
  AddRect(&config, "island", "Island", "blue", 70, 20, 75, 25);
  // A red ring (Sicily, say) surrounding the island: four bands.
  AnnotatedRegion ring;
  ring.id = "sicily";
  ring.name = "Sicely";
  ring.color = "red";
  ring.geometry.AddPolygon(MakeRectangle(60, 10, 85, 18));  // South band.
  ring.geometry.AddPolygon(MakeRectangle(60, 27, 85, 35));  // North band.
  ring.geometry.AddPolygon(MakeRectangle(60, 18, 68, 27));  // West band.
  ring.geometry.AddPolygon(MakeRectangle(77, 18, 85, 27));  // East band.
  EXPECT_TRUE(config.AddRegion(std::move(ring)).ok());
  EXPECT_TRUE(config.ComputeAllRelations().ok());
  return config;
}

TEST(QueryParseTest, ParsesThePaperQuery) {
  auto query = Query::Parse(
      "(a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->variables, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(query->thematic_conditions.size(), 2u);
  ASSERT_EQ(query->direction_conditions.size(), 1u);
  EXPECT_EQ(query->direction_conditions[0].relation.Count(), 1u);
  EXPECT_TRUE(query->direction_conditions[0].relation.Contains(
      *CardinalRelation::Parse("S:SW:W:NW:N:NE:E:SE")));
}

TEST(QueryParseTest, ParsesIdentityAndDisjunctiveAtoms) {
  auto query = Query::Parse(
      "(x, y) | x = attica, name(y) = \"Region 1\", x {N, N:NE, NE} y");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->identity_conditions.size(), 1u);
  EXPECT_EQ(query->thematic_conditions.size(), 1u);
  EXPECT_EQ(query->direction_conditions[0].relation.Count(), 3u);
}

TEST(QueryParseTest, RejectsMalformedQueries) {
  EXPECT_FALSE(Query::Parse("").ok());
  EXPECT_FALSE(Query::Parse("a, b | a S b").ok());        // Missing parens.
  EXPECT_FALSE(Query::Parse("(a, a) | a = x").ok());      // Duplicate var.
  EXPECT_FALSE(Query::Parse("(a) | b = x").ok());         // Undeclared var.
  EXPECT_FALSE(Query::Parse("(a, b) | a QQ b").ok());     // Bad tile.
  EXPECT_FALSE(Query::Parse("(a) | a S a").ok());         // Self relation.
  EXPECT_FALSE(Query::Parse("(a) | size(a) = 3").ok());   // Bad attribute.
  EXPECT_FALSE(Query::Parse("(a) | a = x extra").ok());   // Trailing junk.
}

// "(x0, x1, …) | color(x0) = red" with `variables` head variables.
std::string WideHeadQuery(size_t variables) {
  std::string text = "(x0";
  for (size_t v = 1; v < variables; ++v) {
    text += ", x";
    text += std::to_string(v);
  }
  text += ") | color(x0) = red";
  return text;
}

// Evaluation recurses once per head variable; a 40,000-variable head used
// to overflow the stack, so the parser bounds the head.
TEST(QueryParseTest, HeadVariablesAreBounded) {
  Configuration config;
  AddRect(&config, "only", "Only", "red", 0, 0, 1, 1);
  auto at_limit = EvaluateQuery(config, WideHeadQuery(kMaxQueryVariables));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  ASSERT_EQ(at_limit->rows.size(), 1u);
  EXPECT_EQ(at_limit->rows[0].region_ids.size(), kMaxQueryVariables);
  for (const size_t variables : {kMaxQueryVariables + 1, size_t{40000}}) {
    const auto over = EvaluateQuery(config, WideHeadQuery(variables));
    EXPECT_EQ(over.status().code(), StatusCode::kParseError) << variables;
    EXPECT_NE(over.status().message().find("more than 64 variables"),
              std::string::npos)
        << over.status();
  }
}

TEST(QueryEvalTest, PaperSectionFourQuery) {
  // "Find all regions of the Athenean Alliance which are surrounded by a
  //  region in the Spartan Alliance":
  //  q = {(a,b) | color(a)=red, color(b)=blue, a S:SW:W:NW:N:NE:E:SE b}.
  const Configuration config = WarConfiguration();
  auto result = EvaluateQuery(
      config,
      "(a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].region_ids,
            (std::vector<std::string>{"sicily", "island"}));
}

TEST(QueryEvalTest, IdentityConditionsMatchIdOrName) {
  const Configuration config = WarConfiguration();
  auto by_id = EvaluateQuery(config, "(x) | x = attica");
  ASSERT_TRUE(by_id.ok());
  ASSERT_EQ(by_id->rows.size(), 1u);
  auto by_name = EvaluateQuery(config, "(x) | x = Peloponnesos");
  ASSERT_TRUE(by_name.ok());
  ASSERT_EQ(by_name->rows.size(), 1u);
  EXPECT_EQ(by_name->rows[0].region_ids[0], "peloponnesos");
}

TEST(QueryEvalTest, ThematicOnlyQueryEnumeratesTuples) {
  const Configuration config = WarConfiguration();
  auto result = EvaluateQuery(config, "(x) | color(x) = blue");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);  // attica, island (sorted by id).
  EXPECT_EQ(result->rows[0].region_ids[0], "attica");
  EXPECT_EQ(result->rows[1].region_ids[0], "island");
}

TEST(QueryEvalTest, DirectionAtomUsesStoredRelations) {
  const Configuration config = WarConfiguration();
  // Peloponnesos B:S:SW:W Attica (the Fig. 12 relation).
  auto result = EvaluateQuery(
      config, "(x) | x = peloponnesos, x B:S:SW:W y, y = attica");
  ASSERT_FALSE(result.ok());  // y used before declared? No — declared vars
                              // come from the head; this query is malformed.
  auto good = EvaluateQuery(
      config,
      "(x, y) | x = peloponnesos, y = attica, x B:S:SW:W y");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->rows.size(), 1u);
}

TEST(QueryEvalTest, DirectionAtomComputesWhenNotStored) {
  Configuration config;
  AddRect(&config, "a", "A", "red", 0, 0, 10, 10);
  AddRect(&config, "b", "B", "blue", 2, -20, 8, -12);
  // No ComputeAllRelations(): the evaluator must fall back to Compute-CDR.
  auto result = EvaluateQuery(config, "(x, y) | x S y");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].region_ids,
            (std::vector<std::string>{"b", "a"}));
}

TEST(QueryEvalTest, DisjunctiveDirectionAtom) {
  const Configuration config = WarConfiguration();
  // Macedonia is north-ish of Attica (spilling into NW and NE).
  auto result = EvaluateQuery(
      config, "(x, y) | y = attica, x {N, NW:N, N:NE, NW:N:NE} y");
  ASSERT_TRUE(result.ok()) << result.status();
  bool found_macedonia = false;
  for (const QueryRow& row : result->rows) {
    found_macedonia |= (row.region_ids[0] == "macedonia");
  }
  EXPECT_TRUE(found_macedonia);
}

TEST(QueryEvalTest, EmptyResultIsNotAnError) {
  const Configuration config = WarConfiguration();
  auto result = EvaluateQuery(config, "(x) | color(x) = purple");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST(QueryEvalTest, SameRegionCannotBindBothSidesOfDirectionAtom) {
  Configuration config;
  AddRect(&config, "solo", "Solo", "red", 0, 0, 10, 10);
  auto result = EvaluateQuery(config, "(x, y) | x B y");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST(QueryEvalTest, ThreeVariableConjunction) {
  const Configuration config = WarConfiguration();
  auto result = EvaluateQuery(config,
                              "(a, b, c) | a = peloponnesos, b = attica, "
                              "a B:S:SW:W b, c {N, NW:N, N:NE, NW, NE, "
                              "NW:N:NE} b, color(c) = black");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].region_ids[2], "macedonia");
}

}  // namespace
}  // namespace cardir
