#include "cardirect/constraint_file.h"

#include <gtest/gtest.h>

#include "core/compute_cdr.h"
#include "util/string_util.h"

namespace cardir {
namespace {

TEST(ConstraintFileTest, ParsesBasicAndDisjunctiveLines) {
  auto network = ParseConstraintFile(
      "# The three allies\n"
      "a S b\n"
      "\n"
      "b {N, N:NE} c   # trailing comment\n");
  ASSERT_TRUE(network.ok()) << network.status();
  EXPECT_EQ(network->variable_count(), 3);
  EXPECT_EQ(network->variable_name(0), "a");
  ASSERT_TRUE(network->constraint(0, 1).has_value());
  EXPECT_EQ(network->constraint(0, 1)->Count(), 1u);
  ASSERT_TRUE(network->constraint(1, 2).has_value());
  EXPECT_EQ(network->constraint(1, 2)->Count(), 2u);
}

TEST(ConstraintFileTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseConstraintFile("a S\n").ok());
  EXPECT_FALSE(ParseConstraintFile("a QQ b\n").ok());
  EXPECT_FALSE(ParseConstraintFile("a S a\n").ok());
  EXPECT_FALSE(ParseConstraintFile("").ok());
  EXPECT_FALSE(ParseConstraintFile("# only comments\n").ok());
  // Error messages carry the line number.
  auto bad = ParseConstraintFile("a S b\nc XX d\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(ConstraintFileTest, RepeatedPairsIntersect) {
  auto network = ParseConstraintFile(
      "a {S, SW} b\n"
      "a {S, N} b\n");
  ASSERT_TRUE(network.ok());
  EXPECT_EQ(network->constraint(0, 1)->Count(), 1u);
}

TEST(ConstraintFileTest, ConsistentNetworkSolvesAndModelVerifies) {
  auto network = ParseConstraintFile(
      "a S b\n"
      "b S c\n"
      "a {S, SW:S} c\n");
  ASSERT_TRUE(network.ok());
  auto model = network->Solve();
  ASSERT_TRUE(model.ok()) << model.status();
  auto relation = ComputeCdr(model->regions[0], model->regions[1]);
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->ToString(), "S");
  const std::string listing = FormatNetworkModel(*network, *model);
  EXPECT_NE(listing.find("a:"), std::string::npos);
  EXPECT_NE(listing.find("c:"), std::string::npos);
}

TEST(ConstraintFileTest, InconsistentNetworkDetected) {
  auto network = ParseConstraintFile(
      "a S b\n"
      "b S c\n"
      "a N c\n");
  ASSERT_TRUE(network.ok());
  auto model = network->Solve();
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInconsistent);
}

// A chain over `variables` distinct variables: line k is "v<k-1> N v<k>".
std::string Chain(int variables) {
  std::string text;
  for (int v = 1; v < variables; ++v) {
    text += StrFormat("v%d N v%d\n", v - 1, v);
  }
  return text;
}

TEST(ConstraintFileTest, VariableCountIsBounded) {
  auto at_limit = ParseConstraintFile(Chain(kMaxConstraintVariables));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(at_limit->variable_count(), kMaxConstraintVariables);
  // Line kMaxConstraintVariables names one variable too many.
  auto over = ParseConstraintFile(Chain(kMaxConstraintVariables + 1));
  ASSERT_EQ(over.status().code(), StatusCode::kParseError);
  EXPECT_NE(over.status().message().find(
                StrFormat("line %d: more than %d variables",
                          kMaxConstraintVariables, kMaxConstraintVariables)),
            std::string::npos)
      << over.status();
}

}  // namespace
}  // namespace cardir
