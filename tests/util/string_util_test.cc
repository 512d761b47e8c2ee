#include "util/string_util.h"

#include <gtest/gtest.h>

#include <limits>

namespace cardir {
namespace {

TEST(StrSplitTest, SplitsAndKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a:b:c", ':'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a::c", ':'), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("", ':'), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit(":", ':'), (std::vector<std::string>{"", ""}));
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n x \r\n"), "x");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("<?xml", "<?"));
  EXPECT_FALSE(StartsWith("<", "<?"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(AsciiToLowerTest, LowersOnlyAscii) {
  EXPECT_EQ(AsciiToLower("NE:E"), "ne:e");
  EXPECT_EQ(AsciiToLower("already"), "already");
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"solo"}, ", "), "solo");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -0.5 "), -0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
  // Subnormals underflow with ERANGE but are exact round-trip values.
  EXPECT_EQ(*ParseDouble("1e-310"), 1e-310);
  EXPECT_EQ(*ParseDouble("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("1e400").ok());  // Overflow.
}

TEST(ParseIntTest, ParsesAndRejects) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("").ok());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3.0), "0.33");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace cardir
