#include "common/strings.h"

#include <gtest/gtest.h>

namespace wake {
namespace {

TEST(JoinTest, KeepsEmptyParts) {
  std::vector<std::string> parts = {"x", "", "yz"};
  EXPECT_EQ(Join(parts, ","), "x,,yz");
}

TEST(JoinTest, EmptyVector) { EXPECT_EQ(Join({}, ","), ""); }

TEST(LikeMatchTest, ExactMatch) {
  EXPECT_TRUE(LikeMatch("MAIL", "MAIL"));
  EXPECT_FALSE(LikeMatch("MAIL", "SHIP"));
  EXPECT_FALSE(LikeMatch("MAIL", "MAI"));
}

TEST(LikeMatchTest, PercentWildcard) {
  EXPECT_TRUE(LikeMatch("PROMO ANODIZED TIN", "PROMO%"));
  EXPECT_FALSE(LikeMatch("STANDARD ANODIZED TIN", "PROMO%"));
  EXPECT_TRUE(LikeMatch("LARGE BURNISHED BRASS", "%BRASS"));
  EXPECT_TRUE(LikeMatch("forest green stuff", "%green%"));
  EXPECT_TRUE(LikeMatch("anything", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
}

TEST(LikeMatchTest, MultiplePercents) {
  // The Q13 pattern.
  EXPECT_TRUE(LikeMatch("bold special handling requests",
                        "%special%requests%"));
  EXPECT_FALSE(LikeMatch("special handling", "%special%requests%"));
  EXPECT_TRUE(LikeMatch("specialrequests", "%special%requests%"));
  // The Q16 pattern.
  EXPECT_TRUE(LikeMatch("sly Customer detected Complaints",
                        "%Customer%Complaints%"));
}

TEST(LikeMatchTest, UnderscoreWildcard) {
  EXPECT_TRUE(LikeMatch("cat", "c_t"));
  EXPECT_FALSE(LikeMatch("ct", "c_t"));
  EXPECT_TRUE(LikeMatch("cart", "c__t"));
}

TEST(LikeMatchTest, BacktrackingIsCorrect) {
  // Requires retrying the '%' expansion.
  EXPECT_TRUE(LikeMatch("aaab", "%ab"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
  EXPECT_FALSE(LikeMatch("abcabd", "%abc"));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("Q%-2d x=%zu", 7, size_t{42}), "Q7  x=42");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("%s#%09d", "Supplier", 3), "Supplier#000000003");
}

}  // namespace
}  // namespace wake
