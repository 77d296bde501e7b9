#include "common/string_dict.h"

#include <gtest/gtest.h>

#include "common/hash.h"

namespace wake {
namespace {

TEST(StringDictTest, InternReturnsDenseStableCodes) {
  StringDict dict;
  EXPECT_EQ(dict.Intern("alpha"), 0);
  EXPECT_EQ(dict.Intern("beta"), 1);
  EXPECT_EQ(dict.Intern("alpha"), 0);  // idempotent
  EXPECT_EQ(dict.Intern("gamma"), 2);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.At(0), "alpha");
  EXPECT_EQ(dict.At(2), "gamma");
}

TEST(StringDictTest, FindDoesNotIntern) {
  StringDict dict;
  dict.Intern("x");
  EXPECT_EQ(dict.Find("x"), 0);
  EXPECT_EQ(dict.Find("absent"), StringDict::kNotFound);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(StringDictTest, EmptyStringIsAValue) {
  StringDict dict;
  EXPECT_EQ(dict.Intern(""), 0);
  EXPECT_EQ(dict.Find(""), 0);
  EXPECT_EQ(dict.At(0), "");
}

TEST(StringDictTest, PreHashMatchesPlainFnv) {
  // Cross-dict hashing rests on this: a row mixes HashAt(code), which must
  // be FnvHash64 of the bytes, whatever dict holds them.
  StringDict dict;
  std::string s = "carefully final deposits";
  int32_t code = dict.Intern(s);
  EXPECT_EQ(dict.HashAt(code), FnvHash64(s.data(), s.size()));
  EXPECT_EQ(dict.hash_data()[code], dict.HashAt(code));
}

TEST(StringDictTest, ManyEntriesSurviveGrowth) {
  StringDict dict;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(dict.Intern("entry_" + std::to_string(i)), i);
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(dict.Find("entry_" + std::to_string(i)), i);
    EXPECT_EQ(dict.At(i), "entry_" + std::to_string(i));
  }
}

TEST(StringDictTest, CopyPreservesCodes) {
  StringDict dict;
  dict.Intern("a");
  dict.Intern("b");
  StringDict clone(dict);
  EXPECT_EQ(clone.Find("b"), 1);
  clone.Intern("c");
  EXPECT_EQ(clone.size(), 3u);
  EXPECT_EQ(dict.size(), 2u);  // original untouched
}

TEST(StringDictTest, ByteSizeGrowsWithEntries) {
  StringDict small;
  small.Intern("x");
  StringDict big;
  std::string long_str(200, 'y');
  for (int i = 0; i < 100; ++i) big.Intern(long_str + std::to_string(i));
  EXPECT_GT(big.ByteSize(), small.ByteSize());
  EXPECT_GE(big.ByteSize(), 100 * 200u);  // heap payloads counted
}

}  // namespace
}  // namespace wake
