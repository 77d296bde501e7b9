// Dictionary-encoded string columns: round trips, gathers that share the
// dict (no string copies), cross-dict appends, nulls, and hash/compare
// equivalence with the plain encoding.
#include <gtest/gtest.h>

#include "common/error.h"
#include "frame/column.h"

namespace wake {
namespace {

TEST(ColumnDictTest, EncodeDecodeRoundTrip) {
  Column plain = Column::FromStrings({"a", "b", "a", "c", ""});
  plain.SetNull(3);
  Column dict = plain.EncodeDict();
  ASSERT_TRUE(dict.is_dict());
  EXPECT_EQ(dict.size(), 5u);
  EXPECT_EQ(dict.dict()->size(), 3u);  // "a", "b", "" — null never interned
  EXPECT_EQ(dict.codes()[0], dict.codes()[2]);
  EXPECT_TRUE(dict.IsNull(3));
  Column back = dict.DecodeDict();
  EXPECT_FALSE(back.is_dict());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(back.IsNull(i), plain.IsNull(i));
    if (!plain.IsNull(i)) EXPECT_EQ(back.StringAt(i), plain.StringAt(i));
  }
}

TEST(ColumnDictTest, StringAtWorksUnderBothEncodings) {
  Column dict = Column::DictFromStrings({"x", "y", "x"});
  EXPECT_EQ(dict.StringAt(0), "x");
  EXPECT_EQ(dict.StringAt(1), "y");
  dict.AppendNull();
  EXPECT_EQ(dict.StringAt(3), "");  // null rows read as empty
}

TEST(ColumnDictTest, TakeGathersCodesAndSharesDict) {
  Column c = Column::DictFromStrings({"a", "b", "c", "d"});
  c.SetNull(2);
  Column t = c.Take({3, 2, 0});
  ASSERT_TRUE(t.is_dict());
  // Shared dict identity: the gather copied int32 codes, not strings.
  EXPECT_EQ(t.dict().get(), c.dict().get());
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.StringAt(0), "d");
  EXPECT_TRUE(t.IsNull(1));
  EXPECT_EQ(t.StringAt(2), "a");
}

TEST(ColumnDictTest, FilterByAndSliceShareDict) {
  Column c = Column::DictFromStrings({"a", "b", "c", "d"});
  Column f = c.FilterBy({1, 0, 1, 0});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.dict().get(), c.dict().get());
  EXPECT_EQ(f.StringAt(1), "c");
  Column s = c.Slice(1, 3);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.dict().get(), c.dict().get());
  EXPECT_EQ(s.StringAt(0), "b");
}

TEST(ColumnDictTest, AppendColumnSameDictConcatenatesCodes) {
  Column c = Column::DictFromStrings({"a", "b"});
  Column d = c.Slice(0, 1);  // shares c's dict
  d.AppendColumn(c);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d.dict().get(), c.dict().get());
  EXPECT_EQ(d.StringAt(2), "b");
}

TEST(ColumnDictTest, AppendColumnCrossDictRemaps) {
  Column a = Column::DictFromStrings({"a", "b"});
  Column b = Column::DictFromStrings({"b", "c"});
  b.AppendNull();
  a.AppendColumn(b);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a.StringAt(2), "b");
  EXPECT_EQ(a.StringAt(3), "c");
  EXPECT_TRUE(a.IsNull(4));
  // "b" exists once in the remapped dict; codes from both sources agree.
  EXPECT_EQ(a.codes()[1], a.codes()[2]);
  EXPECT_EQ(a.dict()->size(), 3u);
}

TEST(ColumnDictTest, AppendColumnCrossDictCopiesSharedDictFirst) {
  Column a = Column::DictFromStrings({"a"});
  Column alias = a;  // shares a's dict
  Column b = Column::DictFromStrings({"z"});
  a.AppendColumn(b);  // must not intern "z" into the shared pool
  EXPECT_EQ(alias.dict()->size(), 1u);
  EXPECT_NE(a.dict().get(), alias.dict().get());
  EXPECT_EQ(a.StringAt(1), "z");
}

TEST(ColumnDictTest, EmptyPlainDestinationAdoptsDict) {
  Column src = Column::DictFromStrings({"a", "b"});
  Column dst(ValueType::kString);  // plain, empty — e.g. DataFrame(schema)
  dst.AppendColumn(src);
  ASSERT_TRUE(dst.is_dict());
  EXPECT_EQ(dst.dict().get(), src.dict().get());
  EXPECT_EQ(dst.StringAt(1), "b");
}

TEST(ColumnDictTest, EmptyAppendLeavesSharedDictUncopied) {
  Column dst = Column::DictFromStrings({"a", "b"});
  Column alias = dst;  // shares dst's dict
  const StringDict* shared = dst.dict().get();
  dst.AppendColumn(Column(ValueType::kString));  // empty plain column
  EXPECT_EQ(dst.dict().get(), shared);
  Column other_dict = Column::DictFromStrings({"z"}).Slice(0, 0);
  ASSERT_TRUE(other_dict.is_dict());
  dst.AppendColumn(other_dict);  // empty, with a different dict
  EXPECT_EQ(dst.dict().get(), shared);
  EXPECT_EQ(dst.size(), 2u);
  EXPECT_EQ(alias.dict().get(), shared);
}

TEST(ColumnDictTest, EmptyDestinationAdoptsDictOfEmptyAppend) {
  Column src = Column::DictFromStrings({"a"}).Slice(0, 0);
  Column dst(ValueType::kString);
  dst.AppendColumn(src);
  EXPECT_TRUE(dst.is_dict());
  EXPECT_EQ(dst.dict().get(), src.dict().get());
}

TEST(ColumnDictTest, AppendPlainIntoDictInterns) {
  Column dict = Column::DictFromStrings({"a"});
  Column plain = Column::FromStrings({"b", "a"});
  plain.SetNull(0);
  dict.AppendColumn(plain);
  ASSERT_EQ(dict.size(), 3u);
  EXPECT_TRUE(dict.IsNull(1));
  EXPECT_EQ(dict.codes()[0], dict.codes()[2]);  // "a" re-used
}

TEST(ColumnDictTest, AppendDictIntoNonEmptyPlainDecodes) {
  Column plain = Column::FromStrings({"p"});
  Column dict = Column::DictFromStrings({"q"});
  plain.AppendColumn(dict);
  EXPECT_FALSE(plain.is_dict());
  EXPECT_EQ(plain.StringAt(1), "q");
}

TEST(ColumnDictTest, HashEqualsPlainEncoding) {
  std::vector<std::string> values = {"", "a", "carefully final deposits",
                                     "Customer#000000042"};
  Column plain = Column::FromStrings(values);
  Column dict = plain.EncodeDict();
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(plain.HashRow(i, 7), dict.HashRow(i, 7)) << i;
  }
  std::vector<uint64_t> hp(values.size(), 42), hd(values.size(), 42);
  plain.HashInto(hp.data(), hp.size());
  dict.HashInto(hd.data(), hd.size());
  EXPECT_EQ(hp, hd);
}

TEST(ColumnDictTest, NullHashesMatchAcrossEncodings) {
  Column plain = Column::FromStrings({"a", "b"});
  plain.SetNull(1);
  Column dict = plain.EncodeDict();
  EXPECT_EQ(plain.HashRow(1, 3), dict.HashRow(1, 3));
}

TEST(ColumnDictTest, CompareRowsAcrossEncodings) {
  Column plain = Column::FromStrings({"apple", "banana"});
  Column dict = plain.EncodeDict();
  EXPECT_EQ(dict.CompareRows(0, plain, 0), 0);
  EXPECT_LT(dict.CompareRows(0, plain, 1), 0);
  EXPECT_GT(plain.CompareRows(1, dict, 0), 0);
  // Same dict, equal codes short-circuits.
  EXPECT_EQ(dict.CompareRows(1, dict, 1), 0);
}

TEST(ColumnDictTest, AppendFromAdoptsAndCopiesCodes) {
  Column src = Column::DictFromStrings({"a", "b"});
  src.AppendNull();
  Column dst(ValueType::kString);
  dst.AppendFrom(src, 1);
  ASSERT_TRUE(dst.is_dict());
  EXPECT_EQ(dst.dict().get(), src.dict().get());
  dst.AppendFrom(src, 2);  // null
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.StringAt(0), "b");
  EXPECT_TRUE(dst.IsNull(1));
}

TEST(ColumnDictTest, SetNullClearsCode) {
  Column c = Column::DictFromStrings({"a", "b"});
  c.SetNull(0);
  EXPECT_EQ(c.codes()[0], Column::kNullCode);
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_EQ(c.StringAt(1), "b");
}

TEST(ColumnDictTest, GetValueAndAppendValueRoundTrip) {
  Column c = Column::NewDict();
  c.AppendValue(Value::Str("hello"));
  c.AppendValue(Value::Null(ValueType::kString));
  EXPECT_EQ(c.GetValue(0).s, "hello");
  EXPECT_TRUE(c.GetValue(1).is_null);
}

TEST(ColumnDictTest, ByteSizeCountsCodesAndDict) {
  Column c = Column::NewDict();
  std::string long_str(300, 'x');
  for (int i = 0; i < 1000; ++i) c.AppendString(long_str + std::to_string(i));
  // 1000 int32 codes + 1000 distinct ~300-byte pool entries.
  EXPECT_GE(c.ByteSize(), 1000 * sizeof(int32_t) + 1000 * 300u);
  // Codes dominate growth once the dict saturates: appending existing
  // values adds 4 bytes/row, not a string.
  size_t before = c.ByteSize();
  for (int i = 0; i < 1000; ++i) c.AppendString(long_str + "0");
  size_t growth = c.ByteSize() - before;
  EXPECT_LT(growth, 1000 * sizeof(std::string));
}

}  // namespace
}  // namespace wake
