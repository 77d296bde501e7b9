// String columns (codes into a shared StringDict): gathers that share the
// dict (no string copies), cross-dict appends, nulls, when a column gets
// its dict, and hash/compare/equality of equal strings across dicts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "frame/column.h"
#include "frame/data_frame.h"

namespace wake {
namespace {

TEST(ColumnDictTest, StringAtReadsNullRowsAsEmpty) {
  Column dict = Column::FromStrings({"x", "y", "x"});
  EXPECT_EQ(dict.StringAt(0), "x");
  EXPECT_EQ(dict.StringAt(1), "y");
  dict.AppendNull();
  EXPECT_EQ(dict.StringAt(3), "");  // null rows read as empty
}

TEST(ColumnDictTest, TakeGathersCodesAndSharesDict) {
  Column c = Column::FromStrings({"a", "b", "c", "d"});
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
  Column c = Column::FromStrings({"a", "b", "c", "d"});
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
  Column c = Column::FromStrings({"a", "b"});
  Column d = c.Slice(0, 1);  // shares c's dict
  d.AppendColumn(c);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d.dict().get(), c.dict().get());
  EXPECT_EQ(d.StringAt(2), "b");
}

TEST(ColumnDictTest, AppendColumnCrossDictRemaps) {
  Column a = Column::FromStrings({"a", "b"});
  Column b = Column::FromStrings({"b", "c"});
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

TEST(ColumnDictTest, CrossDictAppendOfASliceInternsOnlyItsRows) {
  // A 10-row slice of a 100k-entry column: the destination gains the
  // slice's entries, in row order, not the source's whole dict.
  std::vector<std::string> strings;
  for (int i = 0; i < 100000; ++i) strings.push_back("s" + std::to_string(i));
  Column big = Column::FromStrings(strings);
  Column slice = big.Slice(50000, 50010);
  slice.SetNull(3);
  Column dst = Column::FromStrings({"a"});
  dst.AppendColumn(slice);
  ASSERT_EQ(dst.size(), 11u);
  EXPECT_LE(dst.dict()->size(), 1u + 10u);
  EXPECT_EQ(dst.dict()->At(1), "s50000");
  for (size_t r = 0; r < slice.size(); ++r) {
    EXPECT_EQ(dst.IsNull(1 + r), slice.IsNull(r)) << r;
    if (!slice.IsNull(r)) {
      EXPECT_EQ(dst.StringAt(1 + r), slice.StringAt(r));
    }
  }
}

TEST(ColumnDictTest, CrossDictAppendSkipsEntriesNoRowUses) {
  // More rows than source entries, all of one entry.
  Column src = Column::FromStrings({"p", "q", "r"}).Take({1, 1, 1, 1});
  Column dst = Column::FromStrings({"a"});
  dst.AppendColumn(src);
  ASSERT_EQ(dst.size(), 5u);
  EXPECT_EQ(dst.dict()->size(), 2u);
  EXPECT_EQ(dst.StringAt(4), "q");
}

TEST(ColumnDictTest, AppendColumnCrossDictCopiesSharedDictFirst) {
  Column a = Column::FromStrings({"a"});
  Column alias = a;  // shares a's dict
  Column b = Column::FromStrings({"z"});
  a.AppendColumn(b);  // must not intern "z" into the shared pool
  EXPECT_EQ(alias.dict()->size(), 1u);
  EXPECT_NE(a.dict().get(), alias.dict().get());
  EXPECT_EQ(a.StringAt(1), "z");
}

TEST(ColumnDictTest, EmptyDestinationWithoutDictAdoptsDict) {
  Column src = Column::FromStrings({"a", "b"});
  Column dst(ValueType::kString);  // empty, no dict — e.g. DataFrame(schema)
  dst.AppendColumn(src);
  ASSERT_TRUE(dst.is_dict());
  EXPECT_EQ(dst.dict().get(), src.dict().get());
  EXPECT_EQ(dst.StringAt(1), "b");
}

TEST(ColumnDictTest, EmptyAppendLeavesSharedDictUncopied) {
  Column dst = Column::FromStrings({"a", "b"});
  Column alias = dst;  // shares dst's dict
  const StringDict* shared = dst.dict().get();
  dst.AppendColumn(Column(ValueType::kString));  // empty, no dict
  EXPECT_EQ(dst.dict().get(), shared);
  Column other_dict = Column::FromStrings({"z"}).Slice(0, 0);
  ASSERT_TRUE(other_dict.is_dict());
  dst.AppendColumn(other_dict);  // empty, with a different dict
  EXPECT_EQ(dst.dict().get(), shared);
  EXPECT_EQ(dst.size(), 2u);
  EXPECT_EQ(alias.dict().get(), shared);
}

TEST(ColumnDictTest, EmptyDestinationAdoptsDictOfEmptyAppend) {
  Column src = Column::FromStrings({"a"}).Slice(0, 0);
  Column dst(ValueType::kString);
  dst.AppendColumn(src);
  EXPECT_TRUE(dst.is_dict());
  EXPECT_EQ(dst.dict().get(), src.dict().get());
}

TEST(ColumnDictTest, HashEqualsAcrossDicts) {
  std::vector<std::string> values = {"", "a", "carefully final deposits",
                                     "Customer#000000042"};
  Column a = Column::FromStrings(values);
  // The same strings interned into another dict in another order.
  Column b = Column::FromStrings(
      {"zzz", "Customer#000000042", "a", "", "carefully final deposits"});
  b = b.Take({3, 2, 4, 1});
  ASSERT_NE(a.dict().get(), b.dict().get());
  ASSERT_NE(a.codes(), b.codes());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(b.StringAt(i), values[i]);
    EXPECT_EQ(a.HashRow(i, 7), b.HashRow(i, 7)) << i;
  }
  std::vector<uint64_t> ha(values.size(), 42), hb(values.size(), 42);
  a.HashInto(ha.data(), ha.size());
  b.HashInto(hb.data(), hb.size());
  EXPECT_EQ(ha, hb);
}

TEST(ColumnDictTest, NullHashesMatchAcrossDicts) {
  Column a = Column::FromStrings({"a", "b"});
  a.SetNull(1);
  Column b = Column::FromStrings({"q"});
  b.AppendNull();
  ASSERT_NE(a.dict().get(), b.dict().get());
  EXPECT_EQ(a.HashRow(1, 3), b.HashRow(1, 3));
  uint64_t ha = 9, hb = 9;
  a.HashIntoRange(&ha, 1, 2);
  b.HashIntoRange(&hb, 1, 2);
  EXPECT_EQ(ha, hb);
}

TEST(ColumnDictTest, CompareRowsAcrossDicts) {
  Column a = Column::FromStrings({"apple", "banana"});
  Column b = Column::FromStrings({"banana", "apple"});
  b.AppendNull();
  ASSERT_NE(a.dict().get(), b.dict().get());
  EXPECT_EQ(a.CompareRows(0, b, 1), 0);
  EXPECT_EQ(a.CompareRows(1, b, 0), 0);
  EXPECT_LT(a.CompareRows(0, b, 0), 0);
  EXPECT_GT(b.CompareRows(0, a, 0), 0);
  EXPECT_GT(a.CompareRows(0, b, 2), 0);  // nulls sort first
  // Same dict, equal codes short-circuits.
  EXPECT_EQ(a.CompareRows(1, a, 1), 0);
  // KeyEq verifies hash candidates by bytes across dicts, and treats
  // nulls as equal to each other only.
  Column c = Column::FromStrings({"x"});
  c.AppendNull();
  KeyEq eq(a, b);
  EXPECT_TRUE(eq.Equal(0, 1));
  EXPECT_FALSE(eq.Equal(0, 0));
  EXPECT_FALSE(eq.Equal(0, 2));
  KeyEq nulls(b, c);
  EXPECT_TRUE(nulls.Equal(2, 1));
  EXPECT_FALSE(nulls.Equal(2, 0));
}

TEST(ColumnDictTest, FirstAppendStartsAPrivateDict) {
  Column s(ValueType::kString);
  EXPECT_FALSE(s.is_dict());
  s.AppendString("a");
  ASSERT_TRUE(s.is_dict());
  EXPECT_EQ(s.dict()->size(), 1u);

  Column n(ValueType::kString);
  n.AppendNull();  // a null row still needs a code, and so a dict
  ASSERT_TRUE(n.is_dict());
  EXPECT_EQ(n.dict()->size(), 0u);
  EXPECT_EQ(n.codes()[0], Column::kNullCode);

  Column v(ValueType::kString);
  v.AppendValue(Value::Str("b"));
  ASSERT_TRUE(v.is_dict());
  EXPECT_NE(v.dict().get(), s.dict().get());
}

TEST(ColumnDictTest, AppendNullKeepsASharedDictShared) {
  Column c = Column::FromStrings({"a"});
  Column alias = c;  // shares c's dict
  c.AppendNull();
  EXPECT_EQ(c.dict().get(), alias.dict().get());
  EXPECT_TRUE(c.IsNull(1));
}

TEST(ColumnDictTest, EmptyColumnsAllocateNoDict) {
  Schema schema({{"s", ValueType::kString}});
  DataFrame df(schema);
  EXPECT_FALSE(df.column(0).is_dict());
  EXPECT_FALSE(df.Take({}).column(0).is_dict());
  EXPECT_FALSE(df.Slice(0, 0).column(0).is_dict());
  EXPECT_FALSE(df.FilterBy(std::vector<uint8_t>{}).column(0).is_dict());
  // Hashing zero rows reads no dict.
  EXPECT_TRUE(df.HashRowsBatch({0}).empty());
}

TEST(ColumnDictTest, AppendFromAdoptsAndCopiesCodes) {
  Column src = Column::FromStrings({"a", "b"});
  src.AppendNull();
  Column dst(ValueType::kString);
  dst.AppendFrom(src, 1);
  ASSERT_TRUE(dst.is_dict());
  EXPECT_EQ(dst.dict().get(), src.dict().get());
  dst.AppendFrom(src, 2);  // null
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_EQ(dst.StringAt(0), "b");
  EXPECT_TRUE(dst.IsNull(1));
  // A null first row adopts the dict too, so later rows still copy codes.
  Column null_first(ValueType::kString);
  null_first.AppendFrom(src, 2);
  null_first.AppendFrom(src, 0);
  EXPECT_EQ(null_first.dict().get(), src.dict().get());
  EXPECT_EQ(null_first.codes()[1], src.codes()[0]);
}

TEST(ColumnDictTest, SetNullClearsCode) {
  Column c = Column::FromStrings({"a", "b"});
  c.SetNull(0);
  EXPECT_EQ(c.codes()[0], Column::kNullCode);
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_EQ(c.StringAt(1), "b");
}

TEST(ColumnDictTest, GetValueAndAppendValueRoundTrip) {
  Column c(ValueType::kString);
  c.AppendValue(Value::Str("hello"));
  c.AppendValue(Value::Null(ValueType::kString));
  EXPECT_EQ(c.GetValue(0).s, "hello");
  EXPECT_TRUE(c.GetValue(1).is_null);
}

TEST(ColumnDictTest, ByteSizeCountsCodesAndDict) {
  Column c(ValueType::kString);
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

TEST(ColumnDictTest, ByteSizeChargesASliceItsRowsShareOfTheDict) {
  // Slices share their source's dict. A slice of 100 of 10,000 distinct
  // rows is charged about a hundredth of it, not the whole dict; a column
  // with a row per entry is charged all of it.
  Column c(ValueType::kString);
  const std::string pad(100, 'x');
  for (int i = 0; i < 10000; ++i) c.AppendString(pad + std::to_string(i));
  const size_t dict_bytes = c.dict()->ByteSize();
  Column slice = c.Slice(0, 100);
  ASSERT_EQ(slice.dict(), c.dict());
  EXPECT_GE(slice.ByteSize(), 100 * (sizeof(int32_t) + pad.size()));
  EXPECT_LT(slice.ByteSize(), dict_bytes / 50);
  EXPECT_GE(c.ByteSize(), dict_bytes);
}

}  // namespace
}  // namespace wake
