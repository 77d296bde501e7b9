#include "frame/column.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace wake {
namespace {

TEST(ColumnTest, FromIntsBasics) {
  Column c = Column::FromInts({1, 2, 3});
  EXPECT_EQ(c.type(), ValueType::kInt64);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.IntAt(1), 2);
  EXPECT_FALSE(c.has_nulls());
}

TEST(ColumnTest, AppendNullAllocatesMask) {
  Column c = Column::FromInts({1, 2});
  c.AppendNull();
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.has_nulls());
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_TRUE(c.IsNull(2));
}

TEST(ColumnTest, SetNullThenCompact) {
  Column c = Column::FromInts({1, 2, 3});
  c.SetNull(1);
  EXPECT_TRUE(c.IsNull(1));
  Column d = Column::FromInts({1});
  d.CompactValidity();  // no mask; no-op
  EXPECT_FALSE(d.has_nulls());
}

TEST(ColumnTest, TakeGathersRowsAndNulls) {
  Column c = Column::FromInts({10, 20, 30, 40});
  c.SetNull(2);
  Column t = c.Take({3, 2, 0});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.IntAt(0), 40);
  EXPECT_TRUE(t.IsNull(1));
  EXPECT_EQ(t.IntAt(2), 10);
}

TEST(ColumnTest, TakeCompactsWhenNoNullsSelected) {
  Column c = Column::FromInts({10, 20, 30});
  c.SetNull(2);
  Column t = c.Take({0, 1});
  EXPECT_FALSE(t.has_nulls());
}

TEST(ColumnTest, FilterBy) {
  Column c = Column::FromDoubles({1.5, 2.5, 3.5});
  Column f = c.FilterBy({1, 0, 1});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f.DoubleAt(0), 1.5);
  EXPECT_DOUBLE_EQ(f.DoubleAt(1), 3.5);
}

TEST(ColumnTest, FilterByWrongLengthThrows) {
  Column c = Column::FromInts({1, 2});
  EXPECT_THROW(c.FilterBy({1}), Error);
}

TEST(ColumnTest, AppendColumnMergesNullMasks) {
  Column a = Column::FromInts({1, 2});
  Column b = Column::FromInts({3, 4});
  b.SetNull(0);
  a.AppendColumn(b);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.IsValid(1));
  EXPECT_TRUE(a.IsNull(2));
  EXPECT_EQ(a.IntAt(3), 4);
}

TEST(ColumnTest, AppendColumnTypeMismatchThrows) {
  Column a = Column::FromInts({1});
  Column b = Column::FromDoubles({1.0});
  EXPECT_THROW(a.AppendColumn(b), Error);
}

TEST(ColumnTest, Slice) {
  Column c = Column::FromStrings({"a", "b", "c", "d"});
  Column s = c.Slice(1, 3);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.StringAt(0), "b");
  EXPECT_EQ(s.StringAt(1), "c");
}

TEST(ColumnTest, CompareRowsSameType) {
  Column c = Column::FromInts({1, 2, 2});
  EXPECT_LT(c.CompareRows(0, c, 1), 0);
  EXPECT_GT(c.CompareRows(1, c, 0), 0);
  EXPECT_EQ(c.CompareRows(1, c, 2), 0);
}

TEST(ColumnTest, CompareRowsMixedNumeric) {
  // Regression: filters compare int columns against derived float columns.
  Column ints = Column::FromInts({5, 10});
  Column floats = Column::FromDoubles({7.5, 10.0});
  EXPECT_LT(ints.CompareRows(0, floats, 0), 0);
  EXPECT_GT(ints.CompareRows(1, floats, 0), 0);
  EXPECT_EQ(ints.CompareRows(1, floats, 1), 0);
  EXPECT_GT(floats.CompareRows(0, ints, 0), 0);
}

TEST(ColumnTest, CompareRowsNullsFirst) {
  Column c = Column::FromInts({1, 2});
  c.SetNull(0);
  EXPECT_LT(c.CompareRows(0, c, 1), 0);
  EXPECT_GT(c.CompareRows(1, c, 0), 0);
  EXPECT_EQ(c.CompareRows(0, c, 0), 0);  // null == null for sorting
}

TEST(ColumnTest, CompareRowsStrings) {
  Column c = Column::FromStrings({"apple", "banana"});
  EXPECT_LT(c.CompareRows(0, c, 1), 0);
  EXPECT_EQ(c.CompareRows(1, c, 1), 0);
}

TEST(ColumnTest, HashRowConsistency) {
  Column a = Column::FromInts({42, 43});
  Column b = Column::FromInts({42, 44});
  EXPECT_EQ(a.HashRow(0, 7), b.HashRow(0, 7));
  EXPECT_NE(a.HashRow(1, 7), b.HashRow(1, 7));
  EXPECT_NE(a.HashRow(0, 7), a.HashRow(0, 8));  // seed matters
}

TEST(ColumnTest, HashRowIntVsEqualFloatDiffer) {
  // Hash need not be equal across physical types; join keys are same-typed.
  Column s1 = Column::FromStrings({"abc"});
  Column s2 = Column::FromStrings({"abc"});
  EXPECT_EQ(s1.HashRow(0, 1), s2.HashRow(0, 1));
}

TEST(ColumnTest, GetAndAppendValueRoundTrip) {
  Column c(ValueType::kFloat64);
  c.AppendValue(Value::Float(1.25));
  c.AppendValue(Value::Null(ValueType::kFloat64));
  EXPECT_DOUBLE_EQ(c.GetValue(0).d, 1.25);
  EXPECT_TRUE(c.GetValue(1).is_null);
}

TEST(ColumnTest, ByteSizeGrowsWithData) {
  Column small = Column::FromInts({1});
  Column big = Column::FromInts(std::vector<int64_t>(1000, 7));
  EXPECT_GT(big.ByteSize(), small.ByteSize());
}

TEST(ColumnTest, AppendColumnIntoEmptyKeepsNulls) {
  Column src = Column::FromInts({1, 2});
  src.SetNull(1);
  Column dst(ValueType::kInt64);
  dst.AppendColumn(src);
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_FALSE(dst.IsNull(0));
  EXPECT_TRUE(dst.IsNull(1));
}

}  // namespace
}  // namespace wake
