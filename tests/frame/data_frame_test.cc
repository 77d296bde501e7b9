#include "frame/data_frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"

namespace wake {
namespace {

DataFrame MakeFrame() {
  Schema schema({{"k", ValueType::kInt64},
                 {"v", ValueType::kFloat64},
                 {"s", ValueType::kString}});
  DataFrame df(schema);
  *df.mutable_column(0) = Column::FromInts({3, 1, 2, 1});
  *df.mutable_column(1) = Column::FromDoubles({30.0, 10.0, 20.0, 11.0});
  *df.mutable_column(2) = Column::FromStrings({"c", "a", "b", "a"});
  return df;
}

TEST(DataFrameTest, ConstructionFromSchema) {
  DataFrame df = MakeFrame();
  EXPECT_EQ(df.num_rows(), 4u);
  EXPECT_EQ(df.num_columns(), 3u);
  EXPECT_EQ(df.ColumnByName("v").DoubleAt(2), 20.0);
  EXPECT_THROW(df.ColumnByName("nope"), Error);
}

TEST(DataFrameTest, AddColumnValidatesRowCount) {
  DataFrame df = MakeFrame();
  EXPECT_THROW(
      df.AddColumn(Field("w", ValueType::kInt64), Column::FromInts({1})),
      Error);
  df.AddColumn(Field("w", ValueType::kInt64),
               Column::FromInts({1, 2, 3, 4}));
  EXPECT_EQ(df.num_columns(), 4u);
}

TEST(DataFrameTest, TakeAndFilter) {
  DataFrame df = MakeFrame();
  DataFrame t = df.Take({2, 0});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.column(0).IntAt(0), 2);
  EXPECT_EQ(t.column(2).StringAt(1), "c");

  DataFrame f = df.FilterBy({0, 1, 0, 1});
  EXPECT_EQ(f.num_rows(), 2u);
  EXPECT_EQ(f.column(0).IntAt(0), 1);
  EXPECT_EQ(f.column(0).IntAt(1), 1);
}

TEST(DataFrameTest, SliceAndHead) {
  DataFrame df = MakeFrame();
  EXPECT_EQ(df.Slice(1, 3).num_rows(), 2u);
  EXPECT_EQ(df.Head(2).num_rows(), 2u);
  EXPECT_EQ(df.Head(100).num_rows(), 4u);
}

TEST(DataFrameTest, SelectReordersColumns) {
  DataFrame df = MakeFrame();
  DataFrame s = df.Select({"s", "k"});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.schema().field(0).name, "s");
  EXPECT_EQ(s.column(1).IntAt(0), 3);
}

TEST(DataFrameTest, AppendChecksSchema) {
  DataFrame a = MakeFrame();
  DataFrame b = MakeFrame();
  a.Append(b);
  EXPECT_EQ(a.num_rows(), 8u);
  Schema other({{"x", ValueType::kInt64}});
  DataFrame c(other);
  EXPECT_THROW(a.Append(c), Error);
}

TEST(DataFrameTest, AppendIntoEmptyAdoptsSchema) {
  DataFrame empty;
  empty.Append(MakeFrame());
  EXPECT_EQ(empty.num_rows(), 4u);
  EXPECT_EQ(empty.num_columns(), 3u);
}

TEST(DataFrameTest, SortBySingleKey) {
  DataFrame df = MakeFrame();
  DataFrame sorted = df.SortBy({{"k", false}});
  EXPECT_EQ(sorted.column(0).IntAt(0), 1);
  EXPECT_EQ(sorted.column(0).IntAt(3), 3);
}

TEST(DataFrameTest, SortByIsStableAndHandlesDescending) {
  DataFrame df = MakeFrame();
  DataFrame sorted = df.SortBy({{"k", false}, {"v", true}});
  // k=1 rows: v=11 then v=10 (descending by v).
  EXPECT_EQ(sorted.column(1).DoubleAt(0), 11.0);
  EXPECT_EQ(sorted.column(1).DoubleAt(1), 10.0);
}

TEST(DataFrameTest, SortStringsDescending) {
  DataFrame df = MakeFrame();
  DataFrame sorted = df.SortBy({{"s", true}});
  EXPECT_EQ(sorted.column(2).StringAt(0), "c");
  EXPECT_EQ(sorted.column(2).StringAt(3), "a");
}

// SortedIndices with a limit (SortLimitNode's top-k path) must return
// exactly the first k rows of the full stable sort that SortBy gathers.
// Heavy ties and nulls exercise the comparator's row-index tie-break and
// null placement (first ascending, last descending).
TEST(DataFrameTest, TopKSortedIndicesArePrefixOfStableSort) {
  DataFrame df(Schema({{"v", ValueType::kInt64}}));
  Rng rng(3);
  constexpr size_t kRows = 1000;
  for (size_t i = 0; i < kRows; ++i) {
    df.mutable_column(0)->AppendInt(rng.UniformInt(0, 9));  // heavy ties
    if (i % 7 == 3) df.mutable_column(0)->SetNull(i);
  }
  const Column& v = df.column(0);
  for (bool desc : {false, true}) {
    auto ref_less = [&](uint32_t a, uint32_t b) {
      const bool na = v.IsNull(a), nb = v.IsNull(b);
      if (na || nb) return desc ? nb && !na : na && !nb;  // nulls sort low
      return desc ? v.IntAt(a) > v.IntAt(b) : v.IntAt(a) < v.IntAt(b);
    };
    std::vector<uint32_t> stable(kRows);
    std::iota(stable.begin(), stable.end(), 0u);
    std::stable_sort(stable.begin(), stable.end(), ref_less);
    std::vector<uint32_t> full = df.SortedIndices({{"v", desc}});
    ASSERT_EQ(full, stable) << "desc=" << desc;
    for (size_t k : {size_t{1}, size_t{100}, kRows - 1, kRows}) {
      std::vector<uint32_t> prefix(full.begin(), full.begin() + k);
      EXPECT_EQ(df.SortedIndices({{"v", desc}}, k), prefix)
          << "desc=" << desc << " k=" << k;
    }
  }
}

TEST(DataFrameTest, EqualKeysHashEqually) {
  DataFrame df = MakeFrame();
  std::vector<size_t> cols = {0, 2};
  EXPECT_EQ(df.HashRowKeys(cols, 1), df.HashRowKeys(cols, 3));  // (1,"a")
}

TEST(DataFrameTest, ApproxEqualsToleratesFloatNoise) {
  DataFrame a = MakeFrame();
  DataFrame b = MakeFrame();
  (*b.mutable_column(1)->mutable_doubles())[0] += 1e-12;
  std::string diff;
  EXPECT_TRUE(a.ApproxEquals(b, 1e-9, &diff)) << diff;
  (*b.mutable_column(1)->mutable_doubles())[0] += 1.0;
  EXPECT_FALSE(a.ApproxEquals(b, 1e-9, &diff));
  EXPECT_NE(diff.find("v"), std::string::npos);
}

TEST(DataFrameTest, ApproxEqualsCatchesRowCountAndSchema) {
  DataFrame a = MakeFrame();
  std::string diff;
  EXPECT_FALSE(a.ApproxEquals(a.Head(2), 1e-9, &diff));
  DataFrame renamed = MakeFrame();
  renamed.mutable_schema()->mutable_field(0)->name = "zz";
  EXPECT_FALSE(a.ApproxEquals(renamed, 1e-9, &diff));
}

TEST(DataFrameTest, ToStringShowsHeaderAndRows) {
  std::string s = MakeFrame().ToString(2);
  EXPECT_NE(s.find("k | v | s"), std::string::npos);
  EXPECT_NE(s.find("4 rows total"), std::string::npos);
}

}  // namespace
}  // namespace wake
