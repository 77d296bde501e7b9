#include "frame/data_frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

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

// Random frames for the sort-order equivalence test. Every column has
// nulls: int64 with ties, dates, a full-range int64 (64 + 1 bits, wider
// than one packed word with any other key), float64 crossing zero with
// ±0.0, ±inf and extremes, non-negative float64 (exactly 64 bits with its
// null bit), a narrow float64 that packs with other keys, and dict
// strings whose dictionary (first-appearance) order is not byte order,
// with bytes >= 0x80, over a dict holding entries no row uses.
DataFrame RandomSortFrame(size_t n, Rng* rng) {
  Schema schema({{"i", ValueType::kInt64},
                 {"d", ValueType::kDate},
                 {"j", ValueType::kInt64},
                 {"f", ValueType::kFloat64},
                 {"g", ValueType::kFloat64},
                 {"h", ValueType::kFloat64},
                 {"s", ValueType::kString}});
  DataFrame df(schema);
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {0.0, -0.0, kInf, -kInf, 1e300,
                                        -1e-300};
  const Column pool = Column::FromStrings(
      {"m", "\xff", "B", "", "ab", "a", "\xc3\xa9t\xc3\xa9", "\x80z", "Zz",
       "a\x80", "b", "aa", "unused1", "unused2"});
  std::vector<uint32_t> picks;
  for (size_t r = 0; r < n; ++r) {
    df.mutable_column(0)->AppendInt(rng->UniformInt(-5, 5));
    df.mutable_column(1)->AppendInt(rng->UniformInt(9000, 9030));
    const int64_t extreme = rng->UniformInt(0, 9);
    df.mutable_column(2)->AppendInt(
        extreme == 0   ? std::numeric_limits<int64_t>::min()
        : extreme == 1 ? std::numeric_limits<int64_t>::max()
                       : rng->UniformInt(-3, 3));
    df.mutable_column(3)->AppendDouble(
        rng->UniformInt(0, 3) == 0
            ? specials[static_cast<size_t>(rng->UniformInt(0, 5))]
            : static_cast<double>(rng->UniformInt(-20, 20)) / 4.0);
    df.mutable_column(4)->AppendDouble(
        static_cast<double>(rng->UniformInt(0, 20)) / 4.0);
    df.mutable_column(5)->AppendDouble(
        1.0 + static_cast<double>(rng->UniformInt(0, 3)) / 4.0);
    picks.push_back(static_cast<uint32_t>(rng->UniformInt(0, 11)));
  }
  *df.mutable_column(6) = pool.Take(picks);
  for (size_t c = 0; c < df.num_columns(); ++c) {
    for (size_t r = 0; r < n; ++r) {
      if (rng->UniformInt(0, 9) == 0) df.mutable_column(c)->SetNull(r);
    }
  }
  return df;
}

// The key-image sort must give exactly the order of the comparator it
// replaced: Column::CompareRows per key (nulls first, descending flips
// the comparison), then row index.
TEST(DataFrameTest, SortedIndicesMatchCompareRowsOrder) {
  Rng rng(29);
  const std::vector<std::string> names = {"i", "d", "j", "f", "g", "h", "s"};
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{32}, size_t{33},
                   size_t{63}, size_t{64}, size_t{65}, size_t{3001}}) {
    for (int trial = 0; trial < 40; ++trial) {
      DataFrame df = RandomSortFrame(n, &rng);
      std::vector<std::string> left = names;
      std::vector<SortKey> keys;
      const int64_t num_keys = rng.UniformInt(1, 3);
      for (int64_t k = 0; k < num_keys; ++k) {
        const auto pick = static_cast<std::ptrdiff_t>(
            rng.UniformInt(0, static_cast<int64_t>(left.size()) - 1));
        keys.push_back({left[pick], rng.UniformInt(0, 1) == 1});
        left.erase(left.begin() + pick);
      }
      auto ref_less = [&](uint32_t a, uint32_t b) {
        for (const SortKey& key : keys) {
          const Column& c = df.ColumnByName(key.column);
          int cmp = c.CompareRows(a, c, b);
          if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
        }
        return a < b;
      };
      std::vector<uint32_t> expected(n);
      std::iota(expected.begin(), expected.end(), 0u);
      std::sort(expected.begin(), expected.end(), ref_less);
      std::string label = "n=" + std::to_string(n) + " keys:";
      for (const SortKey& key : keys) {
        label += " " + key.column + (key.descending ? " desc" : " asc");
      }
      ASSERT_EQ(df.SortedIndices(keys), expected) << label;
      for (size_t limit : {size_t{1}, n - 1, n, n + 1}) {
        if (n == 0 || limit == 0) continue;
        std::vector<uint32_t> prefix(
            expected.begin(),
            expected.begin() +
                static_cast<std::ptrdiff_t>(std::min(limit, n)));
        ASSERT_EQ(df.SortedIndices(keys, limit), prefix)
            << label << " limit=" << limit;
      }
    }
  }
}

// NaN sorts above +inf and equal to every NaN (ties keep row order), in
// both directions, with nulls, for top-k and full sorts, on the packed
// path (one key) and the field-by-field path (a full-range second key).
TEST(DataFrameTest, NaNSortsAboveInfinityInATotalOrder) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {3.0, kNaN, -kInf, kInf, -kNaN, -0.0,
                                      0.0, 0.0,  1.5,   kNaN, -2.0,  kInf};
  DataFrame df(Schema({{"f", ValueType::kFloat64}, {"w", ValueType::kInt64}}));
  for (size_t r = 0; r < values.size(); ++r) {
    df.mutable_column(0)->AppendDouble(values[r]);
    df.mutable_column(1)->AppendInt(
        r % 3 == 0 ? std::numeric_limits<int64_t>::max()
                   : std::numeric_limits<int64_t>::min());
  }
  df.mutable_column(0)->SetNull(7);
  df.mutable_column(0)->SetNull(10);
  const Column& f = df.column(0);
  const Column& w = df.column(1);
  const size_t n = values.size();
  // Ascending three-way order of f: null < numbers (-0.0 == 0.0) < NaN.
  auto cmp_f = [&](uint32_t a, uint32_t b) {
    auto cls = [&](uint32_t r) {
      return f.IsNull(r) ? 0 : std::isnan(f.DoubleAt(r)) ? 2 : 1;
    };
    const int ca = cls(a), cb = cls(b);
    if (ca != cb) return ca < cb ? -1 : 1;
    if (ca == 1 && f.DoubleAt(a) < f.DoubleAt(b)) return -1;
    if (ca == 1 && f.DoubleAt(a) > f.DoubleAt(b)) return 1;
    return 0;
  };
  for (bool desc : {false, true}) {
    for (bool with_w : {false, true}) {
      std::vector<SortKey> keys = {{"f", desc}};
      if (with_w) keys.push_back({"w", false});
      std::vector<uint32_t> expected(n);
      std::iota(expected.begin(), expected.end(), 0u);
      std::sort(expected.begin(), expected.end(), [&](uint32_t a, uint32_t b) {
        const int c = cmp_f(a, b);
        if (c != 0) return desc ? c > 0 : c < 0;
        if (with_w && w.IntAt(a) != w.IntAt(b)) return w.IntAt(a) < w.IntAt(b);
        return a < b;
      });
      if (!desc && !with_w) {
        // Nulls 7 and 10 first; the NaNs 1, 4 and 9 last, after +inf.
        EXPECT_EQ(expected, (std::vector<uint32_t>{7, 10, 2, 5, 6, 8, 0, 3,
                                                   11, 1, 4, 9}));
      }
      std::vector<uint32_t> got = df.SortedIndices(keys);
      EXPECT_EQ(got, expected) << "desc=" << desc << " with_w=" << with_w;
      for (size_t k : {size_t{1}, size_t{3}, size_t{10}, n - 1}) {
        std::vector<uint32_t> prefix(expected.begin(), expected.begin() + k);
        EXPECT_EQ(df.SortedIndices(keys, k), prefix)
            << "desc=" << desc << " with_w=" << with_w << " k=" << k;
      }
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
