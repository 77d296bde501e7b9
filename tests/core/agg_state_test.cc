#include "core/agg_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "core/inference.h"
#include "plan/props.h"

namespace wake {
namespace {

Schema InputSchema() {
  return Schema({{"g", ValueType::kInt64},
                 {"v", ValueType::kFloat64},
                 {"name", ValueType::kString}});
}

DataFrame MakeInput(const std::vector<int64_t>& g,
                    const std::vector<double>& v,
                    const std::vector<std::string>& names) {
  DataFrame df(InputSchema());
  *df.mutable_column(0) = Column::FromInts(g);
  *df.mutable_column(1) = Column::FromDoubles(v);
  *df.mutable_column(2) = Column::FromStrings(names);
  return df;
}

std::vector<AggSpec> AllAggs() {
  return {Sum("v", "s"),          Count("n"),
          CountCol("v", "nv"),    Avg("v", "a"),
          Min("v", "mn"),         Max("v", "mx"),
          CountDistinct("name", "d"), VarOf("v", "var"),
          StddevOf("v", "sd")};
}

GroupedAggState MakeState(const std::vector<std::string>& by,
                          const std::vector<AggSpec>& aggs) {
  return GroupedAggState(by, aggs, InputSchema(),
                         AggOutputSchema(InputSchema(), by, aggs));
}

TEST(GroupedAggStateTest, SingleConsumeExactFinalize) {
  auto state = MakeState({"g"}, AllAggs());
  state.Consume(MakeInput({1, 1, 2, 2, 2}, {1.0, 3.0, 5.0, 5.0, 8.0},
                          {"a", "b", "x", "x", "y"}));
  EXPECT_EQ(state.num_groups(), 2u);
  EXPECT_EQ(state.total_rows(), 5u);
  EXPECT_DOUBLE_EQ(state.MeanGroupCardinality(), 2.5);
  DataFrame out = state.Finalize(AggScaling{}).frame;
  ASSERT_EQ(out.num_rows(), 2u);
  // Group 1 appears first (insertion order).
  EXPECT_EQ(out.ColumnByName("g").IntAt(0), 1);
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(0), 4.0);
  EXPECT_EQ(out.ColumnByName("n").IntAt(0), 2);
  EXPECT_DOUBLE_EQ(out.ColumnByName("a").DoubleAt(0), 2.0);
  EXPECT_DOUBLE_EQ(out.ColumnByName("mn").DoubleAt(1), 5.0);
  EXPECT_DOUBLE_EQ(out.ColumnByName("mx").DoubleAt(1), 8.0);
  EXPECT_EQ(out.ColumnByName("d").IntAt(0), 2);
  EXPECT_EQ(out.ColumnByName("d").IntAt(1), 2);  // {"x","y"}
  // Group 2 values {5,5,8}: mean 6, population var 2.
  EXPECT_NEAR(out.ColumnByName("var").DoubleAt(1), 2.0, 1e-9);
}

// Table 2 merge property: consuming k partials must equal consuming the
// whole input at once — for every aggregate and any split.
class MergeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MergeEquivalence, SplitConsumeEqualsWholeConsume) {
  int pieces = GetParam();
  Rng rng(31 + pieces);
  std::vector<int64_t> g;
  std::vector<double> v;
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) {
    g.push_back(rng.UniformInt(0, 7));
    v.push_back(rng.UniformDouble(-5.0, 20.0));
    names.push_back(std::string(1, static_cast<char>('a' + rng.UniformInt(0, 12))));
  }
  DataFrame whole = MakeInput(g, v, names);

  auto whole_state = MakeState({"g"}, AllAggs());
  whole_state.Consume(whole);
  DataFrame expected = whole_state.Finalize(AggScaling{}).frame;

  auto split_state = MakeState({"g"}, AllAggs());
  size_t chunk = (whole.num_rows() + pieces - 1) / pieces;
  for (size_t begin = 0; begin < whole.num_rows(); begin += chunk) {
    split_state.Consume(
        whole.Slice(begin, std::min(begin + chunk, whole.num_rows())));
  }
  DataFrame got = split_state.Finalize(AggScaling{}).frame;

  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(expected, 1e-9, &diff)) << diff;
}

INSTANTIATE_TEST_SUITE_P(Splits, MergeEquivalence,
                         ::testing::Values(2, 3, 7, 50, 200));

TEST(GroupedAggStateTest, MedianIsExactOrderStatistic) {
  auto state = MakeState({"g"}, {MedianOf("v", "med")});
  state.Consume(MakeInput({1, 1, 1, 1, 1}, {9.0, 1.0, 5.0, 3.0, 7.0},
                          {"a", "b", "c", "d", "e"}));
  DataFrame out = state.Finalize(AggScaling{}).frame;
  EXPECT_DOUBLE_EQ(out.ColumnByName("med").DoubleAt(0), 5.0);
  // Even count: lower-median convention.
  auto even = MakeState({"g"}, {MedianOf("v", "med")});
  even.Consume(MakeInput({1, 1, 1, 1}, {4.0, 1.0, 3.0, 2.0},
                         {"a", "b", "c", "d"}));
  EXPECT_DOUBLE_EQ(
      even.Finalize(AggScaling{}).frame.ColumnByName("med").DoubleAt(0),
      2.0);
}

TEST(GbiScalingTest, MedianEstimatorIsIdentity) {
  // §5.3 order statistics: the estimate is the current sample median,
  // regardless of projected growth.
  auto state = MakeState({"g"}, {MedianOf("v", "med")});
  state.Consume(MakeInput({1, 1, 1}, {10.0, 20.0, 30.0}, {"a", "b", "c"}));
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 0.1;
  scaling.w = 1.0;
  EXPECT_DOUBLE_EQ(
      state.Finalize(scaling).frame.ColumnByName("med").DoubleAt(0), 20.0);
}

TEST(GroupedAggStateTest, GlobalAggregateHasOneGroup) {
  auto state = MakeState({}, {Sum("v", "s"), Count("n")});
  state.Consume(MakeInput({1, 2, 3}, {1.0, 2.0, 3.0}, {"a", "b", "c"}));
  DataFrame out = state.Finalize(AggScaling{}).frame;
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(0), 6.0);
}

TEST(GroupedAggStateTest, EmptyStateFinalizesEmpty) {
  auto state = MakeState({"g"}, {Count("n")});
  DataFrame out = state.Finalize(AggScaling{}).frame;
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(GroupedAggStateTest, ResetDropsEverything) {
  auto state = MakeState({"g"}, {Count("n")});
  state.Consume(MakeInput({1, 2}, {1, 2}, {"a", "b"}));
  EXPECT_EQ(state.num_groups(), 2u);
  state.Reset();
  EXPECT_EQ(state.num_groups(), 0u);
  EXPECT_EQ(state.total_rows(), 0u);
  state.Consume(MakeInput({5}, {5}, {"e"}));
  EXPECT_EQ(state.num_groups(), 1u);
  EXPECT_EQ(state.Finalize(AggScaling{}).frame.ColumnByName("g").IntAt(0), 5);
}

TEST(GroupedAggStateTest, NullInputsSkippedPerAggregate) {
  Schema schema({{"g", ValueType::kInt64}, {"v", ValueType::kFloat64}});
  DataFrame df(schema);
  df.mutable_column(0)->AppendInt(1);
  df.mutable_column(0)->AppendInt(1);
  df.mutable_column(1)->AppendDouble(10.0);
  df.mutable_column(1)->AppendNull();
  std::vector<AggSpec> aggs = {Sum("v", "s"), CountCol("v", "nv"),
                               Count("n")};
  GroupedAggState state({"g"}, aggs, schema,
                        AggOutputSchema(schema, {"g"}, aggs));
  state.Consume(df);
  DataFrame out = state.Finalize(AggScaling{}).frame;
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(0), 10.0);
  EXPECT_EQ(out.ColumnByName("nv").IntAt(0), 1);  // non-null only
  EXPECT_EQ(out.ColumnByName("n").IntAt(0), 2);   // count(*) counts rows
}

TEST(GroupedAggStateTest, HashCollisionKeepsDistinctGroupsApart) {
  // A null group key and the int key 0xdeadbeef share the same 64-bit
  // hash (nulls hash as the constant 0xdeadbeef); the key verification in
  // the flat index must still keep them in separate groups.
  const int64_t kColliding = 0xdeadbeef;
  DataFrame df(InputSchema());
  *df.mutable_column(0) =
      Column::FromInts({kColliding, 0, kColliding, 0});
  df.mutable_column(0)->SetNull(1);
  df.mutable_column(0)->SetNull(3);
  *df.mutable_column(1) = Column::FromDoubles({1.0, 10.0, 2.0, 20.0});
  *df.mutable_column(2) = Column::FromStrings({"a", "b", "c", "d"});
  auto state = MakeState({"g"}, {Sum("v", "s"), Count("n")});
  state.Consume(df);
  EXPECT_EQ(state.num_groups(), 2u);
  DataFrame out = state.Finalize(AggScaling{}).frame;
  ASSERT_EQ(out.num_rows(), 2u);
  // First group: the int key; second: the null key (insertion order).
  EXPECT_EQ(out.ColumnByName("g").IntAt(0), kColliding);
  EXPECT_TRUE(out.ColumnByName("g").IsNull(1));
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(0), 3.0);
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(1), 30.0);
}

TEST(GroupedAggStateTest, AllNullKeyRowsGroupTogether) {
  DataFrame df(InputSchema());
  *df.mutable_column(0) = Column::FromInts({0, 0, 0});
  for (size_t r = 0; r < 3; ++r) df.mutable_column(0)->SetNull(r);
  *df.mutable_column(1) = Column::FromDoubles({1.0, 2.0, 3.0});
  *df.mutable_column(2) = Column::FromStrings({"a", "b", "c"});
  auto state = MakeState({"g"}, {Sum("v", "s"), Count("n")});
  state.Consume(df);
  EXPECT_EQ(state.num_groups(), 1u);
  DataFrame out = state.Finalize(AggScaling{}).frame;
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_TRUE(out.ColumnByName("g").IsNull(0));
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(0), 6.0);
  EXPECT_EQ(out.ColumnByName("n").IntAt(0), 3);
}

TEST(GroupedAggStateTest, ManyDistinctGroupsStayExact) {
  // Enough groups to force flat-index rehashes mid-consume; every group
  // must keep exactly its own rows.
  constexpr int64_t kGroups = 10000;
  std::vector<int64_t> g;
  std::vector<double> v;
  std::vector<std::string> names;
  for (int64_t i = 0; i < kGroups; ++i) {
    for (int rep = 0; rep < 2; ++rep) {
      g.push_back(i);
      v.push_back(static_cast<double>(i));
      names.push_back("x");
    }
  }
  auto state = MakeState({"g"}, {Sum("v", "s"), Count("n")});
  state.Consume(MakeInput(g, v, names));
  ASSERT_EQ(state.num_groups(), static_cast<size_t>(kGroups));
  DataFrame out = state.Finalize(AggScaling{}).frame;
  for (int64_t i = 0; i < kGroups; ++i) {
    ASSERT_EQ(out.ColumnByName("g").IntAt(i), i);
    ASSERT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(i), 2.0 * i);
    ASSERT_EQ(out.ColumnByName("n").IntAt(i), 2);
  }
}

// Growth-based scaling (§5.3).
TEST(GbiScalingTest, SumAndCountScaleByGrowth) {
  auto state = MakeState({"g"}, {Sum("v", "s"), Count("n")});
  // 4 rows in one group at t = 0.25 with linear growth.
  state.Consume(MakeInput({1, 1, 1, 1}, {2.0, 2.0, 2.0, 2.0},
                          {"a", "a", "a", "a"}));
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 0.25;
  scaling.w = 1.0;
  DataFrame out = state.Finalize(scaling).frame;
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(0), 32.0);  // 8 / 0.25
  EXPECT_EQ(out.ColumnByName("n").IntAt(0), 16);              // 4 / 0.25
}

TEST(GbiScalingTest, AvgVarMinMaxAreScaleInvariant) {
  auto state = MakeState({"g"}, {Avg("v", "a"), VarOf("v", "var"),
                                 Min("v", "mn"), Max("v", "mx")});
  state.Consume(MakeInput({1, 1, 1}, {1.0, 2.0, 3.0}, {"a", "b", "c"}));
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 0.1;
  scaling.w = 1.0;
  DataFrame out = state.Finalize(scaling).frame;
  EXPECT_DOUBLE_EQ(out.ColumnByName("a").DoubleAt(0), 2.0);   // Eq 5
  EXPECT_NEAR(out.ColumnByName("var").DoubleAt(0), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(out.ColumnByName("mn").DoubleAt(0), 1.0);
  EXPECT_DOUBLE_EQ(out.ColumnByName("mx").DoubleAt(0), 3.0);
}

TEST(GbiScalingTest, ZeroGrowthMeansNoScaling) {
  auto state = MakeState({"g"}, {Sum("v", "s")});
  state.Consume(MakeInput({1, 1}, {3.0, 4.0}, {"a", "b"}));
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 0.5;
  scaling.w = 0.0;  // complete groups (e.g. low-cardinality agg input)
  DataFrame out = state.Finalize(scaling).frame;
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(0), 7.0);
}

TEST(GbiScalingTest, DisabledScalingAtFullProgress) {
  auto state = MakeState({"g"}, {Sum("v", "s")});
  state.Consume(MakeInput({1}, {5.0}, {"a"}));
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 1.0;  // complete input: estimates must equal exact values
  scaling.w = 1.0;
  DataFrame out = state.Finalize(scaling).frame;
  EXPECT_DOUBLE_EQ(out.ColumnByName("s").DoubleAt(0), 5.0);
}

TEST(GbiScalingTest, CountDistinctUsesMm1) {
  auto state = MakeState({"g"}, {CountDistinct("name", "d")});
  // 10 rows, 5 distinct names, t = 0.5, linear growth -> x̂ = 20.
  state.Consume(MakeInput({1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
                          std::vector<double>(10, 1.0),
                          {"a", "b", "c", "d", "e", "a", "b", "c", "d", "e"}));
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 0.5;
  scaling.w = 1.0;
  int64_t est = state.Finalize(scaling).frame.ColumnByName("d").IntAt(0);
  EXPECT_GE(est, 5);   // at least the observed distinct count
  EXPECT_LE(est, 20);  // at most the projected cardinality
}

// A scaled Finalize computes t^w once and shares one COUNT(DISTINCT)
// solve among groups with equal (distinct count, rows): every cell and
// variance must still equal the per-group estimator calls bit for bit.
TEST(GroupedAggStateTest, SnapshotMatchesPerGroupEstimators) {
  constexpr size_t kGroups = 300;
  const std::vector<std::string> names = {"a", "b", "c", "d", "e", "f"};
  std::vector<int64_t> g;
  std::vector<double> v;
  std::vector<std::string> name;
  Rng rng(17);
  for (size_t grp = 0; grp < kGroups; ++grp) {
    // Groups cycle through 12 (rows, distinct names) shapes, so many
    // groups share one (d, x) pair.
    const size_t rows = 1 + grp % 4 * 3;
    const size_t distinct = 1 + grp % 3 % rows;
    for (size_t r = 0; r < rows; ++r) {
      g.push_back(static_cast<int64_t>(grp));
      v.push_back(rng.UniformDouble(-50.0, 100.0));
      name.push_back(names[r % distinct]);
    }
  }
  std::vector<AggSpec> aggs = {Sum("v", "s"), Count("n"),
                               CountDistinct("name", "d")};
  auto state = MakeState({"g"}, aggs);
  state.Consume(MakeInput(g, v, name));
  ASSERT_EQ(state.num_groups(), kGroups);

  auto bits = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };
  for (bool with_ci : {false, true}) {
    AggScaling scaling;
    scaling.enabled = true;
    scaling.t = 0.37;
    scaling.w = 0.83;
    scaling.var_w = 0.02;
    scaling.with_ci = with_ci;
    AggResult res = state.Finalize(scaling);
    size_t row = 0;
    for (size_t grp = 0; grp < kGroups; ++grp) {
      double x = 0, sum = 0, sumsq = 0, count = 0;
      std::vector<std::string> seen;
      for (; row < g.size() && g[row] == static_cast<int64_t>(grp); ++row) {
        ++x;
        sum += v[row];
        sumsq += v[row] * v[row];
        ++count;
        if (std::find(seen.begin(), seen.end(), name[row]) == seen.end()) {
          seen.push_back(name[row]);
        }
      }
      const double d = static_cast<double>(seen.size());
      const double xhat = EstimateCardinality(x, scaling.t, scaling.w);
      const double dhat = EstimateCountDistinct(d, x, xhat);
      const DataFrame& out = res.frame;
      EXPECT_EQ(bits(out.ColumnByName("s").DoubleAt(grp)),
                bits(EstimateSum(sum, x, xhat)))
          << "group " << grp;
      EXPECT_EQ(out.ColumnByName("n").IntAt(grp),
                std::llround(EstimateSum(count, x, xhat)));
      EXPECT_EQ(out.ColumnByName("d").IntAt(grp), std::llround(dhat));
      if (!with_ci) {
        EXPECT_TRUE(res.variances.empty());
        continue;
      }
      const double lg = std::log(1.0 / scaling.t);
      const double var_xhat = xhat * xhat * lg * lg * scaling.var_w;
      double s2 = 0.0;
      if (count > 1.0) {
        double mean = sum / count;
        s2 = std::max(0.0, sumsq / count - mean * mean);
      }
      const double var_s =
          (s2 * count * xhat * xhat + var_xhat * sum * sum) / (x * x);
      const double eps = std::max(1e-4 * xhat, 1e-6);
      const double dy = (EstimateCountDistinct(d, x, xhat + eps) -
                         EstimateCountDistinct(d, x, xhat - eps)) /
                        (2.0 * eps);
      EXPECT_EQ(bits(res.variances.at("s")[grp]), bits(var_s));
      EXPECT_EQ(bits(res.variances.at("n")[grp]), bits(var_xhat));
      EXPECT_EQ(bits(res.variances.at("d")[grp]), bits(var_xhat * dy * dy))
          << "group " << grp;
    }
  }
}

// Confidence-interval output (§6).
TEST(AggCiTest, VariancesReportedForScaledAggregates) {
  auto state = MakeState({"g"}, {Sum("v", "s"), Count("n")});
  Rng rng(3);
  std::vector<int64_t> g(50, 1);
  std::vector<double> v;
  std::vector<std::string> names(50, "x");
  for (int i = 0; i < 50; ++i) v.push_back(rng.UniformDouble(0, 10));
  state.Consume(MakeInput(g, v, names));
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 0.25;
  scaling.w = 1.0;
  scaling.var_w = 0.01;
  scaling.with_ci = true;
  AggResult res = state.Finalize(scaling);
  ASSERT_TRUE(res.variances.count("s"));
  ASSERT_TRUE(res.variances.count("n"));
  EXPECT_GT(res.variances["s"][0], 0.0);
  EXPECT_GT(res.variances["n"][0], 0.0);
}

TEST(AggCiTest, ExactFinalizeHasZeroVarianceWithoutInputVariance) {
  auto state = MakeState({"g"}, {Sum("v", "s")});
  state.Consume(MakeInput({1, 1}, {1.0, 2.0}, {"a", "b"}));
  AggScaling scaling;
  scaling.with_ci = true;  // CI on, scaling off (t = 1)
  AggResult res = state.Finalize(scaling);
  EXPECT_DOUBLE_EQ(res.variances["s"][0], 0.0);
}

TEST(AggCiTest, InputVariancesAccumulateIntoSums) {
  auto state = MakeState({"g"}, {Sum("v", "s")});
  DataFrame in = MakeInput({1, 1}, {1.0, 2.0}, {"a", "b"});
  VarianceMap vars{{"v", {0.5, 0.25}}};
  state.Consume(in, &vars);
  AggScaling scaling;
  scaling.with_ci = true;
  AggResult res = state.Finalize(scaling);
  EXPECT_DOUBLE_EQ(res.variances["s"][0], 0.75);  // sum of input variances
}

// --- string group keys (codes into a dict per source) ---

TEST(GroupedAggStateTest, StringKeysMatchAcrossDicts) {
  // The same rows in one partial (one dict), and split into two partials
  // over different dicts with a null key in each: equal strings and the
  // nulls must group as one either way.
  std::vector<int64_t> g = {1, 1, 2, 2, 3, 3};
  std::vector<double> v = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0};
  std::vector<std::string> names = {"x", "y", "", "x", "y", ""};
  auto aggs = std::vector<AggSpec>{Sum("v", "s"), Count("n")};

  auto one = MakeState({"name"}, aggs);
  DataFrame in = MakeInput(g, v, names);
  in.mutable_column(2)->SetNull(2);
  in.mutable_column(2)->SetNull(5);
  one.Consume(in);

  auto two = MakeState({"name"}, aggs);
  DataFrame p1 = in.Slice(0, 3);
  // Re-interned in another order: a dict of its own, other codes.
  DataFrame p2 = MakeInput({2, 3, 3}, {8.0, 16.0, 32.0}, {"", "y", "x"});
  *p2.mutable_column(2) = p2.column(2).Take({2, 1, 0});
  p2.mutable_column(2)->SetNull(2);
  ASSERT_NE(p1.column(2).dict().get(), p2.column(2).dict().get());
  two.Consume(p1);
  two.Consume(p2);

  DataFrame expected = one.Finalize(AggScaling{}).frame;
  DataFrame got = two.Finalize(AggScaling{}).frame;
  EXPECT_EQ(got.num_rows(), 3u);  // x, y, null
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(expected, 1e-12, &diff)) << diff;
  // The stored group keys adopted the first source's dict: no strings
  // copied.
  EXPECT_EQ(expected.ColumnByName("name").dict().get(),
            in.column(2).dict().get());
}

TEST(GroupedAggStateTest, DictKeysAcrossCrossDictPartials) {
  // Partials from different sources carry different dicts; groups must
  // still merge by string value.
  auto aggs = std::vector<AggSpec>{Count("n")};
  auto state = MakeState({"name"}, aggs);
  DataFrame p1 = MakeInput({1, 1}, {1.0, 1.0}, {"x", "y"});
  DataFrame p2 = MakeInput({1, 1}, {1.0, 1.0}, {"y", "z"});
  ASSERT_NE(p1.column(2).dict().get(), p2.column(2).dict().get());
  state.Consume(p1);
  state.Consume(p2);
  EXPECT_EQ(state.num_groups(), 3u);  // x, y, z — "y" merged across dicts
  DataFrame out = state.Finalize(AggScaling{}).frame;
  EXPECT_EQ(out.ColumnByName("n").IntAt(1), 2);  // y counted twice
}

TEST(GroupedAggStateTest, NullDictKeysFormTheirOwnGroup) {
  auto aggs = std::vector<AggSpec>{Count("n")};
  auto state = MakeState({"name"}, aggs);
  DataFrame in = MakeInput({1, 1, 1}, {1.0, 1.0, 1.0}, {"x", "", "x"});
  in.mutable_column(2)->SetNull(1);
  state.Consume(in);
  EXPECT_EQ(state.num_groups(), 2u);
  DataFrame out = state.Finalize(AggScaling{}).frame;
  EXPECT_EQ(out.ColumnByName("n").IntAt(0), 2);  // "x"
  EXPECT_TRUE(out.ColumnByName("name").IsNull(1));
  EXPECT_EQ(out.ColumnByName("n").IntAt(1), 1);  // null group
}

// COUNT(DISTINCT v) per group g over float64 values, in group order.
std::vector<int64_t> DistinctPerGroup(const std::vector<int64_t>& g,
                                      const std::vector<double>& v) {
  Schema schema({{"g", ValueType::kInt64}, {"v", ValueType::kFloat64}});
  std::vector<AggSpec> aggs = {CountDistinct("v", "d")};
  GroupedAggState state({"g"}, aggs, schema,
                        AggOutputSchema(schema, {"g"}, aggs));
  DataFrame df(schema);
  *df.mutable_column(0) = Column::FromInts(g);
  *df.mutable_column(1) = Column::FromDoubles(v);
  state.Consume(df);
  DataFrame out = state.Finalize(AggScaling{}).frame;
  std::vector<int64_t> d;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    d.push_back(out.ColumnByName("d").IntAt(r));
  }
  return d;
}

TEST(CountDistinctTest, EqualStringsCountOnceAcrossDicts) {
  auto state = MakeState({"g"}, {CountDistinct("name", "d")});
  DataFrame p1 = MakeInput({1, 1, 1}, {0, 0, 0}, {"x", "y", "x"});
  DataFrame p2 = MakeInput({1, 1, 1}, {0, 0, 0}, {"y", "z", ""});
  p2.mutable_column(2)->SetNull(2);
  DataFrame p3 = MakeInput({1, 1, 1, 1}, {0, 0, 0, 0}, {"z", "w", "", "x"});
  p3.mutable_column(2)->SetNull(2);
  ASSERT_NE(p1.column(2).dict().get(), p2.column(2).dict().get());
  ASSERT_NE(p2.column(2).dict().get(), p3.column(2).dict().get());
  DataFrame p4 = p1;  // shares p1's dict: codes compare
  state.Consume(p1);
  state.Consume(p2);
  state.Consume(p3);
  state.Consume(p4);
  EXPECT_EQ(state.Finalize(AggScaling{}).frame.ColumnByName("d").IntAt(0),
            4);  // x, y, z, w; nulls never count

  // Another dict first: the same count.
  auto other_first = MakeState({"g"}, {CountDistinct("name", "d")});
  other_first.Consume(p3);
  other_first.Consume(p1);
  other_first.Consume(p2);
  EXPECT_EQ(
      other_first.Finalize(AggScaling{}).frame.ColumnByName("d").IntAt(0), 4);
}

TEST(CountDistinctTest, DoublesCompareByBitPattern) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan = std::nan("1");
  uint64_t a, b;
  std::memcpy(&a, &nan, sizeof(a));
  std::memcpy(&b, &other_nan, sizeof(b));
  ASSERT_NE(a, b);
  // 0.0 and -0.0 are two values; two NaNs with equal bits are one, and a
  // NaN with another payload is a third.
  EXPECT_EQ(DistinctPerGroup({1, 1, 1, 1, 1, 1, 1},
                             {0.0, -0.0, nan, nan, 1.0, 1.0, -0.0}),
            (std::vector<int64_t>{4}));
  EXPECT_EQ(DistinctPerGroup({1, 1, 1}, {nan, other_nan, nan}),
            (std::vector<int64_t>{2}));
}

TEST(CountDistinctTest, NullsSkippedAndGroupsCountedApart) {
  Schema schema({{"g", ValueType::kInt64}, {"v", ValueType::kDate}});
  std::vector<AggSpec> aggs = {CountDistinct("v", "d")};
  GroupedAggState state({"g"}, aggs, schema,
                        AggOutputSchema(schema, {"g"}, aggs));
  DataFrame df(schema);
  *df.mutable_column(0) = Column::FromInts({1, 1, 2, 1, 3, 2});
  *df.mutable_column(1) =
      Column::FromInts({5, 0, 5, 5, 0, 6}, ValueType::kDate);
  df.mutable_column(1)->SetNull(1);
  df.mutable_column(1)->SetNull(4);
  state.Consume(df);
  DataFrame out = state.Finalize(AggScaling{}).frame;
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.ColumnByName("d").IntAt(0), 1);  // {5}, a null skipped
  EXPECT_EQ(out.ColumnByName("d").IntAt(1), 2);  // {5, 6}: 5 again
  EXPECT_EQ(out.ColumnByName("d").IntAt(2), 0);  // only a null
}

TEST(CountDistinctTest, ResetForgetsEveryEntry) {
  auto state = MakeState({"g"}, {CountDistinct("name", "d")});
  state.Consume(MakeInput({1, 1}, {0, 0}, {"a", "b"}));
  state.Reset();
  // Group 7 gets the id group 1 had, and the same values.
  state.Consume(MakeInput({7, 7}, {0, 0}, {"a", "b"}));
  DataFrame out = state.Finalize(AggScaling{}).frame;
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.ColumnByName("d").IntAt(0), 2);
}

}  // namespace
}  // namespace wake
