// Randomized plan fuzzing: generate random (but valid) plans over a
// synthetic star schema and check that the Wake OLA engine's final answer
// always equals the blocking exact engine's, and that the optimized plan
// gives the exact engine the same answer and is the optimizer's fixpoint.
// This sweeps operator combinations no hand-written test enumerates:
// filter/derive stacking, all join types, local vs shuffle aggregations,
// agg-over-agg, and sort/limit tails.
#include <gtest/gtest.h>

#include <optional>

#include "baseline/exact_engine.h"
#include "common/rng.h"
#include "core/engine.h"
#include "plan/optimizer.h"

namespace wake {
namespace {

Catalog FuzzCatalog(uint64_t seed) {
  Rng rng(seed);
  Schema fact_schema({{"id", ValueType::kInt64},
                      {"dim_id", ValueType::kInt64},
                      {"bucket", ValueType::kInt64},
                      {"amount", ValueType::kFloat64},
                      {"flag", ValueType::kString}});
  fact_schema.set_primary_key({"id"});
  fact_schema.set_clustering_key({"id"});
  DataFrame fact(fact_schema);
  size_t rows = 2000 + static_cast<size_t>(rng.UniformInt(0, 3000));
  for (size_t i = 0; i < rows; ++i) {
    fact.mutable_column(0)->AppendInt(static_cast<int64_t>(i));
    fact.mutable_column(1)->AppendInt(rng.UniformInt(0, 19));
    fact.mutable_column(2)->AppendInt(rng.Zipf(50, 1.1));
    fact.mutable_column(3)->AppendDouble(rng.UniformDouble(-100, 100));
    fact.mutable_column(4)->AppendString(rng.UniformInt(0, 1) ? "hot"
                                                              : "cold");
  }
  Schema dim_schema({{"d_id", ValueType::kInt64},
                     {"d_weight", ValueType::kFloat64}});
  dim_schema.set_primary_key({"d_id"});
  dim_schema.set_clustering_key({"d_id"});
  DataFrame dim(dim_schema);
  for (int i = 0; i < 16; ++i) {  // ids 0..15: some fact dim_ids dangle
    dim.mutable_column(0)->AppendInt(i);
    dim.mutable_column(1)->AppendDouble(rng.UniformDouble(0.5, 2.0));
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(PartitionedTable::FromDataFrame(
      "fact", fact, 3 + static_cast<size_t>(rng.UniformInt(0, 9)))));
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("dim", dim, 2)));
  return cat;
}

Plan RandomPlan(Rng& rng) {
  Plan plan = Plan::Scan("fact");
  // Optional filter stack.
  int filters = static_cast<int>(rng.UniformInt(0, 2));
  for (int i = 0; i < filters; ++i) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        plan = plan.Filter(Gt(Expr::Col("amount"),
                              Expr::Float(rng.UniformDouble(-50, 50))));
        break;
      case 1:
        plan = plan.Filter(Eq(Expr::Col("flag"), Expr::Str("hot")));
        break;
      case 2:
        plan = plan.Filter(Le(Expr::Col("bucket"),
                              Expr::Int(rng.UniformInt(2, 40))));
        break;
      default:
        plan = plan.Filter(Expr::In(
            Expr::Col("dim_id"),
            {Value::Int(rng.UniformInt(0, 19)),
             Value::Int(rng.UniformInt(0, 19)),
             Value::Int(rng.UniformInt(0, 19))}));
        break;
    }
  }
  // Optional derive.
  if (rng.UniformInt(0, 1)) {
    plan = plan.Derive({{"scaled", Expr::Col("amount") *
                                       Expr::Float(rng.UniformDouble(0.5, 2))}});
  }
  // Optional join.
  int join_kind = static_cast<int>(rng.UniformInt(0, 3));
  bool joined = false;
  if (join_kind > 0) {
    JoinType type = join_kind == 1
                        ? JoinType::kInner
                        : (join_kind == 2 ? JoinType::kSemi : JoinType::kAnti);
    plan = plan.Join(Plan::Scan("dim"), type, {"dim_id"}, {"d_id"});
    joined = type == JoinType::kInner;
  }
  // Aggregation: local (by id) or shuffle (by dim_id/bucket/flag) or both.
  int agg_choice = static_cast<int>(rng.UniformInt(0, 3));
  std::vector<std::string> group;
  switch (agg_choice) {
    case 0: group = {"id"}; break;        // local
    case 1: group = {"dim_id"}; break;    // shuffle
    case 2: group = {"bucket", "flag"}; break;
    case 3: group = {}; break;            // global
  }
  std::vector<AggSpec> aggs;
  aggs.push_back(Sum("amount", "s"));
  if (rng.UniformInt(0, 1)) aggs.push_back(Count("n"));
  if (rng.UniformInt(0, 1)) aggs.push_back(Avg("amount", "a"));
  if (rng.UniformInt(0, 1)) aggs.push_back(Min("amount", "mn"));
  if (rng.UniformInt(0, 1)) aggs.push_back(CountDistinct("bucket", "d"));
  if (joined && rng.UniformInt(0, 1)) {
    aggs.push_back(Max("d_weight", "mw"));
  }
  plan = plan.Aggregate(group, aggs);
  // Optional second-level aggregation (the Deep-OLA case).
  if (!group.empty() && rng.UniformInt(0, 1)) {
    plan = plan.Aggregate({}, {Sum("s", "total"), Count("groups")});
  } else if (rng.UniformInt(0, 1)) {
    // Sort tail with optional limit.
    std::vector<SortKey> keys = {{"s", rng.UniformInt(0, 1) == 1}};
    plan = plan.Sort(std::move(keys), rng.UniformInt(0, 1)
                                          ? std::nullopt
                                          : std::optional<size_t>(5));
  }
  return plan;
}

class FuzzPlans : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPlans, WakeFinalAlwaysEqualsExact) {
  uint64_t seed = 1000 + static_cast<uint64_t>(GetParam());
  Catalog cat = FuzzCatalog(seed);
  Rng rng(seed * 7919);
  for (int trial = 0; trial < 6; ++trial) {
    Plan plan = RandomPlan(rng);
    ExactEngine exact(&cat);
    WakeEngine engine(&cat);
    DataFrame expected = exact.Execute(plan.node());
    DataFrame got = engine.ExecuteFinal(plan.node());
    // Row order of shuffle-agg snapshots is insertion order, which can
    // differ from the exact engine's when merging partials; compare as
    // multisets by sorting on every column.
    std::vector<SortKey> all_cols;
    for (const auto& f : expected.schema().fields()) {
      all_cols.push_back({f.name, false});
    }
    std::string diff;
    EXPECT_TRUE(got.SortBy(all_cols).ApproxEquals(expected.SortBy(all_cols),
                                                  1e-6, &diff))
        << "seed=" << seed << " trial=" << trial << "\n"
        << PlanToString(plan.node()) << diff;

    // One Optimize call reaches the fixpoint and keeps the answer.
    PlanNodePtr optimized = Optimize(plan.node(), cat);
    EXPECT_EQ(PlanToString(Optimize(optimized, cat)), PlanToString(optimized))
        << "seed=" << seed << " trial=" << trial << "\n"
        << PlanToString(plan.node());
    EXPECT_TRUE(exact.Execute(optimized).ApproxEquals(expected, 0.0, &diff))
        << "seed=" << seed << " trial=" << trial << "\n"
        << PlanToString(plan.node()) << "optimized:\n"
        << PlanToString(optimized) << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPlans, ::testing::Range(0, 10));

}  // namespace
}  // namespace wake
