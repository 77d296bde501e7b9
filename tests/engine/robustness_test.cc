// Robustness and stress tests: concurrent query execution, skewed data
// distributions, and single-partition degenerate layouts.
#include <gtest/gtest.h>

#include <thread>

#include "baseline/exact_engine.h"
#include "common/rng.h"
#include "core/engine.h"
#include "engine/tpch_fixture.h"
#include "tpch/queries.h"

namespace wake {
namespace {

TEST(RobustnessTest, ConcurrentEnginesShareOneCatalog) {
  const Catalog& cat = testing::SharedTpch();
  ExactEngine exact(&cat);
  std::vector<DataFrame> expected;
  std::vector<int> queries = {1, 4, 6, 12, 14, 19};
  for (int q : queries) expected.push_back(exact.Execute(tpch::Query(q).node()));

  std::vector<std::string> failures(queries.size());
  std::vector<std::thread> workers;
  for (size_t i = 0; i < queries.size(); ++i) {
    workers.emplace_back([&, i] {
      try {
        WakeEngine engine(&cat);
        DataFrame got = engine.ExecuteFinal(tpch::Query(queries[i]).node());
        std::string diff;
        if (!got.ApproxEquals(expected[i], 1e-6, &diff)) failures[i] = diff;
      } catch (const std::exception& e) {
        failures[i] = e.what();
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(failures[i].empty())
        << "Q" << queries[i] << ": " << failures[i];
  }
}

TEST(RobustnessTest, SinglePartitionDegeneratesToOneExactState) {
  tpch::DbgenConfig cfg;
  cfg.scale_factor = 0.002;
  cfg.partitions = 1;
  Catalog cat = tpch::Generate(cfg);
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  Plan plan = tpch::Query(6);
  DataFrame got = engine.ExecuteFinal(plan.node());
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(exact.Execute(plan.node()), 1e-9, &diff))
      << diff;
}

TEST(RobustnessTest, SkewedGroupsStillConvergeExactly) {
  // Zipf-distributed group keys: a few giant groups, a long tail of new
  // keys appearing late — stress for the growth model; the final state
  // must still be exact (the §4.5 guarantee is distribution-free).
  Schema schema({{"k", ValueType::kInt64},
                 {"g", ValueType::kInt64},
                 {"v", ValueType::kFloat64}});
  schema.set_primary_key({"k"});
  schema.set_clustering_key({"k"});
  DataFrame df(schema);
  Rng rng(77);
  for (int i = 0; i < 50000; ++i) {
    df.mutable_column(0)->AppendInt(i);
    df.mutable_column(1)->AppendInt(rng.Zipf(5000, 1.3));
    df.mutable_column(2)->AppendDouble(rng.UniformDouble(0, 10));
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("skew", df, 16)));
  Plan plan = Plan::Scan("skew")
                  .Aggregate({"g"}, {Sum("v", "s"), Count("n")})
                  .Aggregate({}, {Count("groups"), Sum("s", "total")});
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  DataFrame expected = exact.Execute(plan.node());
  std::vector<double> totals;
  DataFrame got;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    if (s.is_final) {
      got = *s.frame;
    } else if (s.frame->num_rows() > 0) {
      totals.push_back(s.frame->ColumnByName("total").DoubleAt(0));
    }
  });
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(expected, 1e-9, &diff)) << diff;
  // Late estimates should approach the truth even under skew.
  double truth = expected.ColumnByName("total").DoubleAt(0);
  ASSERT_GE(totals.size(), 8u);
  EXPECT_NEAR(totals[totals.size() - 2], truth, 0.1 * truth);
}

TEST(RobustnessTest, SubplanSharingPreservesResults) {
  // Q11/Q15/Q17/Q22 reuse a subplan through two parents; the shared
  // (broadcast) execution must produce exactly the duplicated execution's
  // results.
  const Catalog& cat = testing::SharedTpch();
  for (int q : {11, 15, 17, 22}) {
    Plan plan = tpch::Query(q);
    WakeOptions shared_opts;
    shared_opts.share_subplans = true;
    WakeOptions dup_opts;
    dup_opts.share_subplans = false;
    WakeEngine shared(&cat, shared_opts), duplicated(&cat, dup_opts);
    std::string diff;
    EXPECT_TRUE(
        shared.ExecuteFinal(plan.node())
            .ApproxEquals(duplicated.ExecuteFinal(plan.node()), 1e-9, &diff))
        << "Q" << q << ": " << diff;
  }
}

TEST(RobustnessTest, RepeatedExecutionIsDeterministicInResult) {
  // Thread interleavings vary between runs, but every run must deliver
  // the same final frame.
  const Catalog& cat = testing::SharedTpch();
  Plan plan = tpch::Query(12);
  WakeEngine engine(&cat);
  DataFrame first = engine.ExecuteFinal(plan.node());
  for (int run = 0; run < 4; ++run) {
    std::string diff;
    EXPECT_TRUE(
        engine.ExecuteFinal(plan.node()).ApproxEquals(first, 0.0, &diff))
        << diff;
  }
}

TEST(RobustnessTest, WideMultiKeyMergeJoin) {
  // Multi-column clustering keys through the merge join path.
  Schema schema({{"k1", ValueType::kInt64},
                 {"k2", ValueType::kInt64},
                 {"v", ValueType::kFloat64}});
  schema.set_primary_key({"k1", "k2"});
  schema.set_clustering_key({"k1", "k2"});
  DataFrame df(schema);
  for (int a = 0; a < 100; ++a) {
    for (int b = 0; b < 5; ++b) {
      df.mutable_column(0)->AppendInt(a);
      df.mutable_column(1)->AppendInt(b);
      df.mutable_column(2)->AppendDouble(a * 10.0 + b);
    }
  }
  // A second table with the same clustering but a distinct value column,
  // differently partitioned, so the merge join must align key ranges.
  Schema schema2({{"k1", ValueType::kInt64},
                  {"k2", ValueType::kInt64},
                  {"w", ValueType::kFloat64}});
  schema2.set_primary_key({"k1", "k2"});
  schema2.set_clustering_key({"k1", "k2"});
  DataFrame df2(schema2);
  for (int a = 0; a < 100; ++a) {
    for (int b = 0; b < 5; ++b) {
      df2.mutable_column(0)->AppendInt(a);
      df2.mutable_column(1)->AppendInt(b);
      df2.mutable_column(2)->AppendDouble(a - b);
    }
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("pairs", df, 7)));
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("pairs2", df2, 4)));
  Plan joined = Plan::Scan("pairs").Join(
      Plan::Scan("pairs2"), JoinType::kInner, {"k1", "k2"}, {"k1", "k2"});
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  DataFrame expected = exact.Execute(joined.node());
  DataFrame got = engine.ExecuteFinal(joined.node());
  ASSERT_EQ(expected.num_rows(), 500u);
  std::string diff;
  EXPECT_TRUE(got.SortBy({{"k1", false}, {"k2", false}})
                  .ApproxEquals(
                      expected.SortBy({{"k1", false}, {"k2", false}}), 1e-12,
                      &diff))
      << diff;
}

}  // namespace
}  // namespace wake
