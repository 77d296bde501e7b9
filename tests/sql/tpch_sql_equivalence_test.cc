// End-to-end oracle for the SQL front end + logical optimizer: every
// TPC-H query's SQL text, parsed and optimized, must produce exactly the
// results of the hand-built tpch::Query(n) plan on the exact engine, one
// Optimize call must reach the optimizer's fixpoint, and the optimized
// plan must stay byte-identical on the Wake OLA engine at any worker
// count.
#include "tpch/queries_sql.h"

#include <gtest/gtest.h>

#include "baseline/exact_engine.h"
#include "core/engine.h"
#include "engine/tpch_fixture.h"
#include "plan/optimizer.h"
#include "sql/parser.h"
#include "tpch/queries.h"

namespace wake {
namespace {

class TpchSqlEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchSqlEquivalenceTest, SqlParsedAndOptimizedMatchesHandBuiltPlan) {
  int q = GetParam();
  const Catalog& catalog = testing::SharedTpch();
  ExactEngine exact(&catalog);

  DataFrame expected = exact.Execute(tpch::Query(q).node());

  Plan parsed = sql::Parse(tpch::QuerySql(q));
  // The naive parse must already be correct (filters above joins, full
  // scans) — the optimizer only makes it fast.
  DataFrame naive = exact.Execute(parsed.node());
  std::string diff;
  EXPECT_TRUE(naive.ApproxEquals(expected, 1e-9, &diff))
      << "Q" << q << " naive parse: " << diff;

  Plan optimized = Optimize(parsed, catalog);
  DataFrame got = exact.Execute(optimized.node());
  EXPECT_TRUE(got.ApproxEquals(expected, 1e-9, &diff))
      << "Q" << q << " optimized: " << diff
      << "\nplan:\n" << PlanToString(optimized.node());

  // One call reaches the optimizer's fixpoint, for the SQL text and for
  // the hand-built plan alike.
  for (const Plan& once : {optimized, Optimize(tpch::Query(q), catalog)}) {
    EXPECT_EQ(PlanToString(Optimize(once, catalog).node()),
              PlanToString(once.node()))
        << "Q" << q;
  }
}

TEST_P(TpchSqlEquivalenceTest, OptimizedPlanIsWorkerCountInvariantOnWake) {
  int q = GetParam();
  const Catalog& catalog = testing::SharedTpch();
  Plan optimized = Optimize(sql::Parse(tpch::QuerySql(q)), catalog);

  WorkerPool one(1), four(4);
  WakeOptions serial;
  serial.pool = &one;
  DataFrame w1 = WakeEngine(&catalog, serial).ExecuteFinal(optimized.node());

  WakeOptions parallel;
  parallel.pool = &four;
  DataFrame w4 =
      WakeEngine(&catalog, parallel).ExecuteFinal(optimized.node());

  // Byte-identical: zero tolerance, not approximate.
  std::string diff;
  EXPECT_TRUE(w1.ApproxEquals(w4, 0.0, &diff))
      << "Q" << q << " worker-count drift: " << diff;

  // And the OLA engine's final state agrees exactly with the hand-built
  // plan on the exact baseline.
  ExactEngine exact(&catalog);
  DataFrame expected = exact.Execute(tpch::Query(q).node());
  EXPECT_TRUE(w1.ApproxEquals(expected, 1e-9, &diff))
      << "Q" << q << " wake vs exact oracle: " << diff;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchSqlEquivalenceTest,
                         ::testing::Range(1, 23));

}  // namespace
}  // namespace wake
