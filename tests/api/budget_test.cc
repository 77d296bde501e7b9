// Per-query resource budgets through the wake::Db session API: graceful
// OLA degradation (kPartialBudget snapshots with CI), the kFail policy
// (kResourceExhausted), budget behaviour of each engine, and the
// idempotency of handle operations after a breach-driven stop. One case
// drives WakeEngine with Db's kDegrade wiring directly, because its plan
// shares one scan between a join's two inputs, which SQL cannot express.
// The TSAN CI config runs this binary, so racing charge/credit paths fail
// loudly.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <utility>

#include "api/db.h"
#include "common/error.h"
#include "common/resource.h"
#include "core/engine.h"
#include "engine/tpch_fixture.h"
#include "tpch/queries_sql.h"

namespace wake {
namespace {

class BudgetTest : public ::testing::Test {
 protected:
  const Catalog& cat_ = testing::SharedTpch();
};

TEST_F(BudgetTest, TinyMemoryBudgetDegradesOlaToPartialSnapshot) {
  Db db(&cat_);
  RunOptions run;
  run.with_ci = true;
  run.memory_limit_bytes = 16 * 1024;  // far below Q3's working set
  QueryHandle handle = db.Prepare(tpch::QuerySql(3)).Run(run);
  QueryResult result = handle.Result();  // must not throw, hang, or crash
  EXPECT_EQ(result.status, ResultStatus::kPartialBudget);
  EXPECT_EQ(result.breach, BreachReason::kMemory);
  EXPECT_LT(result.progress, 1.0);
  ASSERT_NE(result.frame, nullptr);
  // The snapshot keeps the query's schema even when the breach outran
  // every state.
  EXPECT_EQ(result.frame->num_columns(),
            db.Prepare(tpch::QuerySql(3)).schema().num_fields());
  // Final() returns the same degraded snapshot instead of throwing.
  EXPECT_EQ(handle.Final().num_rows(), result.frame->num_rows());
}

TEST_F(BudgetTest, FailPolicyRaisesResourceExhausted) {
  Db db(&cat_);
  RunOptions run;
  run.memory_limit_bytes = 16 * 1024;
  run.on_breach = OnBreach::kFail;
  QueryHandle handle = db.Prepare(tpch::QuerySql(3)).Run(run);
  try {
    handle.Final();
    FAIL() << "expected kResourceExhausted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kResourceExhausted);
  }
  EXPECT_TRUE(handle.done());
}

TEST_F(BudgetTest, DeadlineDegradesWithPartialStatus) {
  Db db(&cat_);
  RunOptions run;
  run.timeout_ms = 1;  // expires long before Q9 finishes
  QueryHandle handle = db.Prepare(tpch::QuerySql(9)).Run(run);
  QueryResult result = handle.Result();
  if (result.status == ResultStatus::kFinal) {
    GTEST_SKIP() << "query finished inside the deadline on this machine";
  }
  EXPECT_EQ(result.breach, BreachReason::kDeadline);
  EXPECT_LT(result.progress, 1.0);
  ASSERT_NE(result.frame, nullptr);
}

TEST_F(BudgetTest, RowsScannedCapDegrades) {
  Db db(&cat_);
  RunOptions run;
  run.max_rows_scanned = 64;  // smaller than one lineitem partition
  QueryHandle handle = db.Prepare(tpch::QuerySql(6)).Run(run);
  QueryResult result = handle.Result();
  EXPECT_EQ(result.status, ResultStatus::kPartialBudget);
  EXPECT_EQ(result.breach, BreachReason::kRowsScanned);
  EXPECT_LT(result.progress, 1.0);
}

TEST_F(BudgetTest, UnbudgetedRunsAreUnaffected) {
  Db db(&cat_);
  PreparedQuery q = db.Prepare(tpch::QuerySql(6));
  QueryHandle handle = q.Run();
  QueryResult result = handle.Result();
  EXPECT_EQ(result.status, ResultStatus::kFinal);
  EXPECT_EQ(result.breach, BreachReason::kNone);
  EXPECT_DOUBLE_EQ(result.progress, 1.0);
}

TEST_F(BudgetTest, GenerousBudgetStillProducesExactFinal) {
  Db db(&cat_);
  PreparedQuery q = db.Prepare(tpch::QuerySql(6));
  RunOptions run;
  run.memory_limit_bytes = size_t{4} << 30;
  run.timeout_ms = 600000;
  run.max_rows_scanned = size_t{1} << 40;
  QueryHandle budgeted = q.Run(run);
  QueryResult result = budgeted.Result();
  EXPECT_EQ(result.status, ResultStatus::kFinal);
  std::string diff;
  EXPECT_TRUE(result.frame->ApproxEquals(q.Execute(), 0.0, &diff)) << diff;
}

TEST_F(BudgetTest, ExactEngineSurfacesResourceExhausted) {
  Db db(&cat_);
  RunOptions run;
  run.engine = QueryEngine::kExact;
  run.memory_limit_bytes = 16 * 1024;
  // Policy is irrelevant for a blocking engine: no partial exists, so
  // kDegrade fails too.
  QueryHandle handle = db.Prepare(tpch::QuerySql(3)).Run(run);
  try {
    handle.Final();
    FAIL() << "expected kResourceExhausted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kResourceExhausted);
  }
}

TEST_F(BudgetTest, ExactEngineFailsAsSoonAsAnIntermediateBreaches) {
  // The scan of 200k (int64, float64) rows materializes about 3.2 MB
  // under a 64 KB budget, and no later operator entry follows it. Checked
  // only on operator entry, all four runs ended kFinal with the 100 rows.
  Schema schema({{"id", ValueType::kInt64}, {"v", ValueType::kFloat64}});
  DataFrame all(schema);
  for (int64_t i = 0; i < 200000; ++i) {
    all.mutable_column(0)->AppendInt(i);
    all.mutable_column(1)->AppendDouble(static_cast<double>(i) / 4);
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("t", all, 4)));
  Db db(&cat);
  const size_t limit = 64 * 1024;
  for (const char* sql : {"SELECT id, v FROM t WHERE id < 100",
                          "SELECT id, v FROM t WHERE id < 100 ORDER BY id"}) {
    for (OnBreach policy : {OnBreach::kDegrade, OnBreach::kFail}) {
      SCOPED_TRACE(std::string(sql) +
                   (policy == OnBreach::kFail ? " kFail" : " kDegrade"));
      RunOptions run;
      run.engine = QueryEngine::kExact;
      run.memory_limit_bytes = limit;
      run.on_breach = policy;
      QueryHandle handle = db.Prepare(sql).Run(run);
      try {
        handle.Result();
        ADD_FAILURE() << "expected kResourceExhausted";
      } catch (const Error& e) {
        EXPECT_EQ(e.category(), ErrorCategory::kResourceExhausted);
        // The message names the bytes the intermediate needed, not the
        // balance left once it was credited.
        const std::string msg = e.what();
        const std::string key = "memory limit exceeded (";
        size_t at = msg.find(key);
        ASSERT_NE(at, std::string::npos) << msg;
        EXPECT_GT(std::stoull(msg.substr(at + key.size())), limit) << msg;
      }
    }
  }
}

TEST_F(BudgetTest, ProgressiveEngineDegradesAtChunkBoundaries) {
  Db db(&cat_);
  RunOptions run;
  run.engine = QueryEngine::kProgressive;
  run.max_rows_scanned = 64;
  QueryHandle handle =
      db.Prepare("SELECT l_shipmode, SUM(l_quantity) AS qty FROM lineitem "
                 "GROUP BY l_shipmode")
          .Run(run);
  QueryResult result = handle.Result();
  EXPECT_EQ(result.status, ResultStatus::kPartialBudget);
  EXPECT_EQ(result.breach, BreachReason::kRowsScanned);
  EXPECT_LT(result.progress, 1.0);
  EXPECT_GT(result.frame->num_rows(), 0u);  // at least one chunk's estimate
}

TEST_F(BudgetTest, DegradedFinalOnlyBuildSideEndsInScaledEstimate) {
  // One lineitem scan feeds both inputs of the join (a shared subplan),
  // so the rows cap truncates probe and build at the same partial. The
  // per-supplier count only feeds the join's build input, so it runs
  // final-only: its one snapshot, sent at drain EOF, must be the scaled
  // estimate the drain left, or the join probes an empty build. The
  // kDegrade wiring is wake::Db's: the tracker's breach drain-stops the
  // run.
  Plan lineitem = Plan::Scan("lineitem", {"l_orderkey", "l_suppkey"});
  Plan plan = lineitem.Join(
      lineitem.Aggregate({"l_suppkey"}, {Count("n")}), JoinType::kInner,
      {"l_suppkey"}, {"l_suppkey"});
  ResourceTracker tracker;
  QueryBudget budget;
  budget.max_rows_scanned = cat_.Get("lineitem").total_rows() / 3;
  tracker.Arm(budget);
  WakeOptions options;
  options.tracker = &tracker;
  WakeEngine engine(&cat_, options);
  std::mutex run_mu;
  std::unique_ptr<EngineRun> run;
  tracker.set_on_breach([&] {
    std::lock_guard<std::mutex> lock(run_mu);
    if (run != nullptr) run->DegradeStop();
  });
  {
    std::lock_guard<std::mutex> lock(run_mu);
    run = engine.Start(plan.node());
    if (tracker.breached()) run->DegradeStop();
  }
  OlaState last;
  run->Collect([&](const OlaState& s) {
    if (s.is_final) last = s;
  });
  ASSERT_TRUE(tracker.breached());
  ASSERT_NE(last.frame, nullptr);
  EXPECT_GT(last.progress, 0.0);
  EXPECT_LT(last.progress, 1.0);
  const DataFrame& frame = *last.frame;
  ASSERT_GT(frame.num_rows(), 0u) << "the join probed an empty build";
  // Every probe row is in the build's prefix, so an unscaled count would
  // equal the supplier's rows in the frame; the estimate scales it up.
  std::map<int64_t, int64_t> prefix_rows;
  std::map<int64_t, int64_t> estimate;
  const Column& supp = frame.ColumnByName("l_suppkey");
  const Column& n = frame.ColumnByName("n");
  for (size_t i = 0; i < frame.num_rows(); ++i) {
    ++prefix_rows[supp.IntAt(i)];
    estimate[supp.IntAt(i)] = n.IntAt(i);
  }
  for (const auto& [key, rows] : prefix_rows) {
    EXPECT_GT(estimate[key], rows) << "supplier " << key;
  }
}

TEST_F(BudgetTest, HandleOperationsAreIdempotentAfterBreach) {
  Db db(&cat_);
  RunOptions run;
  run.memory_limit_bytes = 16 * 1024;
  QueryHandle handle = db.Prepare(tpch::QuerySql(3)).Run(run);
  // Wait / Final / Result / Cancel in any order and multiplicity.
  handle.Wait();
  handle.Wait();
  DataFrame a = handle.Final();
  DataFrame b = handle.Final();
  EXPECT_EQ(a.num_rows(), b.num_rows());
  handle.Cancel();
  handle.Cancel();  // double-cancel after the run already stopped
  QueryResult result = handle.Result();
  EXPECT_EQ(result.status, ResultStatus::kPartialBudget);
  // The pull stream still terminates.
  while (handle.Next(std::chrono::milliseconds(100))) {
  }
  EXPECT_TRUE(handle.done());
}

TEST_F(BudgetTest, MovedFromHandleIsInert) {
  Db db(&cat_);
  QueryHandle handle = db.Prepare(tpch::QuerySql(6)).Run();
  QueryHandle moved = std::move(handle);
  // The moved-from shell: every operation is safe, none crashes.
  EXPECT_TRUE(handle.done());
  EXPECT_FALSE(handle.cancelled());
  EXPECT_EQ(handle.Next(), std::nullopt);
  handle.Cancel();
  handle.Wait();
  EXPECT_THROW(handle.Final(), Error);
  EXPECT_THROW(handle.Result(), Error);
  // The moved-to handle owns the query.
  EXPECT_EQ(moved.Result().status, ResultStatus::kFinal);
}

TEST_F(BudgetTest, BoundedStateStreamDropsOldestSnapshots) {
  Db db(&cat_);
  RunOptions run;
  run.max_buffered_states = 2;
  QueryHandle handle = db.Prepare(tpch::QuerySql(1)).Run(run);
  handle.Wait();  // never pulled while running: buffer must stay capped
  // Drain what survived: at most the cap plus the state being delivered
  // concurrently with a drop.
  size_t drained = 0;
  double last_progress = -1.0;
  bool saw_final = false;
  while (auto s = handle.Next()) {
    ++drained;
    EXPECT_GE(s->progress, last_progress);  // still in order
    last_progress = s->progress;
    saw_final = s->is_final;
  }
  EXPECT_LE(drained, 3u);
  // The final state is never the one dropped.
  EXPECT_TRUE(saw_final);
  EXPECT_EQ(handle.Final().num_rows(),
            db.Prepare(tpch::QuerySql(1)).Execute().num_rows());
}

TEST_F(BudgetTest, PartialsAreChargedTheirRowsShareOfASharedDictionary) {
  // Every partition of `notes` shares one dictionary of 200k strings
  // (over 16 MiB), of which the table's 20k rows use a tenth, as a
  // wakeblock block shares its table-wide dictionary. Each partial is
  // charged its rows' share, so an 8 MiB budget holds the whole query on
  // both engines. Charging every partial the whole dictionary stopped the
  // OLA run after its first chunks with a partial answer.
  Schema schema({{"id", ValueType::kInt64}, {"note", ValueType::kString}});
  DataFrame all(schema);
  const std::string pad(48, 'n');
  for (int64_t i = 0; i < 200000; ++i) {
    all.mutable_column(0)->AppendInt(i);
    all.mutable_column(1)->AppendString(pad + std::to_string(i));
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("notes", all.Slice(0, 20000), 16)));
  ASSERT_GT(all.column(1).dict()->ByteSize(), size_t{16} << 20);
  Db db(&cat);
  PreparedQuery q = db.Prepare(
      "SELECT id, note FROM notes WHERE note LIKE '%77' ORDER BY id");
  const DataFrame expected = q.Execute();
  ASSERT_GT(expected.num_rows(), 0u);
  for (QueryEngine engine : {QueryEngine::kOla, QueryEngine::kExact}) {
    RunOptions run;
    run.engine = engine;
    run.memory_limit_bytes = size_t{8} << 20;
    QueryResult result = q.Run(run).Result();
    EXPECT_EQ(result.status, ResultStatus::kFinal);
    EXPECT_EQ(result.breach, BreachReason::kNone);
    ASSERT_NE(result.frame, nullptr);
    std::string diff;
    EXPECT_TRUE(result.frame->ApproxEquals(expected, 0.0, &diff)) << diff;
  }
}

TEST_F(BudgetTest, BudgetedRunMatchesUnbudgetedResults) {
  // Charging/crediting must be observation-only: byte-identical results.
  Db db(&cat_);
  PreparedQuery q = db.Prepare(tpch::QuerySql(3));
  RunOptions run;
  run.memory_limit_bytes = size_t{4} << 30;
  std::string diff;
  EXPECT_TRUE(q.Run(run).Final().ApproxEquals(q.Execute(), 0.0, &diff))
      << diff;
}

}  // namespace
}  // namespace wake
