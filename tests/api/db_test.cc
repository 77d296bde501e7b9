// wake::Db session API: prepare/run semantics, engine selection, pull and
// push delivery, error categories, and concurrent handles over one Db.
#include "api/db.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "baseline/exact_engine.h"
#include "baseline/progressive_ola.h"
#include "common/error.h"
#include "engine/tpch_fixture.h"
#include "tpch/queries.h"
#include "tpch/queries_sql.h"

namespace wake {
namespace {

const char* kShipmodeSql =
    "SELECT l_shipmode, SUM(l_quantity) AS qty, COUNT(*) AS items "
    "FROM lineitem GROUP BY l_shipmode ORDER BY qty DESC";

class DbTest : public ::testing::Test {
 protected:
  const Catalog& cat_ = testing::SharedTpch();
};

// --- Prepare ---------------------------------------------------------------

TEST_F(DbTest, ParseErrorIsCategorizedWithPosition) {
  Db db(&cat_);
  try {
    db.Prepare("SELECT FROM WHERE");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse);
    EXPECT_TRUE(e.has_position());
  }
}

TEST_F(DbTest, SemanticSqlErrorIsAlsoParseCategory) {
  Db db(&cat_);
  // Statement-level SQL rejection (not a token error): still kParse.
  try {
    db.Prepare("SELECT l_shipmode FROM lineitem HAVING COUNT(*) > 1");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse);
  }
}

TEST_F(DbTest, PlanErrorIsCategorized) {
  Db db(&cat_);
  // Parses fine; validation rejects the unknown column at Prepare time.
  try {
    db.Prepare("SELECT no_such_column FROM lineitem");
    FAIL() << "expected plan error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kPlan);
  }
}

TEST_F(DbTest, IllTypedExpressionsArePlanErrorsAtPrepare) {
  // Each of these once prepared and then crashed or failed mid-run.
  const char* kIllTyped[] = {
      "SELECT COUNT(*) AS n FROM lineitem WHERE l_comment < 5",
      "SELECT SUM(l_comment + 1) AS s FROM lineitem",
      "SELECT COUNT(*) AS n FROM lineitem WHERE NOT l_comment",
      "SELECT COUNT(*) AS n FROM lineitem WHERE NOT l_quantity",
      "SELECT COUNT(*) AS n FROM lineitem "
      "WHERE CASE WHEN l_quantity > 10 THEN l_comment ELSE 1 END = 1",
      "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity LIKE '1%'",
      "SELECT SUBSTR(l_quantity, 1, 2) AS s FROM lineitem",
      "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity",
      // Folding drops the string operand; the plan as written is checked.
      "SELECT COUNT(*) AS n FROM lineitem WHERE l_comment AND 1 = 0",
  };
  Db db(&cat_);
  for (const char* sql : kIllTyped) {
    try {
      db.Prepare(sql);
      ADD_FAILURE() << "expected a plan error for " << sql;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kPlan) << sql << ": "
                                                    << e.what();
    }
  }
  // The rules accept every TPC-H query.
  for (int q = 1; q <= 22; ++q) {
    EXPECT_NO_THROW(db.Prepare(tpch::QuerySql(q))) << "q" << q;
  }
}

TEST_F(DbTest, ExplainRendersTheOptimizedPlan) {
  Db db(&cat_);
  PreparedQuery q = db.Prepare(kShipmodeSql);
  // The optimizer projected the scan: only the two referenced columns.
  EXPECT_NE(q.Explain().find("Scan lineitem [l_quantity,l_shipmode]"),
            std::string::npos)
      << q.Explain();
  EXPECT_EQ(q.sql(), kShipmodeSql);
  EXPECT_EQ(q.schema().num_fields(), 3u);
  EXPECT_EQ(q.schema().field(0).name, "l_shipmode");
}

// --- Run: pull, push, engines ----------------------------------------------

TEST_F(DbTest, PullCursorStreamsConvergingStatesThenFinal) {
  Db db(&cat_);
  QueryHandle handle = db.Prepare(kShipmodeSql).Run();
  size_t states = 0;
  double last_progress = 0.0;
  bool saw_final = false;
  while (auto s = handle.Next()) {
    EXPECT_GE(s->progress, last_progress);  // monotone
    last_progress = s->progress;
    EXPECT_FALSE(saw_final);  // final is the last state
    saw_final = s->is_final;
    ++states;
  }
  EXPECT_TRUE(saw_final);
  EXPECT_GT(states, 1u);  // OLA streams intermediate estimates
  EXPECT_TRUE(handle.done());

  ExactEngine exact(&cat_);
  std::string diff;
  EXPECT_TRUE(handle.Final().ApproxEquals(
      exact.Execute(db.Prepare(kShipmodeSql).plan().node()), 1e-9, &diff))
      << diff;
}

TEST_F(DbTest, TimedNextDistinguishesTimeoutFromEof) {
  Db db(&cat_);
  QueryHandle handle = db.Prepare(kShipmodeSql).Run();
  handle.Wait();
  // Stream has ended: even a zero timeout drains the queued states, and
  // after the last one Next keeps returning nullopt with done() true.
  size_t states = 0;
  while (handle.Next(std::chrono::milliseconds(1000))) ++states;
  EXPECT_GT(states, 0u);
  EXPECT_TRUE(handle.done());
}

TEST_F(DbTest, CallbackAndCursorBothSeeEveryState) {
  Db db(&cat_);
  RunOptions run;
  size_t pushed = 0;
  run.on_state = [&](const OlaState&) { ++pushed; };
  QueryHandle handle = db.Prepare(kShipmodeSql).Run(run);
  size_t pulled = 0;
  while (handle.Next()) ++pulled;
  EXPECT_EQ(pushed, pulled);
}

TEST_F(DbTest, ThrowingCallbackCancelsTheRunAndPropagates) {
  Db db(&cat_);
  RunOptions run;
  run.on_state = [](const OlaState&) { throw std::runtime_error("boom"); };
  QueryHandle handle = db.Prepare(kShipmodeSql).Run(run);
  // The graph is cancelled and joined (not left running in the
  // background); the callback's exception surfaces from Final().
  EXPECT_THROW(handle.Final(), std::runtime_error);
  EXPECT_TRUE(handle.done());
}

TEST_F(DbTest, ExactEngineYieldsOneFinalState) {
  Db db(&cat_);
  RunOptions run;
  run.engine = QueryEngine::kExact;
  QueryHandle handle = db.Prepare(kShipmodeSql).Run(run);
  auto s = handle.Next();
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->is_final);
  EXPECT_EQ(s->progress, 1.0);
  EXPECT_FALSE(handle.Next().has_value());
}

TEST_F(DbTest, AllThreeEnginesAgreeOnASingleTableQuery) {
  Db db(&cat_);
  PreparedQuery q = db.Prepare(kShipmodeSql);
  DataFrame ola = q.Execute();
  RunOptions exact_run;
  exact_run.engine = QueryEngine::kExact;
  DataFrame exact = q.Execute(exact_run);
  RunOptions prog_run;
  prog_run.engine = QueryEngine::kProgressive;
  DataFrame prog = q.Execute(prog_run);
  std::string diff;
  EXPECT_TRUE(ola.ApproxEquals(exact, 1e-9, &diff)) << diff;
  EXPECT_TRUE(prog.ApproxEquals(exact, 1e-9, &diff)) << diff;
}

TEST_F(DbTest, FunctionsOfNullPaddedRowsStayNull) {
  // A LEFT JOIN pads customers without orders with nulls; YEAR and SUBSTR
  // of those nulls are null, so COUNT skips them as it skips the column.
  const char* kFunctions =
      "SELECT COUNT(y) AS years, COUNT(c) AS comments, COUNT(*) AS joined "
      "FROM (SELECT YEAR(o_orderdate) AS y, SUBSTR(o_comment, 1, 2) AS c "
      "FROM customer LEFT JOIN orders ON c_custkey = o_custkey) AS t";
  const char* kColumn =
      "SELECT COUNT(o_orderdate) AS dates "
      "FROM customer LEFT JOIN orders ON c_custkey = o_custkey";
  Db db(&cat_);
  for (QueryEngine engine : {QueryEngine::kExact, QueryEngine::kOla}) {
    RunOptions run;
    run.engine = engine;
    DataFrame f = db.Prepare(kFunctions).Execute(run);
    DataFrame c = db.Prepare(kColumn).Execute(run);
    const int64_t dates = c.ColumnByName("dates").IntAt(0);
    const auto name = static_cast<int>(engine);
    EXPECT_EQ(f.ColumnByName("years").IntAt(0), dates) << name;
    EXPECT_EQ(f.ColumnByName("comments").IntAt(0), dates) << name;
    EXPECT_LT(dates, f.ColumnByName("joined").IntAt(0)) << name;
  }
}

TEST_F(DbTest, LimitZeroReturnsNoRowsWithTheQuerySchema) {
  // LIMIT 0 is an empty result, not "no limit", with or without ORDER BY;
  // a positive limit still cuts the same queries.
  Db db(&cat_);
  for (const char* order : {" ORDER BY n_name", ""}) {
    const std::string base = std::string("SELECT n_name FROM nation") + order;
    for (QueryEngine engine : {QueryEngine::kExact, QueryEngine::kOla}) {
      RunOptions run;
      run.engine = engine;
      const std::string label =
          base + " engine " + std::to_string(static_cast<int>(engine));
      DataFrame none = db.Prepare(base + " LIMIT 0").Execute(run);
      EXPECT_EQ(none.num_rows(), 0u) << label;
      ASSERT_EQ(none.num_columns(), 1u) << label;
      EXPECT_EQ(none.schema().field(0).name, "n_name") << label;
      EXPECT_EQ(none.schema().field(0).type, ValueType::kString) << label;
      EXPECT_EQ(db.Prepare(base + " LIMIT 3").Execute(run).num_rows(), 3u)
          << label;
    }
  }
}

TEST_F(DbTest, ProgressiveEngineRejectsJoinsAsExecutionError) {
  Db db(&cat_);
  RunOptions run;
  run.engine = QueryEngine::kProgressive;
  QueryHandle handle =
      db.Prepare("SELECT COUNT(*) AS n FROM lineitem "
                 "JOIN orders ON l_orderkey = o_orderkey")
          .Run(run);
  EXPECT_THROW(handle.Final(), Error);
  EXPECT_TRUE(handle.done());
}

TEST_F(DbTest, PreparedFromPlanMatchesHandBuiltExecution) {
  Db db(&cat_);
  PreparedQuery q = db.Prepare(tpch::Query(3));
  ExactEngine exact(&cat_);
  std::string diff;
  EXPECT_TRUE(q.Execute().ApproxEquals(exact.Execute(tpch::Query(3).node()),
                                       1e-9, &diff))
      << diff;
}

TEST_F(DbTest, WithCiReportsVariances) {
  Db db(&cat_);
  RunOptions run;
  run.with_ci = true;
  bool saw_variances = false;
  run.on_state = [&](const OlaState& s) {
    saw_variances |= s.variances != nullptr && !s.variances->empty();
  };
  db.Prepare(tpch::Query(14)).Run(run).Wait();
  EXPECT_TRUE(saw_variances);
}

// --- concurrency -----------------------------------------------------------

TEST_F(DbTest, ReusingOnePreparedQueryGivesIdenticalResults) {
  Db db(&cat_);
  PreparedQuery q = db.Prepare(kShipmodeSql);
  DataFrame first = q.Execute();
  DataFrame second = q.Execute();
  std::string diff;
  EXPECT_TRUE(first.ApproxEquals(second, 0.0, &diff)) << diff;
}

TEST_F(DbTest, ConcurrentHandlesOverOneDbMatchSerialRuns) {
  Db db(&cat_);
  const int kQueries[] = {1, 3, 6, 12};
  std::vector<PreparedQuery> prepared;
  for (int q : kQueries) prepared.push_back(db.Prepare(tpch::QuerySql(q)));

  // Serial baselines first.
  std::vector<DataFrame> serial;
  for (const auto& p : prepared) serial.push_back(p.Execute());

  // Then everything in flight at once, sharing the Db pool.
  std::vector<QueryHandle> handles;
  for (const auto& p : prepared) handles.push_back(p.Run());
  for (size_t i = 0; i < handles.size(); ++i) {
    std::string diff;
    EXPECT_TRUE(handles[i].Final().ApproxEquals(serial[i], 0.0, &diff))
        << "Q" << kQueries[i] << ": " << diff;
  }
}

TEST_F(DbTest, ConcurrentMixedEnginesShareOneDb) {
  Db db(&cat_);
  PreparedQuery q = db.Prepare(kShipmodeSql);
  QueryHandle ola = q.Run();
  RunOptions exact_run;
  exact_run.engine = QueryEngine::kExact;
  QueryHandle exact = q.Run(exact_run);
  std::string diff;
  EXPECT_TRUE(ola.Final().ApproxEquals(exact.Final(), 1e-9, &diff)) << diff;
}

}  // namespace
}  // namespace wake
