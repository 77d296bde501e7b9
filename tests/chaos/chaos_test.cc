// Chaos suite: concurrent TPC-H queries under injected faults.
//
// Built in every configuration, but the engine-level failpoint sites are
// only compiled in with -DWAKE_FAILPOINTS=ON — without it every test
// skips (the registry exists, the sites don't). The CI `build-failpoints`
// job runs this binary under ASAN with WAKE_CHAOS_ITERS=100.
//
// Invariants under fault injection:
//   - no hang: every handle reaches done() and its state stream ends;
//   - every handle terminates in exactly ONE of {final, partial-budget,
//     categorized error, cancelled};
//   - transient reader faults are absorbed by the readers' bounded retry
//     and leave the result exact;
//   - persistent faults surface as categorized wake::Error, never as a
//     crash, terminate(), or torn state.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/db.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "engine/tpch_fixture.h"
#include "tpch/queries_sql.h"

namespace wake {
namespace {

bool FailpointsCompiledIn() {
#ifdef WAKE_FAILPOINTS
  return true;
#else
  return false;
#endif
}

int ChaosIterations() {
  if (const char* env = std::getenv("WAKE_CHAOS_ITERS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 20;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FailpointsCompiledIn()) {
      GTEST_SKIP() << "built without WAKE_FAILPOINTS; no sites to fire";
    }
    failpoint::Reset();
  }
  void TearDown() override { failpoint::Reset(); }

  const Catalog& cat_ = testing::SharedTpch();
};

// Every way a handle may end. Exactly one must apply.
enum class Terminal { kFinal, kPartialBudget, kError, kCancelled };

Terminal Classify(QueryHandle& handle) {
  try {
    QueryResult result = handle.Result();
    return result.status == ResultStatus::kPartialBudget
               ? Terminal::kPartialBudget
               : Terminal::kFinal;
  } catch (const Error& e) {
    // Every fault-path throw is a categorized wake::Error; anything else
    // (std::exception, terminate) fails the test harness outright.
    return e.category() == ErrorCategory::kCancelled ? Terminal::kCancelled
                                                     : Terminal::kError;
  }
}

TEST_F(ChaosTest, TransientReaderFaultsAreAbsorbedByRetry) {
  // Two injected failures, three attempts per partition: the first
  // partition eats both faults in its retry loop, and the query's answer
  // stays exact.
  failpoint::Configure("reader.read_batch", "error(1.0)*2");
  Db db(&cat_);
  PreparedQuery q = db.Prepare(tpch::QuerySql(6));
  DataFrame got = q.Run().Final();
  EXPECT_EQ(failpoint::Hits("reader.read_batch"), 2u);
  failpoint::Reset();
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(q.Execute(), 0.0, &diff)) << diff;
}

TEST_F(ChaosTest, PersistentReaderFaultSurfacesCategorizedError) {
  // Uncapped error(1.0): every retry attempt fails, the reader gives up,
  // and the run ends in a categorized error — not a hang and not a
  // partial result presented as final.
  failpoint::Configure("reader.read_batch", "error(1.0)");
  Db db(&cat_);
  QueryHandle handle = db.Prepare(tpch::QuerySql(6)).Run();
  try {
    handle.Final();
    FAIL() << "expected the injected fault to surface";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kExecution);
    EXPECT_NE(std::string(e.what()).find("failpoint"), std::string::npos);
  }
  EXPECT_TRUE(handle.done());
  // The state stream terminates too.
  while (handle.Next(std::chrono::milliseconds(100))) {
  }
}

TEST_F(ChaosTest, JoinBuildFaultPropagatesThroughTheGraph) {
  // Fault a non-source operator: the node thread unwinds, the graph
  // cancels, and the consumer sees one categorized error.
  failpoint::Configure("join.build", "error(1.0)");
  Db db(&cat_);
  QueryHandle handle = db.Prepare(tpch::QuerySql(3)).Run();
  try {
    handle.Final();
    FAIL() << "expected the injected fault to surface";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kExecution);
  }
  EXPECT_TRUE(handle.done());
}

TEST_F(ChaosTest, ChannelDelaysDoNotChangeResults) {
  // Slow every channel send: pure latency, no reordering the merge layer
  // can't absorb — results stay exact.
  failpoint::Configure("channel.send", "delay(1ms)");
  Db db(&cat_);
  PreparedQuery q = db.Prepare(tpch::QuerySql(6));
  DataFrame got = q.Run().Final();
  EXPECT_GT(failpoint::Hits("channel.send"), 0u);
  failpoint::Reset();
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(q.Execute(), 0.0, &diff)) << diff;
}

TEST_F(ChaosTest, WorkerPoolDispatchFaultIsCapturedNotFatal) {
  // The pool runs a join probe's morsel loop only for a probe partial of
  // more than one 16k-row morsel, so the probe side is one 50k-row
  // partition and the Db owns 4 workers. The fault fires inside the
  // loop's first-error capture: the run ends in one categorized error,
  // not a crash or a hang.
  DataFrame fact(Schema({{"id", ValueType::kInt64}, {"k", ValueType::kInt64}}));
  for (int64_t i = 0; i < 50000; ++i) {
    fact.mutable_column(0)->AppendInt(i);
    fact.mutable_column(1)->AppendInt(i % 100);
  }
  DataFrame dim(Schema({{"d", ValueType::kInt64}, {"w", ValueType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) {
    dim.mutable_column(0)->AppendInt(i);
    dim.mutable_column(1)->AppendInt(i * 7);
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("fact", fact, 1)));
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("dim", dim, 1)));
  DbOptions options;
  options.workers = 4;
  Db db(&cat, options);
  PreparedQuery q = db.Prepare("SELECT id, w FROM fact JOIN dim ON k = d");

  failpoint::Configure("worker_pool.dispatch", "error(1.0)");
  QueryHandle handle = q.Run();
  EXPECT_EQ(Classify(handle), Terminal::kError);
  EXPECT_GT(failpoint::Hits("worker_pool.dispatch"), 0u);
  EXPECT_TRUE(handle.done());
}

TEST_F(ChaosTest, SweepConcurrentQueriesUnderRandomFaults) {
  // The main invariant check: iterations of concurrent queries — one
  // plain, one memory-budgeted, one deadline-budgeted, one cancelled
  // mid-flight — under probabilistic reader/join faults. Every handle
  // must terminate, in bounded time, in exactly one legal terminal
  // state. The fault draws are deterministic per (name, draw index), so
  // a failing iteration replays.
  Db db(&cat_);
  PreparedQuery q6 = db.Prepare(tpch::QuerySql(6));
  PreparedQuery q3 = db.Prepare(tpch::QuerySql(3));
  PreparedQuery q1 = db.Prepare(tpch::QuerySql(1));

  const int iters = ChaosIterations();
  int finals = 0, partials = 0, errors = 0, cancels = 0;
  for (int iter = 0; iter < iters; ++iter) {
    failpoint::Reset();
    failpoint::ConfigureFromString(
        "reader.read_batch=error(0.05);join.build=error(0.02);"
        "channel.send=delay(1ms)*8");

    std::vector<QueryHandle> handles;
    handles.push_back(q6.Run());

    RunOptions budgeted;
    budgeted.memory_limit_bytes = 64 * 1024;
    handles.push_back(q3.Run(budgeted));

    RunOptions deadline;
    deadline.timeout_ms = 20;
    handles.push_back(q1.Run(deadline));

    RunOptions doomed;
    doomed.on_breach = OnBreach::kFail;
    doomed.memory_limit_bytes = 32 * 1024;
    handles.push_back(q3.Run(doomed));

    handles.front().Cancel();  // cancel races the faults

    for (auto& handle : handles) {
      handle.Wait();
      ASSERT_TRUE(handle.done()) << "iteration " << iter;
      switch (Classify(handle)) {
        case Terminal::kFinal: ++finals; break;
        case Terminal::kPartialBudget: ++partials; break;
        case Terminal::kError: ++errors; break;
        case Terminal::kCancelled: ++cancels; break;
      }
      // No hang: the pull stream ends for every handle.
      while (handle.Next(std::chrono::milliseconds(100))) {
      }
    }
  }
  // 4 handles per iteration, each counted exactly once.
  EXPECT_EQ(finals + partials + errors + cancels, iters * 4);
  // The budgeted Q3 runs breach on every iteration (64KB is far below
  // its working set), so degraded terminals must actually occur.
  EXPECT_GT(partials + errors, 0);
}

}  // namespace
}  // namespace wake
