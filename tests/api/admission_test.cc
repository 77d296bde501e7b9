// Admission control and session-wide memory limits through wake::Db:
// FIFO queueing behind max_concurrent_queries, synchronous kQueueFull
// rejection, admission timeouts, cancel-while-queued, and the
// total_memory_limit shared across concurrent queries. Runs under the
// TSAN CI config.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <vector>

#include "api/db.h"
#include "common/error.h"
#include "engine/tpch_fixture.h"
#include "tpch/queries_sql.h"

namespace wake {
namespace {

class AdmissionTest : public ::testing::Test {
 protected:
  const Catalog& cat_ = testing::SharedTpch();
};

TEST_F(AdmissionTest, QueriesBeyondTheLimitQueueAndComplete) {
  DbOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queued = 4;
  Db db(&cat_);
  Db gated(&cat_, opts);
  PreparedQuery q = gated.Prepare(tpch::QuerySql(6));
  DataFrame expected = db.Prepare(tpch::QuerySql(6)).Execute();
  // Three runs through one slot: all must complete with the exact result.
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 3; ++i) handles.push_back(q.Run());
  for (auto& h : handles) {
    std::string diff;
    EXPECT_TRUE(h.Final().ApproxEquals(expected, 0.0, &diff)) << diff;
  }
}

TEST_F(AdmissionTest, FullQueueRejectsRunSynchronously) {
  DbOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queued = 1;
  Db db(&cat_, opts);
  PreparedQuery q = db.Prepare(tpch::QuerySql(6));
  // A bare ticket takes the only slot for as long as the test holds it.
  AdmissionController::TicketPtr slot = db.admission()->Submit();
  QueryHandle queued = q.Run();  // fills the queue
  try {
    QueryHandle rejected = q.Run();
    FAIL() << "expected kQueueFull";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kQueueFull);
  }
  queued.Cancel();
  queued.Wait();
  db.admission()->Release(slot);
}

TEST_F(AdmissionTest, AdmissionTimeoutFailsTheQueuedRun) {
  DbOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queued = 4;
  Db db(&cat_, opts);
  // Hold the only slot with a bare ticket — deterministic, unlike a
  // blocker query that may finish before the timeout fires.
  AdmissionController::TicketPtr slot = db.admission()->Submit();
  RunOptions run;
  run.admission_timeout_ms = 30;
  QueryHandle waiting = db.Prepare(tpch::QuerySql(6)).Run(run);
  try {
    waiting.Final();
    FAIL() << "expected kAdmissionTimeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kAdmissionTimeout);
  }
  db.admission()->Release(slot);
}

TEST_F(AdmissionTest, CancelWhileQueuedDequeuesImmediately) {
  DbOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queued = 4;
  Db db(&cat_, opts);
  // A run holds the only slot until the test opens the latch: its state
  // callback blocks the thread that runs the query.
  std::promise<void> unopened;
  std::shared_future<void> opened = unopened.get_future().share();
  RunOptions blocked;
  blocked.on_state = [opened](const OlaState&) { opened.wait(); };
  QueryHandle running = db.Prepare(tpch::QuerySql(6)).Run(blocked);
  // Declared after `running`, so an early exit destroys the promise first,
  // which opens the latch (broken promise) before ~QueryHandle joins.
  std::promise<void> latch = std::move(unopened);
  QueryHandle queued = db.Prepare(tpch::QuerySql(6)).Run();
  queued.Cancel();
  queued.Wait();  // returns without waiting for the slot
  EXPECT_TRUE(queued.done());
  EXPECT_THROW(queued.Final(), Error);
  // The freed queue entry is reusable while the running query holds the
  // slot.
  QueryHandle next = db.Prepare(tpch::QuerySql(6)).Run();
  running.Cancel();
  latch.set_value();
  running.Wait();
  EXPECT_GT(next.Final().num_rows(), 0u);
}

TEST_F(AdmissionTest, QueuedRunsAdmitInFifoOrder) {
  DbOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queued = 8;
  Db db(&cat_, opts);
  // The blocker holds the only slot until the test opens the latch (see
  // CancelWhileQueuedDequeuesImmediately).
  std::promise<void> unopened;
  std::shared_future<void> opened = unopened.get_future().share();
  RunOptions blocked;
  blocked.on_state = [opened](const OlaState&) { opened.wait(); };
  QueryHandle blocker = db.Prepare(tpch::QuerySql(6)).Run(blocked);
  std::promise<void> latch = std::move(unopened);

  std::mutex order_mu;
  std::vector<int> order;
  PreparedQuery q = db.Prepare(tpch::QuerySql(6));
  std::vector<QueryHandle> waiters;
  for (int i = 0; i < 3; ++i) {
    RunOptions run;
    run.on_state = [i, &order_mu, &order](const OlaState& s) {
      if (s.is_final) {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(i);
      }
    };
    waiters.push_back(q.Run(run));
  }
  blocker.Cancel();  // free the slot, start the cascade
  latch.set_value();
  for (auto& h : waiters) h.Wait();
  blocker.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));  // Run() order
}

TEST_F(AdmissionTest, DestroyingAQueuedHandleReleasesItsEntry) {
  DbOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_queued = 1;
  Db db(&cat_, opts);
  AdmissionController::TicketPtr slot = db.admission()->Submit();
  {
    QueryHandle queued = db.Prepare(tpch::QuerySql(6)).Run();
    (void)queued;
  }  // destructor cancels the queued run and joins its driver
  // Queue slot free again: the next run queues instead of kQueueFull.
  QueryHandle next = db.Prepare(tpch::QuerySql(6)).Run();
  db.admission()->Release(slot);
  EXPECT_GT(next.Final().num_rows(), 0u);
}

TEST_F(AdmissionTest, SessionMemoryLimitBreachesTheOffendingQuery) {
  DbOptions opts;
  opts.total_memory_limit_bytes = 16 * 1024;  // below one query's partials
  Db db(&cat_, opts);
  // No per-query budget: the session limit alone governs the run.
  QueryHandle handle = db.Prepare(tpch::QuerySql(3)).Run();
  QueryResult result = handle.Result();
  EXPECT_EQ(result.status, ResultStatus::kPartialBudget);
  EXPECT_EQ(result.breach, BreachReason::kSessionMemory);
  // The session meter settles back to zero after the run released.
  EXPECT_EQ(db.session_tracker()->used_bytes(), 0u);
}

TEST_F(AdmissionTest, SessionLimitOutlivesDegradedRuns) {
  // Repeated breaches must not leak session budget (Release settles the
  // outstanding balance each time).
  DbOptions opts;
  opts.total_memory_limit_bytes = 16 * 1024;
  Db db(&cat_, opts);
  for (int i = 0; i < 3; ++i) {
    QueryResult r = db.Prepare(tpch::QuerySql(3)).Run().Result();
    EXPECT_EQ(r.status, ResultStatus::kPartialBudget);
  }
  EXPECT_EQ(db.session_tracker()->used_bytes(), 0u);
}

}  // namespace
}  // namespace wake
