// wake::Db — the unified session API over every engine in this repo.
//
// Before this facade existed, callers hand-wired parse -> optimize ->
// compile against three disjoint blocking entry points (WakeEngine +
// callback, ExactEngine, ProgressiveOla). Db collapses them into the
// session shape a progressive middleware exposes to clients
// (ProgressiveDB, Berg et al., VLDB'19): prepared statements, a
// pull-based stream of converging states, cancellation, and concurrent
// execution over one shared worker pool.
//
//   Db db(&catalog);
//   PreparedQuery q = db.Prepare(
//       "SELECT l_shipmode, SUM(l_quantity) AS qty "
//       "FROM lineitem GROUP BY l_shipmode");      // parse + optimize once
//   QueryHandle h = q.Run();                       // non-blocking
//   while (auto s = h.Next()) {                    // pull converging states
//     render(*s->frame, s->progress);
//   }
//   DataFrame exact = h.Final();                   // the exact answer
//
// Engine selection is per run: RunOptions::engine picks the Wake OLA
// engine (kOla, streaming states), the blocking exact baseline (kExact,
// one final state), or the ProgressiveDB-style middleware baseline
// (kProgressive, single-table re-execution). Results through this API are
// byte-identical to driving the underlying engines directly, at any
// worker count.
//
// Threading / lifetime contract (details in src/api/README.md):
//  - Db is immutable after construction and safe to share across threads;
//    any number of QueryHandles may run concurrently against one Db, all
//    sharing its worker pool.
//  - PreparedQuery is an immutable value (copyable); Run() may be called
//    repeatedly and concurrently. Db must outlive its PreparedQuerys and
//    QueryHandles.
//  - QueryHandle owns the running query. Next()/Wait()/Final() may be
//    called from any one consumer thread; Cancel() from any thread.
//    Destroying a handle cancels the query (if still running) and joins
//    every thread it spawned — no detached work survives a handle.
//  - Cancel() is cooperative: node threads unwind at the next partial /
//    chunk / operator boundary, so shutdown latency is bounded by one
//    unit of work, never by the rest of the query.
#ifndef WAKE_API_DB_H_
#define WAKE_API_DB_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/resource.h"
#include "core/engine.h"
#include "plan/plan.h"
#include "storage/partitioned_table.h"

namespace wake {

class Db;
class PreparedQuery;

/// Which engine executes a prepared query (RunOptions::engine).
enum class QueryEngine : uint8_t {
  kOla,          // Wake pipelined OLA: streaming converging states
  kExact,        // blocking exact baseline: one final state
  kProgressive,  // ProgressiveDB-style middleware (single-table plans)
};

/// Session-wide configuration.
struct DbOptions {
  /// Worker pool shared by all queries of this Db, which runs their
  /// join-probe morsels: 0 = the process-wide pool (WAKE_WORKERS, default
  /// hardware concurrency), N = a Db-owned pool of N workers, where 1
  /// spawns no thread and runs every probe inline. Results are
  /// byte-identical across settings.
  size_t workers = 0;
  /// Admission control: at most this many queries execute at once; excess
  /// runs queue FIFO. 0 = unlimited (no admission gate).
  size_t max_concurrent_queries = 0;
  /// Queue depth behind the admission gate. A Run() that finds the queue
  /// at capacity throws wake::Error(kQueueFull) synchronously. Only
  /// meaningful when max_concurrent_queries > 0; 0 = reject immediately
  /// when every slot is busy.
  size_t max_queued = 16;
  /// Session-wide memory budget shared by every concurrent query's
  /// tracker. A query whose charge tips the session over the limit
  /// breaches with BreachReason::kSessionMemory (its own RunOptions
  /// breach policy decides degrade vs fail). 0 = unlimited.
  size_t total_memory_limit_bytes = 0;
};

/// What to do when a running query crosses its budget
/// (RunOptions::on_breach).
enum class OnBreach : uint8_t {
  /// Stop requesting more data, drain in-flight partials, and return the
  /// last converging snapshot as a ResultStatus::kPartialBudget result —
  /// estimate semantics, CI included. This is what makes a budgeted OLA
  /// query *degrade* instead of fail; the blocking exact engine cannot
  /// degrade (there is no partial to return) and fails regardless.
  kDegrade,
  /// Cancel the run and surface wake::Error(kResourceExhausted).
  kFail,
};

/// How a finished run's result should be interpreted.
enum class ResultStatus : uint8_t {
  kFinal,          // exact answer over the full input
  kPartialBudget,  // budget breach: last estimate over a prefix of the data
};

/// Terminal result with provenance (QueryHandle::Result()).
struct QueryResult {
  DataFramePtr frame;
  ResultStatus status = ResultStatus::kFinal;
  /// Which limit ended the run early (kNone when status == kFinal).
  BreachReason breach = BreachReason::kNone;
  /// Fraction of the base-table input processed when the run ended; 1.0
  /// for kFinal results.
  double progress = 1.0;
  /// Per-column variances of the snapshot (CI runs on refresh roots).
  std::shared_ptr<const VarianceMap> variances;
};

/// Per-run configuration.
struct RunOptions {
  QueryEngine engine = QueryEngine::kOla;
  /// Propagate variances and report them with refresh-mode states
  /// (kOla only).
  bool with_ci = false;
  /// Optional push subscription: invoked on the handle's driver thread
  /// for every state (including the final one). Pull via Next() and the
  /// callback can be used together; both see every state.
  StateCallback on_state;

  // -- Resource budget (zero = unlimited) --------------------------------
  /// Cap on materialized bytes attributed to this query: queued partials,
  /// join build tables, aggregation accumulators (approximate, see
  /// common/resource.h).
  size_t memory_limit_bytes = 0;
  /// Wall-clock deadline, measured from Run() — time spent waiting in the
  /// admission queue counts against it.
  int64_t timeout_ms = 0;
  /// Cap on base-table rows read across all scans of the run.
  size_t max_rows_scanned = 0;
  /// Breach policy. kDegrade (default) turns a breached OLA/progressive
  /// run into a kPartialBudget result; kFail cancels and raises
  /// kResourceExhausted. kExact runs fail on breach under either policy.
  OnBreach on_breach = OnBreach::kDegrade;

  /// Cap on snapshots buffered in the handle's pull stream. When the
  /// consumer falls behind, the *oldest* queued snapshot is dropped —
  /// snapshots are cumulative, so Next() skips ahead to fresher estimates
  /// and Final()/Wait()-only consumers cost O(cap) memory instead of one
  /// frame per emitted state. 0 = unbounded (every state delivered).
  size_t max_buffered_states = 0;

  /// How long Run() may wait in the admission queue before failing with
  /// wake::Error(kAdmissionTimeout). 0 = wait indefinitely. Only
  /// meaningful on a Db with max_concurrent_queries > 0.
  int64_t admission_timeout_ms = 0;
};

/// A live, possibly still running query. Move-only RAII handle: the
/// destructor cancels (if needed) and joins everything.
class QueryHandle {
 public:
  ~QueryHandle();
  QueryHandle(QueryHandle&&) noexcept;
  QueryHandle& operator=(QueryHandle&&) = delete;

  /// Pulls the next state, blocking until one arrives or the stream ends.
  /// Returns std::nullopt once no more states will arrive (completion,
  /// cancellation, or error). States arrive in order; the last state of a
  /// successful run has is_final = true.
  std::optional<OlaState> Next();

  /// Like Next() but waits at most `timeout`; std::nullopt also means
  /// timeout — check done() to tell the stream apart from a slow query.
  std::optional<OlaState> Next(std::chrono::milliseconds timeout);

  /// Requests cooperative cancellation. Non-blocking, idempotent, safe
  /// from any thread. A cancel that races normal completion is a no-op
  /// (the final result stays available).
  void Cancel();

  /// Blocks until the query is finished (final state, cancelled, or
  /// failed) and every thread of the run is joined. Does not throw.
  void Wait();

  /// Wait(), then return the final result frame. For a budgeted run that
  /// breached under OnBreach::kDegrade this is the last emitted snapshot
  /// (use Result() to see the status and breach reason). Throws the
  /// query's error if it failed, or wake::Error(kCancelled) if it was
  /// cancelled before producing a final state.
  DataFrame Final();

  /// Wait(), then return the terminal result with provenance: the frame
  /// plus whether it is exact (kFinal) or a budget-breach estimate
  /// (kPartialBudget, with breach reason and fraction of data processed).
  /// Throws under exactly the same conditions as Final().
  QueryResult Result();

  /// True once the run is finished and its threads are joined or
  /// joinable without blocking (final, cancelled, or failed).
  bool done() const;

  /// True once Cancel() has been requested.
  bool cancelled() const;

 private:
  friend class PreparedQuery;
  struct Impl;
  explicit QueryHandle(std::shared_ptr<Impl> impl);
  std::shared_ptr<Impl> impl_;
};

/// A parsed, optimized, reusable query. Cheap to copy (shares the plan).
class PreparedQuery {
 public:
  /// Starts a run and returns immediately. Any number of runs of the
  /// same PreparedQuery may be in flight at once.
  QueryHandle Run(RunOptions options = {}) const;

  /// Blocking convenience: Run(options).Final().
  DataFrame Execute(RunOptions options = {}) const;

  /// The optimized plan, rendered for humans.
  std::string Explain() const;

  /// Output schema of the query result.
  const Schema& schema() const { return schema_; }

  const Plan& plan() const { return plan_; }

  /// Original SQL text (empty when prepared from a Plan).
  const std::string& sql() const { return sql_; }

 private:
  friend class Db;
  PreparedQuery(const Db* db, std::string sql, Plan plan, Schema schema)
      : db_(db),
        sql_(std::move(sql)),
        plan_(std::move(plan)),
        schema_(std::move(schema)) {}

  const Db* db_;
  std::string sql_;
  Plan plan_;
  Schema schema_;
};

/// One incrementally maintained snapshot of a standing query.
struct SubscriptionState {
  /// Live-table epoch the snapshot covers. A state at epoch E is
  /// byte-identical to a from-scratch exact query over exactly the
  /// tablet set of that epoch's snapshot.
  uint64_t epoch = 0;
  /// Global row watermark: the snapshot aggregates exactly the live
  /// table's rows below this index (minus any pre-subscription evicted
  /// prefix).
  uint64_t rows_covered = 0;
  DataFramePtr frame;
};

/// A standing query over a live table (Db::Subscribe): a long-lived
/// handle whose result is maintained *incrementally*. Each Refresh()
/// takes one consistent live-table snapshot, folds only the rows
/// appended since the previous refresh into a persistent aggregate
/// state (the same ⊕ contract OLA partials merge through), finalizes,
/// and emits an epoch-stamped state — old tablets are never re-scanned
/// and per-snapshot cost is O(delta + groups), not O(data).
///
/// Supported plan shape: an optional Map/SortLimit chain over one
/// aggregate whose input is a Filter/Map chain over a single scan of a
/// live table; anything else is rejected at Subscribe with kPlan.
///
/// The owner advances it: a subscription runs no thread of its own, and
/// its state moves only when Refresh() is called. Refresh()/Current()
/// are safe from any thread. If retention evicts rows the subscription
/// has not folded yet, Refresh() throws kResourceExhausted (the
/// incremental state can no longer be made consistent) — size
/// retain_tablets to outlast the refresh cadence.
class Subscription {
 public:
  ~Subscription();
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  /// Folds rows appended since the last refresh and emits a new state.
  /// Returns std::nullopt when the live table is unchanged.
  std::optional<SubscriptionState> Refresh();

  /// Latest emitted state (frame is null before the first Refresh()).
  SubscriptionState Current() const;

  /// Output schema of emitted frames.
  const Schema& schema() const;

 private:
  friend class Db;
  struct Impl;
  explicit Subscription(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// A database session: catalog + worker pool + prepared queries.
class Db {
 public:
  explicit Db(const Catalog* catalog, DbOptions options = {});
  ~Db();

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  /// Parses and optimizes `sql` once. Errors carry a category: kParse
  /// (with position) for rejected SQL, kPlan for validation failures.
  PreparedQuery Prepare(const std::string& sql) const;

  /// Prepares (optimizes and validates) a programmatically built plan.
  PreparedQuery Prepare(const Plan& plan) const;

  /// Registers a standing query over a live table (see Subscription),
  /// preparing it once. Throws kPlan if the plan shape is unsupported or
  /// the scanned table is not dynamic. The Db must outlive the returned
  /// handle.
  std::unique_ptr<Subscription> Subscribe(const std::string& sql) const;
  std::unique_ptr<Subscription> Subscribe(const Plan& plan) const;

  const Catalog& catalog() const { return *catalog_; }
  const DbOptions& options() const { return options_; }

  /// The shared worker pool (never null).
  WorkerPool* pool() const { return pool_; }

  /// Admission gate (null when max_concurrent_queries == 0).
  AdmissionController* admission() const { return admission_.get(); }

  /// Session-wide memory meter (null when total_memory_limit_bytes == 0);
  /// parent of every budgeted query tracker.
  ResourceTracker* session_tracker() const { return session_tracker_.get(); }

 private:
  PreparedQuery Finish(std::string sql, Plan plan) const;

  const Catalog* catalog_;
  DbOptions options_;
  std::unique_ptr<WorkerPool> owned_pool_;  // when options_.workers > 0
  WorkerPool* pool_ = nullptr;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<ResourceTracker> session_tracker_;
};

}  // namespace wake

#endif  // WAKE_API_DB_H_
