#include "api/db.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "baseline/exact_engine.h"
#include "baseline/progressive_ola.h"
#include "common/channel.h"
#include "common/error.h"
#include "common/stopwatch.h"
#include "plan/optimizer.h"
#include "plan/props.h"
#include "sql/parser.h"

namespace wake {

// ---------------------------------------------------------------------------
// QueryHandle
// ---------------------------------------------------------------------------

/// Shared between the consumer-facing handle and the driver thread. The
/// driver produces states into `states` and publishes its terminal
/// outcome (final frame / error / cancelled) before setting `done`
/// (release); consumers read the outcome only after observing done
/// (acquire) — Wait() additionally joins the driver thread.
struct QueryHandle::Impl {
  // Immutable after Run().
  const Db* db = nullptr;
  PlanNodePtr plan;
  Schema schema;  // pinned result schema (for zero-state partials)
  RunOptions options;

  // The pull stream. Unbounded by default: the driver never blocks on a
  // slow consumer. With RunOptions::max_buffered_states the driver drops
  // the oldest queued snapshot instead of growing — snapshots are
  // cumulative, so the consumer only ever skips ahead.
  Channel<OlaState> states;

  std::atomic<bool> cancel_requested{false};
  std::atomic<bool> done{false};

  // Terminal outcome; written by the driver before done, read after.
  // Exactly one of: final_frame set (success or degraded partial), error
  // set (failure), was_cancelled (cooperative cancel ended the run).
  DataFramePtr final_frame;  // shared with the final OlaState, not copied
  double final_progress = 1.0;
  std::shared_ptr<const VarianceMap> final_variances;
  bool was_cancelled = false;
  std::exception_ptr error;

  // Resource budget. Armed on the caller's thread in Run() (so the
  // deadline covers admission-queue wait); released by the driver after
  // every engine thread is joined.
  ResourceTracker tracker;
  bool budgeted = false;

  // Admission ticket (null on a Db without an admission gate).
  AdmissionController::TicketPtr ticket;

  // Driver-thread bookkeeping for degraded terminals: the last state that
  // was delivered, so a breach that outruns the final snapshot still has
  // an estimate to return.
  OlaState last_state;
  bool got_state = false;

  // kOla machinery: the engine must outlive the run (declared first so
  // the run is destroyed first). Created on the driver thread *after*
  // admission; run_mu orders that creation against Cancel() and the
  // tracker's breach callback, either of which can fire before Start()
  // returns.
  std::unique_ptr<WakeEngine> engine;
  std::mutex run_mu;
  std::unique_ptr<EngineRun> run;

  std::mutex join_mu;  // serializes Wait() callers around the join
  std::thread driver;

  void Drive();
  void RunEngine(Stopwatch& clock, const StateCallback& deliver);
  void SettleBreach(Stopwatch& clock, const StateCallback& deliver);
  void Join();
};

void QueryHandle::Impl::Drive() {
  Stopwatch clock;
  auto deliver = [this](const OlaState& s) {
    if (s.is_final) {
      final_frame = s.frame;
      final_progress = s.progress;
      final_variances = s.variances;
    }
    last_state = s;
    got_state = true;
    if (options.on_state) options.on_state(s);
    if (options.max_buffered_states > 0) {
      while (states.size() >= options.max_buffered_states &&
             states.TryReceive()) {
      }
    }
    states.Send(s);
  };
  bool admitted = (ticket == nullptr);  // no gate = always admitted
  try {
    if (ticket != nullptr) {
      switch (db->admission()->Await(ticket, options.admission_timeout_ms)) {
        case AdmissionController::Outcome::kAdmitted:
          admitted = true;
          break;
        case AdmissionController::Outcome::kCancelled:
          was_cancelled = true;
          break;
        case AdmissionController::Outcome::kTimedOut:
          throw Error("query timed out waiting for admission",
                      ErrorCategory::kAdmissionTimeout);
      }
    }
    if (admitted) {
      if (cancel_requested.load(std::memory_order_relaxed)) {
        was_cancelled = true;
      } else {
        RunEngine(clock, deliver);
      }
    }
  } catch (const Error& e) {
    if (e.category() == ErrorCategory::kCancelled) {
      was_cancelled = true;
    } else {
      error = std::current_exception();
    }
  } catch (...) {
    error = std::current_exception();
  }
  try {
    SettleBreach(clock, deliver);
  } catch (...) {
    // deliver() runs user code and a channel send (itself a failpoint
    // site); a throw here must not unwind the driver thread.
    if (error == nullptr) error = std::current_exception();
  }
  if (admitted && ticket != nullptr) db->admission()->Release(ticket);
  // Every engine thread is joined by now (Collect joins before returning;
  // the blocking baselines have none): settle the session balance.
  if (budgeted) tracker.Release();
  // Publish the outcome before ending the stream, so a consumer that
  // observes end-of-stream from Next() always sees done() == true.
  done.store(true, std::memory_order_release);
  states.Close();  // ends the pull stream; queued states stay receivable
}

void QueryHandle::Impl::RunEngine(Stopwatch& clock,
                                  const StateCallback& deliver) {
  switch (options.engine) {
    case QueryEngine::kOla: {
      WakeOptions wopts;
      wopts.with_ci = options.with_ci;
      wopts.pool = db->pool();
      wopts.tracker = budgeted ? &tracker : nullptr;
      engine = std::make_unique<WakeEngine>(&db->catalog(), wopts);
      if (budgeted) {
        // Breach policy as the tracker's one-shot callback. It can fire
        // before Start() returns (e.g. a deadline that expired in the
        // admission queue), which is why it locks run_mu and why the
        // creation block below re-checks the latched state.
        if (options.on_breach == OnBreach::kDegrade) {
          tracker.set_on_breach([this] {
            std::lock_guard<std::mutex> lock(run_mu);
            if (run != nullptr) run->DegradeStop();
          });
        } else {
          tracker.set_on_breach([this] {
            std::lock_guard<std::mutex> lock(run_mu);
            if (run != nullptr) run->Cancel();
          });
        }
      }
      {
        std::lock_guard<std::mutex> lock(run_mu);
        run = engine->Start(plan);
        if (cancel_requested.load(std::memory_order_relaxed)) {
          run->Cancel();
        } else if (budgeted && tracker.breached()) {
          // The callback fired while `run` was still null.
          if (options.on_breach == OnBreach::kDegrade) {
            run->DegradeStop();
          } else {
            run->Cancel();
          }
        }
      }
      run->Collect(deliver);
      if (final_frame == nullptr) {
        // No final state: either a user cancel or a kFail breach stop
        // (SettleBreach turns the latter into kResourceExhausted).
        bool breach_stop = budgeted && tracker.breached() &&
                           !cancel_requested.load(std::memory_order_relaxed);
        if (!breach_stop) was_cancelled = run->cancelled();
      }
      break;
    }
    case QueryEngine::kExact: {
      ExactEngine exact(&db->catalog());
      exact.set_cancel_token(&cancel_requested);
      if (budgeted) exact.set_tracker(&tracker);
      DataFrame out = exact.Execute(plan);
      OlaState state;
      state.frame = std::make_shared<DataFrame>(std::move(out));
      state.progress = 1.0;
      state.is_final = true;
      state.elapsed_seconds = clock.ElapsedSeconds();
      deliver(state);
      break;
    }
    case QueryEngine::kProgressive: {
      ProgressiveOla progressive(&db->catalog());
      progressive.Execute(plan, deliver, &cancel_requested,
                          budgeted ? &tracker : nullptr);
      break;
    }
  }
}

void QueryHandle::Impl::SettleBreach(Stopwatch& clock,
                                     const StateCallback& deliver) {
  if (error != nullptr || was_cancelled) return;
  if (!budgeted || !tracker.breached()) return;
  if (options.on_breach == OnBreach::kFail) {
    // A final frame that raced the breach is still the exact answer;
    // otherwise the stop was budget-driven — fail as asked.
    if (final_frame == nullptr) {
      error = std::make_exception_ptr(
          Error("query exceeded its budget: " + tracker.BreachMessage(),
                ErrorCategory::kResourceExhausted));
    }
    return;
  }
  // kDegrade: guarantee a terminal snapshot even when the breach outran
  // the first state (empty frame, schema intact, progress 0).
  if (final_frame == nullptr) {
    OlaState state;
    state.frame = got_state ? last_state.frame
                            : std::make_shared<DataFrame>(schema);
    state.progress = got_state ? last_state.progress : 0.0;
    state.is_final = true;
    state.elapsed_seconds = clock.ElapsedSeconds();
    state.variances = got_state ? last_state.variances : nullptr;
    deliver(state);
  }
}

void QueryHandle::Impl::Join() {
  std::lock_guard<std::mutex> lock(join_mu);
  if (driver.joinable()) driver.join();
}

QueryHandle::QueryHandle(std::shared_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

QueryHandle::QueryHandle(QueryHandle&&) noexcept = default;

QueryHandle::~QueryHandle() {
  if (impl_ == nullptr) return;  // moved-from
  if (!impl_->done.load(std::memory_order_acquire)) Cancel();
  impl_->Join();
}

std::optional<OlaState> QueryHandle::Next() {
  if (impl_ == nullptr) return std::nullopt;  // moved-from
  return impl_->states.Receive();
}

std::optional<OlaState> QueryHandle::Next(std::chrono::milliseconds timeout) {
  if (impl_ == nullptr) return std::nullopt;  // moved-from
  return impl_->states.ReceiveFor(timeout);
}

void QueryHandle::Cancel() {
  if (impl_ == nullptr) return;  // moved-from
  impl_->cancel_requested.store(true, std::memory_order_relaxed);
  // A still-queued run dequeues immediately; an admitted one cancels
  // normally and frees its slot when the driver finishes.
  if (impl_->ticket != nullptr) impl_->db->admission()->Cancel(impl_->ticket);
  // kExact / kProgressive poll the flag; the OLA graph needs its channels
  // cancelled so blocked node threads unwind. run_mu orders this against
  // the driver still creating the run — Run()-then-Cancel() before the
  // engine even started must still stop the query (the driver re-checks
  // the flag after Start()).
  std::lock_guard<std::mutex> lock(impl_->run_mu);
  if (impl_->run != nullptr) impl_->run->Cancel();
}

void QueryHandle::Wait() {
  if (impl_ == nullptr) return;  // moved-from
  impl_->Join();
}

DataFrame QueryHandle::Final() {
  CheckArg(impl_ != nullptr, "Final() on a moved-from QueryHandle");
  Wait();
  if (impl_->error != nullptr) std::rethrow_exception(impl_->error);
  if (impl_->final_frame != nullptr) return *impl_->final_frame;
  if (impl_->was_cancelled) {
    throw Error("query cancelled before completion",
                ErrorCategory::kCancelled);
  }
  // No error, no cancel, no final state: the engine's stream ended dry
  // (e.g. the progressive baseline over a zero-partition table).
  throw Error("query produced no final state");
}

QueryResult QueryHandle::Result() {
  CheckArg(impl_ != nullptr, "Result() on a moved-from QueryHandle");
  Wait();
  if (impl_->error != nullptr) std::rethrow_exception(impl_->error);
  if (impl_->final_frame == nullptr) {
    if (impl_->was_cancelled) {
      throw Error("query cancelled before completion",
                  ErrorCategory::kCancelled);
    }
    throw Error("query produced no final state");
  }
  QueryResult result;
  result.frame = impl_->final_frame;
  result.progress = impl_->final_progress;
  result.variances = impl_->final_variances;
  // A breach that loses the race to natural completion changed nothing:
  // the frame covers 100% of the data, so it is the exact answer.
  if (impl_->budgeted && impl_->tracker.breached() &&
      impl_->final_progress < 1.0) {
    result.status = ResultStatus::kPartialBudget;
    result.breach = impl_->tracker.reason();
  }
  return result;
}

bool QueryHandle::done() const {
  if (impl_ == nullptr) return true;  // moved-from: nothing left to run
  return impl_->done.load(std::memory_order_acquire);
}

bool QueryHandle::cancelled() const {
  if (impl_ == nullptr) return false;  // moved-from
  return impl_->cancel_requested.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

QueryHandle PreparedQuery::Run(RunOptions options) const {
  auto impl = std::make_shared<QueryHandle::Impl>();
  impl->db = db_;
  impl->plan = plan_.node();
  impl->schema = schema_;
  impl->options = std::move(options);
  // Arm the budget on the caller's thread: the deadline runs from Run(),
  // so time spent in the admission queue counts against it.
  const RunOptions& ro = impl->options;
  impl->budgeted = ro.memory_limit_bytes > 0 || ro.timeout_ms > 0 ||
                   ro.max_rows_scanned > 0 ||
                   db_->session_tracker() != nullptr;
  if (impl->budgeted) {
    QueryBudget budget;
    budget.memory_limit_bytes = ro.memory_limit_bytes;
    budget.timeout_ms = ro.timeout_ms;
    budget.max_rows_scanned = ro.max_rows_scanned;
    impl->tracker.Arm(budget, db_->session_tracker());
  }
  // Admission gate: a full queue rejects synchronously, on this thread.
  // The engine itself starts on the driver thread, after admission —
  // a queued query holds no node threads and no engine state.
  if (db_->admission() != nullptr) impl->ticket = db_->admission()->Submit();
  impl->driver = std::thread([impl] { impl->Drive(); });
  return QueryHandle(std::move(impl));
}

DataFrame PreparedQuery::Execute(RunOptions options) const {
  // Only the final is read: the pull stream keeps one state, not all.
  if (options.max_buffered_states == 0) options.max_buffered_states = 1;
  return Run(std::move(options)).Final();
}

std::string PreparedQuery::Explain() const {
  return PlanToString(plan_.node());
}

// ---------------------------------------------------------------------------
// Db
// ---------------------------------------------------------------------------

Db::Db(const Catalog* catalog, DbOptions options)
    : catalog_(catalog), options_(options) {
  CheckArg(catalog != nullptr, "null catalog");
  if (options_.workers == 0) {
    pool_ = &WorkerPool::Global();
  } else {
    owned_pool_ = std::make_unique<WorkerPool>(options_.workers);
    pool_ = owned_pool_.get();
  }
  if (options_.max_concurrent_queries > 0) {
    admission_ = std::make_unique<AdmissionController>(
        options_.max_concurrent_queries, options_.max_queued);
  }
  if (options_.total_memory_limit_bytes > 0) {
    session_tracker_ = std::make_unique<ResourceTracker>();
    session_tracker_->ArmSessionLimit(options_.total_memory_limit_bytes);
  }
}

Db::~Db() = default;

PreparedQuery Db::Prepare(const std::string& sql) const {
  return Finish(sql, sql::Parse(sql));
}

PreparedQuery Db::Prepare(const Plan& plan) const {
  CheckPlan(plan.node() != nullptr, "Prepare on empty plan");
  return Finish("", plan);
}

PreparedQuery Db::Finish(std::string sql, Plan plan) const {
  Schema schema;
  try {
    plan = Optimize(plan, *catalog_);
    // Pin the result schema (Optimize() has validated the plan, so
    // errors surface at Prepare, not mid-run).
    schema = InferProps(plan.node(), *catalog_).schema;
  } catch (const Error& e) {
    // Validation reuses frame/schema helpers whose throws default to
    // kExecution; at Prepare time they are plan errors by definition.
    if (e.category() == ErrorCategory::kExecution) {
      throw Error(e.what(), ErrorCategory::kPlan);
    }
    throw;
  }
  return PreparedQuery(this, std::move(sql), std::move(plan),
                       std::move(schema));
}

}  // namespace wake
