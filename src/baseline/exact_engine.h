// Exact all-at-once query engine: the "conventional data system" baseline.
//
// Executes the same logical plans as Wake but in the blocking style of the
// paper's exact baselines (Polars/Presto/Postgres/Vertica/Actian, §8.1):
// every operator fully materializes its input before producing output, and
// no estimates are ever produced. It shares the aggregation and join
// kernels with Wake, so result equality tests isolate exactly the OLA
// machinery.
#ifndef WAKE_BASELINE_EXACT_ENGINE_H_
#define WAKE_BASELINE_EXACT_ENGINE_H_

#include <atomic>

#include "common/resource.h"
#include "plan/plan.h"
#include "storage/partitioned_table.h"

namespace wake {

/// Blocking plan evaluator.
class ExactEngine {
 public:
  explicit ExactEngine(const Catalog* catalog) : catalog_(catalog) {}

  /// Evaluates `plan` to completion and returns the result frame.
  DataFrame Execute(const PlanNodePtr& plan) const;

  /// Evaluates one single-input operator (Map, Filter, Aggregate or
  /// SortLimit) over its materialized input frame; `node.inputs` is not
  /// read. Execute runs every such node through it, and standing queries
  /// (Db::Subscribe) run their delta and aggregate frames through it, so
  /// both give each operator one meaning. Throws wake::Error(kPlan) for
  /// Scan and Join.
  static DataFrame Apply(const PlanNode& node, DataFrame in);

  /// Cooperative cancellation: when set, Eval polls `cancel` at every
  /// operator entry and throws wake::Error(kCancelled) once it reads
  /// true, so cancellation latency is bounded by one operator. The
  /// pointee must outlive every Execute call.
  void set_cancel_token(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Per-query budget enforcement. A blocking engine cannot degrade —
  /// there is no partial result to return — so Eval charges each
  /// materialized intermediate against the tracker and throws
  /// wake::Error(kResourceExhausted) as soon as a charge breaches (memory
  /// or rows-scanned), or at the next operator entry once the deadline
  /// has passed. The pointee must outlive every Execute call; null
  /// disables enforcement.
  void set_tracker(ResourceTracker* tracker) { tracker_ = tracker; }

  /// Approximate peak intermediate size in bytes observed during the last
  /// Execute call (coarse stand-in for resident-set-size tracking, §8.2).
  size_t peak_bytes() const { return peak_bytes_; }

 private:
  DataFrame Eval(const PlanNodePtr& node) const;

  const Catalog* catalog_;
  const std::atomic<bool>* cancel_ = nullptr;
  ResourceTracker* tracker_ = nullptr;
  mutable size_t peak_bytes_ = 0;
};

}  // namespace wake

#endif  // WAKE_BASELINE_EXACT_ENGINE_H_
