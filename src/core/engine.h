// WakeEngine: compiles logical plans into pipelined OLA execution graphs
// and streams converging result states to the caller.
//
// Compilation rules (Fig 6 of the paper):
//  - scan            -> ReaderNode over the catalog table's partitions
//  - map / filter    -> stateless Case 1 nodes
//  - join            -> MergeJoinNode when both inputs are append-mode and
//                       clustered exactly on their join keys (the
//                       lineitem ⨝ orders case); HashJoinNode otherwise,
//                       with the right side as build table
//  - aggregate       -> LocalAggNode when the group keys cover the input
//                       clustering key (Case 1); ShuffleAggNode with
//                       growth-based inference otherwise (Case 2)
//  - sort/limit      -> SortLimitNode (Case 3 recompute)
// A node that every path from the root reaches through a join's build
// (right) input runs final-only (NodeOptions::final_only): the join reads
// only its last state, so it computes no other.
// Every node runs on exactly one thread and reads one unbounded inbox that
// its producers send into directly (§7.2); the collector reads the root's
// output the same way, from an inbox of its own.
#ifndef WAKE_CORE_ENGINE_H_
#define WAKE_CORE_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/resource.h"
#include "common/stopwatch.h"
#include "common/worker_pool.h"
#include "core/nodes.h"
#include "exec/trace.h"
#include "plan/props.h"
#include "storage/partitioned_table.h"

namespace wake {

/// Engine configuration.
struct WakeOptions {
  /// Propagate variances and report them with refresh-mode states (§6).
  bool with_ci = false;
  /// Record per-node busy spans (Fig 13).
  bool trace = false;
  /// Ablation: fix the growth power of every shuffle aggregation instead
  /// of fitting it online (-1 = fit; 1.0 = naive linear scaling).
  double fixed_growth_w = -1.0;
  /// Ablation: always pick hash joins, even where merge joins apply
  /// (isolates the OLA-specific join-selection optimization, §7.3).
  bool force_hash_join = false;
  /// Share physically identical subplans (same PlanNode object reachable
  /// through several parents, e.g. Q15's revenue view) instead of
  /// executing them once per parent — the paper's §7.3 reuse optimization.
  bool share_subplans = true;
  /// Worker pool that runs the hash-join probe's morsels (the only
  /// intra-operator parallel loop); null = the process-wide pool
  /// (WorkerPool::Global(), sized from WAKE_WORKERS). wake::Db passes its
  /// session pool here, so concurrent query handles share one pool. Must
  /// outlive the engine and every EngineRun started from it. Results are
  /// byte-identical at any pool size.
  WorkerPool* pool = nullptr;
  /// Per-query resource tracker (may be null = unbudgeted). Every node
  /// charges/credits it as partials and operator state move through the
  /// graph, and the collector polls it so deadline breaches are observed
  /// even when no memory moves. Must outlive every EngineRun started with
  /// it; breach policy lives in the tracker's on_breach callback.
  ResourceTracker* tracker = nullptr;
};

/// One converging result state delivered to the caller (an edf state).
struct OlaState {
  DataFramePtr frame;   // full current estimate of the query result
  double progress = 0;  // t of the root edf
  bool is_final = false;
  double elapsed_seconds = 0;  // since Execute() started
  /// Per-column variances of the latest snapshot (CI mode, refresh roots).
  std::shared_ptr<const VarianceMap> variances;
};

using StateCallback = std::function<void(const OlaState&)>;

/// One live execution of a plan: owns the compiled node graph (every node
/// thread is already running) and drives the collector. Obtained from
/// WakeEngine::Start; this is what gives wake::QueryHandle its
/// handle-driven lifetime instead of WakeEngine::Execute's internal
/// thread management.
///
/// Lifecycle: Start() spawns one thread per node immediately. Exactly one
/// thread then calls Collect(), which reads the collector's inbox until
/// the root sends EOF or the run is cancelled, and joins every node
/// thread before returning. Cancel() may be called from any thread at any
/// time — it cancels every inbox in the graph, the collector's included,
/// so all node threads unwind promptly without draining pending work; a
/// cancelled run delivers no final state. Destroying an uncollected run
/// cancels it and joins its threads.
class EngineRun {
 public:
  ~EngineRun();
  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

  /// Drives the root stream: invokes `on_state` (may be null) for every
  /// intermediate state and — unless the run was cancelled — once more
  /// with is_final=true. Joins all node threads before returning, even
  /// when `on_state` throws (the run is cancelled and the exception
  /// re-thrown). Must be called at most once.
  void Collect(const StateCallback& on_state);

  /// Requests cooperative cancellation; thread-safe, idempotent, safe to
  /// race with Collect and with run completion.
  void Cancel();

  /// Requests graceful degradation (the kDegrade budget policy): every
  /// node is drain-stopped, so sources stop feeding the graph, EOF
  /// propagates, and downstream operators finish over the truncated input
  /// — Collect still delivers a genuine last estimate (is_final, with CI)
  /// whose progress reflects how much data was actually processed.
  /// Thread-safe, idempotent, typically invoked from the tracker's
  /// on_breach callback on whichever thread breaches first.
  void DegradeStop();

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Output schema of the root operator.
  const Schema& schema() const { return root_props_.schema; }

  /// Post-Collect stats (see WakeEngine accessors of the same names).
  size_t buffered_bytes() const { return buffered_bytes_; }
  const std::vector<TraceSpan>& trace_spans() const { return spans_; }

 private:
  friend class WakeEngine;
  EngineRun() = default;

  void CollectImpl(const StateCallback& on_state);

  /// Node-failure hook (see ExecNode::SetErrorHandler): records the first
  /// error and cancels the graph; Collect rethrows it after joining.
  void OnNodeError(std::exception_ptr error);

  std::vector<std::unique_ptr<ExecNode>> nodes_;
  PlanProps root_props_;
  InboxPtr inbox_;  // the collector's; the root node sends into it
  bool trace_enabled_ = false;
  TraceLog trace_;
  Stopwatch clock_;  // runs from Start()
  std::atomic<bool> cancelled_{false};
  ResourceTracker* tracker_ = nullptr;
  std::mutex error_mu_;
  std::exception_ptr error_;
  bool collected_ = false;
  size_t buffered_bytes_ = 0;
  std::vector<TraceSpan> spans_;
};

/// Pipelined OLA query engine.
class WakeEngine {
 public:
  explicit WakeEngine(const Catalog* catalog, WakeOptions options = {});

  /// Compiles `plan` and starts every node thread, returning the live run.
  /// The engine must outlive the returned run.
  std::unique_ptr<EngineRun> Start(const PlanNodePtr& plan) const;

  /// Runs `plan` to completion, invoking `on_state` for every intermediate
  /// state and once more with is_final=true at the end. Blocking; a
  /// convenience wrapper over Start() + EngineRun::Collect().
  void Execute(const PlanNodePtr& plan, const StateCallback& on_state);

  /// Convenience: runs the plan and returns only the final (exact) result.
  DataFrame ExecuteFinal(const PlanNodePtr& plan);

  /// Node activity spans of the last Execute (empty unless options.trace).
  const std::vector<TraceSpan>& last_trace() const { return last_trace_; }

  /// Approximate bytes buffered across nodes at the end of the last run
  /// (hash tables, sort content, pending buffers) — the steady-state
  /// footprint used for the §8.2 memory comparison.
  size_t buffered_bytes() const { return buffered_bytes_; }

 private:
  friend class EngineRun;

  struct Compiled {
    ExecNode* node = nullptr;
    PlanProps props;
  };
  using CompileMemo = std::unordered_map<const PlanNode*, Compiled>;
  /// Plan nodes whose intermediate states some consumer reads; every
  /// other node compiles final-only.
  using StreamedSet = std::unordered_set<const PlanNode*>;

  Compiled CompileRec(const PlanNodePtr& plan, const StreamedSet& streamed,
                      std::vector<std::unique_ptr<ExecNode>>* nodes,
                      CompileMemo* memo) const;

  const Catalog* catalog_;
  WakeOptions options_;  // options_.pool is never null
  std::vector<TraceSpan> last_trace_;
  size_t buffered_bytes_ = 0;
};

}  // namespace wake

#endif  // WAKE_CORE_ENGINE_H_
