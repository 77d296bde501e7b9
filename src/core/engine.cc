#include "core/engine.h"

#include <utility>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/worker_pool.h"

namespace wake {

namespace {

// Collects the plan nodes reachable from `node` without entering a join's
// right input: the nodes whose intermediate states reach the root. A hash
// join reads its build side only at build EOF (§3.3), when only the last
// build state counts. A merge join's right input is append-mode, so it
// holds no snapshot-producing node and stopping there changes nothing.
void CollectStreamed(const PlanNode* node,
                     std::unordered_set<const PlanNode*>* streamed) {
  if (!streamed->insert(node).second) return;
  size_t streamed_inputs =
      node->op == PlanOp::kJoin ? 1 : node->inputs.size();
  for (size_t i = 0; i < streamed_inputs; ++i) {
    CollectStreamed(node->inputs[i].get(), streamed);
  }
}

}  // namespace

WakeEngine::WakeEngine(const Catalog* catalog, WakeOptions options)
    : catalog_(catalog), options_(options) {
  CheckArg(catalog != nullptr, "null catalog");
  if (options_.pool == nullptr) options_.pool = &WorkerPool::Global();
}

WakeEngine::Compiled WakeEngine::CompileRec(
    const PlanNodePtr& plan, const StreamedSet& streamed,
    std::vector<std::unique_ptr<ExecNode>>* nodes,
    CompileMemo* memo) const {
  // Shared-subplan reuse (§7.3): a PlanNode object reachable through
  // several parents compiles to one ExecNode that feeds every parent.
  if (options_.share_subplans) {
    auto it = memo->find(plan.get());
    if (it != memo->end()) return it->second;
  }
  Compiled out;
  out.props = InferProps(plan, *catalog_);
  NodeOptions node_options;
  node_options.with_ci = options_.with_ci;
  node_options.fixed_growth_w = options_.fixed_growth_w;
  node_options.pool = options_.pool;
  node_options.final_only = streamed.count(plan.get()) == 0;

  switch (plan->op) {
    case PlanOp::kScan: {
      // Projected scan: the reader narrows each partition as it streams,
      // so downstream nodes only ever gather the columns the plan needs
      // and no full-table narrowed copy is ever held.
      nodes->push_back(std::make_unique<ReaderNode>(
          catalog_->GetPtr(plan->table), plan->columns, plan->scan_filter));
      break;
    }
    case PlanOp::kMap: {
      Compiled in = CompileRec(plan->inputs[0], streamed, nodes, memo);
      nodes->push_back(
          std::make_unique<MapNode>(*plan, out.props.schema, node_options));
      nodes->back()->AddInput(in.node);
      break;
    }
    case PlanOp::kFilter: {
      Compiled in = CompileRec(plan->inputs[0], streamed, nodes, memo);
      nodes->push_back(
          std::make_unique<FilterNode>(plan->predicate, node_options));
      nodes->back()->AddInput(in.node);
      break;
    }
    case PlanOp::kJoin: {
      Compiled left = CompileRec(plan->inputs[0], streamed, nodes, memo);
      Compiled right = CompileRec(plan->inputs[1], streamed, nodes, memo);
      bool both_append = left.props.mode == EvolveMode::kAppend &&
                         right.props.mode == EvolveMode::kAppend;
      bool clustered =
          !plan->left_keys.empty() &&
          left.props.schema.clustering_key() == plan->left_keys &&
          right.props.schema.clustering_key() == plan->right_keys;
      bool mergeable = (plan->join_type == JoinType::kInner ||
                        plan->join_type == JoinType::kLeft) &&
                       both_append && clustered && !options_.force_hash_join;
      if (mergeable) {
        nodes->push_back(std::make_unique<MergeJoinNode>(
            *plan, left.props.schema, right.props.schema, out.props.schema,
            node_options));
      } else {
        nodes->push_back(std::make_unique<HashJoinNode>(
            *plan, right.props.schema, out.props.schema, node_options));
      }
      nodes->back()->AddInput(left.node);
      nodes->back()->AddInput(right.node);
      break;
    }
    case PlanOp::kAggregate: {
      Compiled in = CompileRec(plan->inputs[0], streamed, nodes, memo);
      if (out.props.mode == EvolveMode::kAppend) {
        nodes->push_back(std::make_unique<LocalAggNode>(
            *plan, in.props.schema, out.props.schema, node_options));
      } else {
        nodes->push_back(std::make_unique<ShuffleAggNode>(
            *plan, in.props.schema, out.props.schema, node_options));
      }
      nodes->back()->AddInput(in.node);
      break;
    }
    case PlanOp::kSortLimit: {
      Compiled in = CompileRec(plan->inputs[0], streamed, nodes, memo);
      nodes->push_back(std::make_unique<SortLimitNode>(
          *plan, in.props.schema, node_options));
      nodes->back()->AddInput(in.node);
      break;
    }
  }
  out.node = nodes->back().get();
  if (options_.share_subplans) (*memo)[plan.get()] = out;
  return out;
}

std::unique_ptr<EngineRun> WakeEngine::Start(const PlanNodePtr& plan) const {
  auto run = std::unique_ptr<EngineRun>(new EngineRun());
  StreamedSet streamed;
  CollectStreamed(plan.get(), &streamed);
  CompileMemo memo;
  Compiled root = CompileRec(plan, streamed, &run->nodes_, &memo);
  run->root_props_ = std::move(root.props);
  run->inbox_ = std::make_shared<Inbox>();
  root.node->AddOutlet(run->inbox_, 0);
  run->trace_enabled_ = options_.trace;
  run->tracker_ = options_.tracker;
  run->clock_.Restart();
  // The run is heap-owned and joins its nodes before destruction, so the
  // raw pointer captured by the error handler cannot dangle.
  EngineRun* raw = run.get();
  for (auto& n : run->nodes_) {
    n->SetResourceTracker(options_.tracker);
    n->SetErrorHandler(
        [raw](std::exception_ptr error) { raw->OnNodeError(std::move(error)); });
    n->Start(options_.trace ? &run->trace_ : nullptr);
  }
  return run;
}

EngineRun::~EngineRun() {
  // An uncollected run still has live node threads; cancel so they unwind
  // instead of running the query to completion into a dead inbox, then
  // let the nodes' destructors join them.
  if (!collected_) Cancel();
}

void EngineRun::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  for (auto& n : nodes_) n->RequestStop();
}

void EngineRun::DegradeStop() {
  for (auto& n : nodes_) n->RequestDrainStop();
}

void EngineRun::OnNodeError(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!error_) error_ = std::move(error);
  }
  Cancel();
}

void EngineRun::Collect(const StateCallback& on_state) {
  CheckArg(!collected_, "EngineRun::Collect called twice");
  try {
    CollectImpl(on_state);
  } catch (...) {
    // A throwing state callback must not leave the graph running in the
    // background: cancel, join every node thread, then re-throw — the
    // "joins before returning" contract holds on every exit path.
    Cancel();
    for (auto& n : nodes_) n->Join();
    collected_ = true;
    throw;
  }
  // A node thread died (injected fault, bad expression): the graph was
  // cancelled and the collector drained empty; surface the original error
  // to the driver now that every thread is joined.
  std::exception_ptr node_error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    node_error = error_;
  }
  if (node_error) std::rethrow_exception(node_error);
}

void EngineRun::CollectImpl(const StateCallback& on_state) {
  // Collector: assemble the evolving result from the root's stream. A
  // refresh frame is the whole result and, like every sent frame, never
  // changes, so it is handed on as the state itself; appends accumulate
  // in `content`, copied once per state.
  DataFramePtr refreshed;
  DataFrame content(root_props_.schema);
  std::shared_ptr<const VarianceMap> latest_vars;
  double progress = 0.0;
  bool got_any = false;
  bool eof = false;
  while (!eof) {
    // Batched drain: one lock per burst of root-stream messages.
    auto batch = inbox_->ReceiveAll();
    if (batch.empty()) break;  // cancelled
    for (auto& tagged : batch) {
      if (cancelled()) break;
      if (tagged.eof) {
        eof = true;
        break;
      }
      const Message& msg = tagged.msg;
      if (tracker_ != nullptr && msg.frame != nullptr) {
        tracker_->Credit(msg.frame->ByteSize());
      }
      if (msg.refresh) {
        refreshed = msg.frame;
      } else {
        // Appends extend the last refresh: copy it once to append to it.
        if (refreshed != nullptr) content = *std::exchange(refreshed, nullptr);
        content.Append(*msg.frame);
      }
      progress = std::max(progress, msg.progress);
      latest_vars = msg.variances;
      got_any = true;
      if (on_state) {
        OlaState state;
        state.frame = refreshed != nullptr
                          ? refreshed
                          : std::make_shared<DataFrame>(content);
        state.progress = progress;
        state.is_final = false;
        state.elapsed_seconds = clock_.ElapsedSeconds();
        state.variances = latest_vars;
        on_state(state);
      }
    }
    if (cancelled()) break;
    // Deadline poll: breaches must be observed even while the graph is
    // computing without moving memory.
    if (tracker_ != nullptr) tracker_->CheckBreach();
  }
  for (auto& n : nodes_) n->Join();

  buffered_bytes_ =
      refreshed != nullptr ? refreshed->ByteSize() : content.ByteSize();
  for (const auto& n : nodes_) buffered_bytes_ += n->BufferedBytes();
  spans_ = trace_enabled_ ? trace_.Spans() : std::vector<TraceSpan>{};
  collected_ = true;

  // A cancelled run ends without a final state: the root stream was cut
  // mid-query, so `content` is a truncated prefix, not the exact answer.
  // A *degraded* run (budget breach, kDegrade policy) does deliver its
  // last state — but its progress must report how far the drain actually
  // got, not claim a complete input.
  bool degraded = tracker_ != nullptr && tracker_->breached();
  if (on_state && !cancelled()) {
    OlaState state;
    state.frame = refreshed != nullptr
                      ? refreshed
                      : std::make_shared<DataFrame>(std::move(content));
    state.progress = (got_any && !degraded) ? 1.0 : progress;
    state.is_final = true;
    state.elapsed_seconds = clock_.ElapsedSeconds();
    state.variances = latest_vars;
    on_state(state);
  }
}

void WakeEngine::Execute(const PlanNodePtr& plan,
                         const StateCallback& on_state) {
  std::unique_ptr<EngineRun> run = Start(plan);
  run->Collect(on_state);
  buffered_bytes_ = run->buffered_bytes();
  last_trace_ = run->trace_spans();
}

DataFrame WakeEngine::ExecuteFinal(const PlanNodePtr& plan) {
  DataFrame final_frame;
  Execute(plan, [&](const OlaState& state) {
    if (state.is_final) final_frame = *state.frame;
  });
  return final_frame;
}

}  // namespace wake
