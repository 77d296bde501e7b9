// LocalAggNode, ShuffleAggNode, SortLimitNode.
#include "core/nodes.h"

#include "common/error.h"

namespace wake {

// ---------------------------------------------------------------------------
// LocalAggNode
// ---------------------------------------------------------------------------

LocalAggNode::LocalAggNode(const PlanNode& plan, const Schema& input_schema,
                           const Schema& output_schema, NodeOptions)
    : ExecNode(plan.label.empty() ? "agg(local)" : plan.label),
      input_schema_(input_schema),
      output_schema_(output_schema),
      cluster_key_(input_schema.clustering_key()),
      pending_(input_schema),
      state_(plan.group_by, plan.aggs, input_schema, output_schema) {
  CheckArg(!cluster_key_.empty(), "local aggregation needs a clustering key");
}

size_t LocalAggNode::BufferedBytes() const { return pending_.ByteSize(); }

void LocalAggNode::Process(size_t, const Message& msg) {
  pending_.Append(*msg.frame);
  last_progress_ = msg.progress;
  size_t n = pending_.num_rows();
  if (n == 0) {
    Emit(Message{std::make_shared<DataFrame>(output_schema_), msg.progress,
                 false, nullptr});
    return;
  }
  size_t ready = n;
  if (msg.progress < 1.0) {
    // Hold back rows sharing the last clustering key: that key's group may
    // continue in the next partial (robust even if the storage layer did
    // not align partition boundaries to key boundaries).
    std::vector<size_t> cluster_cols = pending_.ColumnIndices(cluster_key_);
    while (ready > 0) {
      bool same = true;
      for (size_t c : cluster_cols) {
        if (pending_.column(c).CompareRows(ready - 1, pending_.column(c),
                                           n - 1) != 0) {
          same = false;
          break;
        }
      }
      if (!same) break;
      --ready;
    }
  }
  DataFrame complete = pending_.Slice(0, ready);
  pending_ = pending_.Slice(ready, n);
  EmitComplete(complete, msg.progress);
}

void LocalAggNode::Finish() {
  if (pending_.num_rows() == 0) return;
  DataFrame complete = std::move(pending_);
  pending_ = DataFrame(input_schema_);
  // A drain-stopped stream ends at the progress it reached; claiming 1.0
  // here would launder a prefix into an exact answer downstream.
  EmitComplete(complete, drain_stopped() && last_progress_ < 1.0
                             ? last_progress_
                             : 1.0);
}

void LocalAggNode::EmitComplete(const DataFrame& complete, double progress) {
  // Groups are complete (clustering-key order guarantees they never recur),
  // so finalize exactly; output rows stay in clustering-key order. The
  // state then forgets them, keeping its allocations for the next batch.
  state_.Consume(complete);
  Message msg;
  msg.frame = std::make_shared<DataFrame>(state_.Finalize(AggScaling{}).frame);
  state_.Reset();
  msg.progress = progress;
  Emit(std::move(msg));
}

// ---------------------------------------------------------------------------
// ShuffleAggNode
// ---------------------------------------------------------------------------

ShuffleAggNode::ShuffleAggNode(const PlanNode& plan,
                               const Schema& input_schema,
                               const Schema& output_schema,
                               NodeOptions options)
    : ExecNode(plan.label.empty() ? "agg(shuffle)" : plan.label),
      output_schema_(output_schema),
      options_(options),
      state_(plan.group_by, plan.aggs, input_schema, output_schema) {}

size_t ShuffleAggNode::BufferedBytes() const { return state_.ByteSize(); }

void ShuffleAggNode::Process(size_t, const Message& msg) {
  if (msg.refresh) state_.Reset();
  state_.Consume(*msg.frame, msg.variances.get());
  growth_.Observe(msg.progress, state_.MeanGroupCardinality());
  last_progress_ = msg.progress;
  if (!options_.final_only) EmitSnapshot(msg.progress, msg.progress >= 1.0);
}

void ShuffleAggNode::Finish() {
  if (emitted_final_) return;
  if (drain_stopped() && last_progress_ < 1.0) {
    // Budget drain: the input stream closed early, so this snapshot is an
    // estimate over a prefix — keep the growth scaling pinned at the last
    // observed progress instead of reporting raw prefix sums as exact.
    // With no input at all there is no estimate to publish (an empty
    // aggregate claiming progress 1.0 would read as the exact answer);
    // the API layer synthesizes the zero-progress terminal instead.
    if (last_progress_ > 0.0) {
      EmitSnapshot(last_progress_, true, /*keep_scaling=*/true);
    }
    return;
  }
  EmitSnapshot(1.0, true);
}

void ShuffleAggNode::EmitSnapshot(double progress, bool final_snapshot,
                                  bool keep_scaling) {
  AggScaling scaling;
  scaling.enabled = !final_snapshot || keep_scaling;
  scaling.t = progress;
  scaling.w = options_.fixed_growth_w >= 0.0 ? options_.fixed_growth_w
                                             : growth_.w();
  scaling.var_w = growth_.var_w();
  scaling.with_ci = options_.with_ci;
  AggResult res = state_.Finalize(scaling);
  Message msg;
  msg.frame = std::make_shared<DataFrame>(std::move(res.frame));
  msg.progress = progress;
  msg.refresh = true;
  if (options_.with_ci) {
    msg.variances = std::make_shared<VarianceMap>(std::move(res.variances));
  }
  emitted_final_ = final_snapshot;
  Emit(std::move(msg));
}

// ---------------------------------------------------------------------------
// SortLimitNode
// ---------------------------------------------------------------------------

SortLimitNode::SortLimitNode(const PlanNode& plan, const Schema& schema,
                             NodeOptions options)
    : ExecNode(plan.label.empty() ? "sort" : plan.label),
      sort_keys_(plan.sort_keys),
      limit_(plan.limit),
      schema_(schema),
      options_(options),
      appended_(schema) {}

size_t SortLimitNode::BufferedBytes() const { return content().ByteSize(); }

void SortLimitNode::Process(size_t, const Message& msg) {
  // Case 3 (§2.2): order-by consumes its entire input; each state change
  // triggers a full recomputation of the sorted output.
  if (msg.refresh) {
    // Frames are immutable once sent, so a refresh is held, not copied.
    snapshot_ = msg.frame;
    appended_ = DataFrame(schema_);
  } else {
    if (snapshot_ != nullptr) {
      // Appends extend the last refresh: copy it once to append to it.
      appended_ = *snapshot_;
      snapshot_ = nullptr;
    }
    appended_.Append(*msg.frame);
  }
  has_input_ = true;
  last_progress_ = msg.progress;
  if (!options_.final_only) EmitSorted();
}

void SortLimitNode::Finish() {
  if (options_.final_only && has_input_) EmitSorted();
}

void SortLimitNode::EmitSorted() {
  // Top-k aware: with a limit, only the first k rows are ordered and
  // gathered, in the order the stable full sort would give them.
  const DataFrame& content = this->content();
  DataFrame sorted = content.Take(content.SortedIndices(sort_keys_, limit_));
  Message result;
  result.frame = std::make_shared<DataFrame>(std::move(sorted));
  result.progress = last_progress_;
  result.refresh = true;
  Emit(std::move(result));
}

}  // namespace wake
