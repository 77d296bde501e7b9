// HashJoinNode and MergeJoinNode.
#include "core/nodes.h"

#include "common/error.h"
#include "common/failpoint.h"

namespace wake {

// ---------------------------------------------------------------------------
// HashJoinNode
// ---------------------------------------------------------------------------

HashJoinNode::HashJoinNode(const PlanNode& plan, const Schema& right_schema,
                           const Schema& output_schema, NodeOptions options)
    : ExecNode(plan.label.empty() ? "hash-join" : plan.label),
      join_type_(plan.join_type),
      left_keys_(plan.left_keys),
      output_schema_(output_schema),
      options_(options),
      table_(right_schema, plan.right_keys) {}

size_t HashJoinNode::BufferedBytes() const {
  size_t bytes = table_.ByteSize();
  for (const auto& m : build_partials_) bytes += m.frame->ByteSize();
  for (const auto& m : pending_probe_) bytes += m.frame->ByteSize();
  return bytes;
}

void HashJoinNode::Process(size_t port, const Message& msg) {
  if (port == 1) {
    // Build side. A refresh snapshot replaces all prior build content; the
    // final snapshot (at build EOF) is the one probes run against, which
    // realizes the paper's rule that joins on mutable attributes block
    // until the attribute values are final (§3.3). Probes wait for build
    // EOF anyway, so the partials are held and indexed once, there.
    if (msg.refresh) build_partials_.clear();
    WAKE_FAILPOINT("join.build");
    build_partials_.push_back(msg);
    return;
  }
  if (!build_done_) {
    pending_probe_.push_back(msg);
    return;
  }
  ProbeAndEmit(msg);
}

void HashJoinNode::OnInputClosed(size_t port) {
  if (port != 1) return;
  // One index sized for every build row: no rehash while it fills. Each
  // partial is released once its rows are in the table.
  size_t rows = 0;
  for (const auto& m : build_partials_) rows += m.frame->num_rows();
  table_.Reserve(rows);
  for (auto& m : build_partials_) {
    table_.Insert(*m.frame, m.variances.get());
    m = Message{};
  }
  build_partials_.clear();
  build_done_ = true;
  for (auto& msg : pending_probe_) {
    if (stopped()) break;  // cancel can land mid-replay of pending probes
    ProbeAndEmit(msg);
  }
  pending_probe_.clear();
}

void HashJoinNode::ProbeAndEmit(const Message& msg) {
  Message result;
  if (options_.with_ci) {
    auto out_vars = std::make_shared<VarianceMap>();
    result.frame = std::make_shared<DataFrame>(
        table_.Probe(*msg.frame, left_keys_, join_type_, output_schema_,
                     msg.variances.get(), out_vars.get(), options_.pool));
    if (!out_vars->empty()) result.variances = std::move(out_vars);
  } else {
    result.frame = std::make_shared<DataFrame>(
        table_.Probe(*msg.frame, left_keys_, join_type_, output_schema_,
                     nullptr, nullptr, options_.pool));
  }
  result.progress = msg.progress;
  result.refresh = msg.refresh;
  Emit(std::move(result));
}

// ---------------------------------------------------------------------------
// MergeJoinNode
// ---------------------------------------------------------------------------

MergeJoinNode::MergeJoinNode(const PlanNode& plan, const Schema& left_schema,
                             const Schema& right_schema,
                             const Schema& output_schema, NodeOptions options)
    : ExecNode(plan.label.empty() ? "merge-join" : plan.label),
      join_type_(plan.join_type),
      left_keys_(plan.left_keys),
      left_schema_(left_schema),
      output_schema_(output_schema),
      options_(options),
      table_(right_schema, plan.right_keys),
      left_pending_(left_schema) {
  CheckArg(join_type_ == JoinType::kInner || join_type_ == JoinType::kLeft,
           "merge join supports inner/left joins");
  left_key_cols_ = left_pending_.ColumnIndices(left_keys_);
  Schema watermark_schema;
  for (const auto& k : plan.right_keys) {
    watermark_schema.AddField(
        right_schema.field(right_schema.FieldIndex(k)));
  }
  right_watermark_ = DataFrame(watermark_schema);
  for (size_t i = 0; i < plan.right_keys.size(); ++i) {
    right_key_cols_.push_back(i);
  }
}

size_t MergeJoinNode::BufferedBytes() const {
  return table_.ByteSize() + left_pending_.ByteSize();
}

void MergeJoinNode::Process(size_t port, const Message& msg) {
  if (port == 1) {
    const DataFrame& frame = *msg.frame;
    table_.Insert(frame);
    if (frame.num_rows() > 0) {
      // The right side arrives clustered on its join keys, so the last
      // row's key is a completeness watermark: every key <= it is final.
      size_t last = frame.num_rows() - 1;
      std::vector<uint32_t> idx{static_cast<uint32_t>(last)};
      std::vector<std::string> names;
      for (const auto& f : right_watermark_.schema().fields()) {
        names.push_back(f.name);
      }
      right_watermark_ = frame.Select(names).Take(idx);
    }
    right_progress_ = msg.progress;
  } else {
    left_pending_.Append(*msg.frame);
    left_progress_ = msg.progress;
  }
  EmitReady();
}

void MergeJoinNode::OnInputClosed(size_t port) {
  if (port == 1) {
    right_done_ = true;
    right_progress_ = 1.0;
    EmitReady();
  }
}

void MergeJoinNode::EmitReady() {
  size_t n = left_pending_.num_rows();
  size_t end = left_consumed_;
  if (right_done_) {
    end = n;
  } else if (right_watermark_.num_rows() == 1) {
    while (end < n) {
      bool within = true;
      for (size_t k = 0; k < left_key_cols_.size(); ++k) {
        int c = left_pending_.column(left_key_cols_[k])
                    .CompareRows(end, right_watermark_.column(k), 0);
        if (c > 0) {
          within = false;
          break;
        }
        if (c < 0) break;  // strictly below on this key: within
      }
      if (!within) break;
      ++end;
    }
  }

  double progress = std::min(left_progress_, right_progress_);
  Message result;
  if (end == left_consumed_) {
    // Nothing ready. Emit an empty partial only when it carries a new
    // progress value (each message triggers downstream snapshot work, so
    // progress-free empties are pure overhead).
    if (progress <= last_emitted_progress_) return;
    result.frame = std::make_shared<DataFrame>(output_schema_);
  } else {
    DataFrame batch = left_pending_.Slice(left_consumed_, end);
    left_consumed_ = end;
    // Compact the pending buffer once the emitted prefix dominates, so
    // buffered bytes stay proportional to the unemitted suffix.
    if (left_consumed_ == n) {
      left_pending_ = DataFrame(left_schema_);
      left_consumed_ = 0;
    } else if (left_consumed_ > 8192 && left_consumed_ * 2 >= n) {
      left_pending_ = left_pending_.Slice(left_consumed_, n);
      left_consumed_ = 0;
    }
    result.frame = std::make_shared<DataFrame>(
        table_.Probe(batch, left_keys_, join_type_, output_schema_, nullptr,
                     nullptr, options_.pool));
  }
  result.progress = progress;
  last_emitted_progress_ = progress;
  Emit(std::move(result));
}

}  // namespace wake
