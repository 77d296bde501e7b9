// ReaderNode, MapNode, FilterNode (Case 1 operators).
#include "core/nodes.h"

#include <chrono>
#include <thread>

#include "common/error.h"
#include "common/failpoint.h"

namespace wake {

namespace {

// Transient read faults (I/O hiccups; injected via the reader.read_batch
// failpoint) are absorbed by a short bounded retry before the error is
// allowed to kill the query.
constexpr int kReadAttempts = 3;

}  // namespace

// ---------------------------------------------------------------------------
// ReaderNode
// ---------------------------------------------------------------------------

ReaderNode::ReaderNode(TablePtr table, std::vector<std::string> columns,
                       ExprPtr filter)
    : ExecNode("read(" + table->name() + ")"),
      table_(std::move(table)),
      columns_(std::move(columns)),
      filter_(std::move(filter)) {
  if (!columns_.empty()) {
    // Key-aware narrowing (keys survive only if all their columns do);
    // DataFrame::Select alone would keep stale key metadata.
    narrowed_schema_ = table_->schema().Select(columns_);
  }
}

void ReaderNode::RunSource() {
  size_t total = table_->total_rows();
  size_t seen = 0;
  bool emitted_final = total == 0;
  for (size_t i = 0; i < table_->num_chunks(); ++i) {
    if (stopped() || drain_stopped()) return;  // cancel / budget drain
    if (tracker() != nullptr && tracker()->CheckBreach()) return;
    for (int attempt = 1;; ++attempt) {
      try {
        WAKE_FAILPOINT("reader.read_batch");
        break;
      } catch (const Error&) {
        if (attempt >= kReadAttempts) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
      }
    }
    // Skipped chunks (synopses refute filter_) still advance `seen`: the
    // partial's progress t honestly covers their rows — they just
    // contribute none — so OLA's 1/t scaling stays unbiased. Only decoded
    // rows are charged to the budget.
    seen += table_->chunk_rows(i);
    DataFramePtr chunk = table_->ReadChunk(i, columns_, filter_);
    if (chunk == nullptr) continue;
    if (tracker() != nullptr) tracker()->ChargeRows(chunk->num_rows());
    Message msg;
    msg.frame = std::move(chunk);
    msg.progress =
        total == 0 ? 1.0
                   : static_cast<double>(seen) / static_cast<double>(total);
    emitted_final = msg.progress >= 1.0;
    Emit(std::move(msg));
  }
  if (!emitted_final) {
    // Every remaining chunk was skipped; downstream still needs a t=1.0
    // partial to finalize. Emit an empty frame carrying it.
    Message msg;
    msg.frame = std::make_shared<DataFrame>(
        columns_.empty() ? table_->schema() : narrowed_schema_);
    msg.progress = 1.0;
    Emit(std::move(msg));
  }
}

// ---------------------------------------------------------------------------
// MapNode
// ---------------------------------------------------------------------------

MapNode::MapNode(const PlanNode& plan, const Schema& output_schema,
                 NodeOptions options)
    : ExecNode(plan.label.empty() ? "map" : plan.label),
      projections_(plan.projections),
      append_input_(plan.append_input),
      output_schema_(output_schema),
      options_(options) {}

void MapNode::Process(size_t, const Message& msg) {
  const DataFrame& in = *msg.frame;
  auto out = std::make_shared<DataFrame>(output_schema_);
  size_t col = 0;
  if (append_input_) {
    for (size_t c = 0; c < in.num_columns(); ++c) {
      *out->mutable_column(col++) = in.column(c);
    }
  }

  Message result;
  if (options_.with_ci && msg.variances != nullptr) {
    // Propagate uncertainty through the projection expressions (§6).
    std::unordered_map<std::string, const std::vector<double>*> var_of;
    for (const auto& [name, vars] : *msg.variances) var_of[name] = &vars;
    auto out_vars = std::make_shared<VarianceMap>();
    if (append_input_) {
      for (const auto& [name, vars] : *msg.variances) {
        if (output_schema_.HasField(name)) (*out_vars)[name] = vars;
      }
    }
    for (const auto& p : projections_) {
      Column value;
      std::vector<double> var;
      p.expr->EvalWithVariance(in, var_of, &value, &var);
      *out->mutable_column(col++) = std::move(value);
      (*out_vars)[p.name] = std::move(var);
    }
    result.variances = std::move(out_vars);
  } else {
    for (const auto& p : projections_) {
      *out->mutable_column(col++) = p.expr->Eval(in);
    }
  }
  result.frame = std::move(out);
  result.progress = msg.progress;
  result.refresh = msg.refresh;
  Emit(std::move(result));
}

// ---------------------------------------------------------------------------
// FilterNode
// ---------------------------------------------------------------------------

FilterNode::FilterNode(ExprPtr predicate, NodeOptions options)
    : ExecNode("filter"), predicate_(std::move(predicate)), options_(options) {}

void FilterNode::Process(size_t, const Message& msg) {
  const DataFrame& in = *msg.frame;
  // Selection-kernel filter: the predicate's truth words give one
  // popcount-sized selection vector, which drives both the frame gather
  // and the variance gather.
  std::vector<uint32_t> sel =
      Column::SelectionFromTruth(predicate_->EvalTruth(in));
  Message result;
  result.frame = std::make_shared<DataFrame>(in.Take(sel));
  result.progress = msg.progress;
  result.refresh = msg.refresh;
  if (options_.with_ci && msg.variances != nullptr) {
    auto out_vars = std::make_shared<VarianceMap>();
    for (const auto& [name, vars] : *msg.variances) {
      auto& dst = (*out_vars)[name];
      dst.reserve(sel.size());
      for (uint32_t i : sel) {
        if (i < vars.size()) dst.push_back(vars[i]);
      }
    }
    result.variances = std::move(out_vars);
  }
  Emit(std::move(result));
}

}  // namespace wake
