#include "baseline/exact_engine.h"

#include "common/error.h"
#include "core/agg_state.h"
#include "core/join_kernel.h"
#include "plan/props.h"

namespace wake {

DataFrame ExactEngine::Execute(const PlanNodePtr& plan) const {
  peak_bytes_ = 0;
  return Eval(plan);
}

DataFrame ExactEngine::Eval(const PlanNodePtr& node) const {
  CheckArg(node != nullptr, "null plan");
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    throw Error("query cancelled", ErrorCategory::kCancelled);
  }
  if (tracker_ != nullptr) {
    tracker_->CheckBreach();
    if (tracker_->breached()) {
      throw Error("query exceeded its budget: " + tracker_->BreachMessage(),
                  ErrorCategory::kResourceExhausted);
    }
  }
  DataFrame result;
  switch (node->op) {
    case PlanOp::kScan: {
      // Projected read: only the plan's column list is ever copied. The
      // scan filter lets wakeblock tables skip refuted blocks; the plan's
      // residual Filter removes any surviving non-matching rows.
      result = catalog_->GetPtr(node->table)
                   ->Materialize(node->columns, node->scan_filter);
      if (tracker_ != nullptr) tracker_->ChargeRows(result.num_rows());
      break;
    }
    case PlanOp::kJoin: {
      DataFrame left = Eval(node->inputs[0]);
      DataFrame right = Eval(node->inputs[1]);
      Schema out_schema = JoinOutputSchema(left.schema(), right.schema(),
                                           node->right_keys, node->join_type);
      result = HashJoin(left, right, node->left_keys, node->right_keys,
                        node->join_type, out_schema);
      break;
    }
    case PlanOp::kMap:
    case PlanOp::kFilter:
    case PlanOp::kAggregate:
    case PlanOp::kSortLimit:
      result = Apply(*node, Eval(node->inputs[0]));
      break;
  }
  const size_t bytes = result.ByteSize();
  peak_bytes_ = std::max(peak_bytes_, bytes);
  if (tracker_ != nullptr) {
    // Count each materialized intermediate while it is the live result;
    // the parent operator's own charge replaces it. A charge that breaches
    // fails the query here, with the intermediate still charged so the
    // message names its bytes: there is no partial result to degrade to.
    tracker_->Charge(bytes);
    if (tracker_->breached()) {
      Error error("query exceeded its budget: " + tracker_->BreachMessage(),
                  ErrorCategory::kResourceExhausted);
      tracker_->Credit(bytes);
      throw error;
    }
    tracker_->Credit(bytes);
  }
  return result;
}

DataFrame ExactEngine::Apply(const PlanNode& node, DataFrame in) {
  switch (node.op) {
    case PlanOp::kMap: {
      DataFrame out;
      if (node.append_input) out = in;
      for (const auto& p : node.projections) {
        Column c = p.expr->Eval(in);
        out.AddColumn(Field(p.name, c.type()), std::move(c));
      }
      return out;
    }
    case PlanOp::kFilter:
      // Selection-kernel filter off the predicate's truth words.
      return in.Take(
          Column::SelectionFromTruth(node.predicate->EvalTruth(in)));
    case PlanOp::kAggregate: {
      Schema out_schema =
          AggOutputSchema(in.schema(), node.group_by, node.aggs);
      GroupedAggState state(node.group_by, node.aggs, in.schema(),
                            out_schema);
      state.Consume(in);
      return state.Finalize(AggScaling{}).frame;
    }
    case PlanOp::kSortLimit:
      return in.Take(in.SortedIndices(node.sort_keys, node.limit));
    case PlanOp::kScan:
    case PlanOp::kJoin:
      break;
  }
  throw Error("ExactEngine::Apply takes a single-input operator",
              ErrorCategory::kPlan);
}

}  // namespace wake
