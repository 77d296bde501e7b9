#include "plan/props.h"

#include <algorithm>

#include "common/error.h"

namespace wake {

namespace {

// Keeps a key list only if every named column survives in `schema`.
std::vector<std::string> KeepKeyIfPresent(const std::vector<std::string>& key,
                                          const Schema& schema) {
  for (const auto& k : key) {
    if (!schema.HasField(k)) return {};
  }
  return key;
}

bool RequiresNumeric(AggFunc f) {
  return f == AggFunc::kSum || f == AggFunc::kAvg || f == AggFunc::kVar ||
         f == AggFunc::kStddev || f == AggFunc::kMedian;
}

}  // namespace

Schema JoinOutputSchema(const Schema& left, const Schema& right,
                        const std::vector<std::string>& right_keys,
                        JoinType type) {
  Schema out;
  for (const auto& f : left.fields()) out.AddField(f);
  if (type == JoinType::kSemi || type == JoinType::kAnti) return out;
  for (const auto& f : right.fields()) {
    if (std::find(right_keys.begin(), right_keys.end(), f.name) !=
        right_keys.end()) {
      continue;  // equal to the left key column; dropped
    }
    CheckPlan(!out.HasField(f.name),
             "join output column collision: '" + f.name +
                 "' (rename one side before joining)");
    out.AddField(f);
  }
  return out;
}

Schema AggOutputSchema(const Schema& input,
                       const std::vector<std::string>& group_by,
                       const std::vector<AggSpec>& aggs) {
  Schema out;
  for (const auto& g : group_by) {
    Field f = input.field(input.FieldIndex(g));
    f.mutable_attr = false;  // group keys are constant attributes
    out.AddField(f);
  }
  for (const auto& a : aggs) {
    ValueType in_type = ValueType::kInt64;
    if (!a.input.empty()) {
      in_type = input.field(input.FieldIndex(a.input)).type;
      CheckPlan(!RequiresNumeric(a.func) || IsNumeric(in_type),
               std::string(AggFuncName(a.func)) + "(" + a.input +
                   ") over non-numeric column");
    } else {
      CheckPlan(a.func == AggFunc::kCount,
               "only count() supports a missing input column");
    }
    ValueType out_type;
    switch (a.func) {
      case AggFunc::kCount:
      case AggFunc::kCountDistinct:
        out_type = ValueType::kInt64;
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        out_type = in_type;
        break;
      case AggFunc::kSum:
        out_type = in_type == ValueType::kInt64 ? ValueType::kInt64
                                                : ValueType::kFloat64;
        break;
      default:  // avg, var, stddev
        out_type = ValueType::kFloat64;
        break;
    }
    CheckPlan(!out.HasField(a.output),
             "duplicate aggregate output name '" + a.output + "'");
    out.AddField(Field(a.output, out_type, /*mut=*/true));
  }
  out.set_primary_key(group_by);
  return out;
}

PlanProps InferProps(const PlanNodePtr& node, const Catalog& catalog) {
  CheckPlan(node != nullptr, "null plan node");
  switch (node->op) {
    case PlanOp::kScan: {
      PlanProps props;
      const Schema& full = catalog.GetSchema(node->table);
      props.schema = node->columns.empty() ? full : full.Select(node->columns);
      if (node->scan_filter != nullptr) {
        std::set<std::string> used;
        node->scan_filter->CollectColumns(&used);
        for (const auto& c : used) {
          CheckPlan(props.schema.HasField(c),
                    "scan filter reads column '" + c +
                        "' not produced by the scan");
        }
      }
      props.mode = EvolveMode::kAppend;
      return props;
    }

    case PlanOp::kMap: {
      PlanProps in = InferProps(node->inputs[0], catalog);
      PlanProps props;
      props.mode = in.mode;
      Schema out;
      if (node->append_input) {
        for (const auto& f : in.schema.fields()) out.AddField(f);
      }
      for (const auto& p : node->projections) {
        CheckPlan(!out.HasField(p.name),
                 "duplicate map output column '" + p.name + "'");
        Field f(p.name, p.expr->ResultType(in.schema),
                p.expr->ReadsMutable(in.schema));
        out.AddField(f);
      }
      out.set_primary_key(KeepKeyIfPresent(in.schema.primary_key(), out));
      out.set_clustering_key(
          KeepKeyIfPresent(in.schema.clustering_key(), out));
      props.schema = std::move(out);
      return props;
    }

    case PlanOp::kFilter: {
      PlanProps props = InferProps(node->inputs[0], catalog);
      // Type-check the predicate; its rows are kept by truth value, which
      // must be stored as an integer like any other AND/OR operand.
      if (!IsIntPhysical(node->predicate->ResultType(props.schema))) {
        throw Error("filter predicate " + node->predicate->ToString() +
                        " is not a bool, int or date",
                    ErrorCategory::kPlan);
      }
      // Filtering on a mutable attribute is a Case 3 operation (§2.3): it
      // is only well-defined over refresh-mode inputs, which is guaranteed
      // by construction (mutable attributes arise only from shuffle
      // aggregations, whose outputs are refresh-mode).
      CheckPlan(!node->predicate->ReadsMutable(props.schema) ||
                   props.mode == EvolveMode::kRefresh,
               "filter on mutable attribute over an append-mode input");
      return props;
    }

    case PlanOp::kJoin: {
      PlanProps left = InferProps(node->inputs[0], catalog);
      PlanProps right = InferProps(node->inputs[1], catalog);
      for (const auto& k : node->left_keys) left.schema.FieldIndex(k);
      for (const auto& k : node->right_keys) right.schema.FieldIndex(k);
      PlanProps props;
      props.schema = JoinOutputSchema(left.schema, right.schema,
                                      node->right_keys, node->join_type);
      props.schema.set_primary_key(
          KeepKeyIfPresent(left.schema.primary_key(), props.schema));
      props.schema.set_clustering_key(
          KeepKeyIfPresent(left.schema.clustering_key(), props.schema));
      props.mode = (left.mode == EvolveMode::kRefresh ||
                    right.mode == EvolveMode::kRefresh)
                       ? EvolveMode::kRefresh
                       : EvolveMode::kAppend;
      return props;
    }

    case PlanOp::kAggregate: {
      PlanProps in = InferProps(node->inputs[0], catalog);
      PlanProps props;
      props.schema = AggOutputSchema(in.schema, node->group_by, node->aggs);
      bool local = in.mode == EvolveMode::kAppend &&
                   in.schema.ClusteringContainedIn(node->group_by);
      if (local) {
        // Case 1: groups complete within partition boundaries; outputs are
        // constant attributes appended incrementally.
        props.mode = EvolveMode::kAppend;
        props.needs_inference = false;
        for (size_t i = 0; i < props.schema.num_fields(); ++i) {
          props.schema.mutable_field(i)->mutable_attr = false;
        }
        props.schema.set_clustering_key(in.schema.clustering_key());
      } else {
        // Case 2: shuffle aggregation with growth-based inference.
        props.mode = EvolveMode::kRefresh;
        props.needs_inference = true;
      }
      return props;
    }

    case PlanOp::kSortLimit: {
      PlanProps props = InferProps(node->inputs[0], catalog);
      for (const auto& k : node->sort_keys) {
        props.schema.FieldIndex(k.column);
      }
      props.mode = EvolveMode::kRefresh;  // Case 3: recompute per state
      props.needs_inference = false;
      std::vector<std::string> cluster;
      for (const auto& k : node->sort_keys) cluster.push_back(k.column);
      props.schema.set_clustering_key(cluster);
      return props;
    }
  }
  throw Error("unreachable plan op", ErrorCategory::kPlan);
}

}  // namespace wake
