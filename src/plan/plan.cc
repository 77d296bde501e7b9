#include "plan/plan.h"

#include "common/error.h"
#include "common/strings.h"

namespace wake {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum: return "sum";
    case AggFunc::kCount: return "count";
    case AggFunc::kAvg: return "avg";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
    case AggFunc::kCountDistinct: return "count_distinct";
    case AggFunc::kVar: return "var";
    case AggFunc::kStddev: return "stddev";
    case AggFunc::kMedian: return "median";
  }
  return "?";
}

namespace {
std::shared_ptr<PlanNode> NewNode(PlanOp op) {
  auto node = std::make_shared<PlanNode>();
  node->op = op;
  return node;
}
}  // namespace

Plan Plan::Scan(std::string table, std::vector<std::string> columns) {
  auto node = NewNode(PlanOp::kScan);
  node->table = std::move(table);
  node->columns = std::move(columns);
  node->label = "scan(" + node->table + ")";
  return Plan(node);
}

Plan Plan::Map(std::vector<NamedExpr> projections) const {
  CheckPlan(node_ != nullptr, "Map on empty plan");
  auto node = NewNode(PlanOp::kMap);
  node->inputs = {node_};
  node->projections = std::move(projections);
  node->label = "map";
  return Plan(node);
}

Plan Plan::Derive(std::vector<NamedExpr> projections) const {
  CheckPlan(node_ != nullptr, "Derive on empty plan");
  auto node = NewNode(PlanOp::kMap);
  node->inputs = {node_};
  node->projections = std::move(projections);
  node->append_input = true;
  node->label = "derive";
  return Plan(node);
}

Plan Plan::Project(const std::vector<std::string>& columns) const {
  std::vector<NamedExpr> projections;
  projections.reserve(columns.size());
  for (const auto& c : columns) projections.push_back({c, Expr::Col(c)});
  return Map(std::move(projections));
}

Plan Plan::Filter(ExprPtr predicate) const {
  CheckPlan(node_ != nullptr, "Filter on empty plan");
  auto node = NewNode(PlanOp::kFilter);
  node->inputs = {node_};
  node->predicate = std::move(predicate);
  node->label = "filter";
  return Plan(node);
}

Plan Plan::Join(const Plan& right, JoinType type,
                std::vector<std::string> left_keys,
                std::vector<std::string> right_keys) const {
  CheckPlan(node_ != nullptr && right.node_ != nullptr, "Join on empty plan");
  CheckPlan(left_keys.size() == right_keys.size(),
           "join key arity mismatch");
  CheckPlan(type == JoinType::kCross || !left_keys.empty(),
           "equi-join requires keys");
  auto node = NewNode(PlanOp::kJoin);
  node->inputs = {node_, right.node_};
  node->join_type = type;
  node->left_keys = std::move(left_keys);
  node->right_keys = std::move(right_keys);
  node->label = "join";
  return Plan(node);
}

Plan Plan::CrossJoin(const Plan& right) const {
  return Join(right, JoinType::kCross, {}, {});
}

Plan Plan::Aggregate(std::vector<std::string> group_by,
                     std::vector<AggSpec> aggs) const {
  CheckPlan(node_ != nullptr, "Aggregate on empty plan");
  CheckPlan(!aggs.empty(), "Aggregate needs at least one aggregate");
  auto node = NewNode(PlanOp::kAggregate);
  node->inputs = {node_};
  node->group_by = std::move(group_by);
  node->aggs = std::move(aggs);
  node->label = "agg";
  return Plan(node);
}

Plan Plan::Sort(std::vector<SortKey> keys,
                std::optional<size_t> limit) const {
  CheckPlan(node_ != nullptr, "Sort on empty plan");
  auto node = NewNode(PlanOp::kSortLimit);
  node->inputs = {node_};
  node->sort_keys = std::move(keys);
  node->limit = limit;
  node->label = "sort";
  return Plan(node);
}

Plan Plan::WithLabel(std::string label) const {
  CheckPlan(node_ != nullptr, "WithLabel on empty plan");
  auto node = std::make_shared<PlanNode>(*node_);
  node->label = std::move(label);
  return Plan(node);
}

std::string PlanToString(const PlanNodePtr& node, int indent) {
  if (!node) return "";
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad;
  switch (node->op) {
    case PlanOp::kScan:
      out += "Scan " + node->table;
      if (!node->columns.empty()) {
        out += " [" + Join(node->columns, ",") + "]";
      }
      if (node->scan_filter != nullptr) {
        out += " prune " + node->scan_filter->ToString();
      }
      break;
    case PlanOp::kMap:
      out += node->append_input ? "Derive [" : "Map [";
      for (size_t i = 0; i < node->projections.size(); ++i) {
        if (i > 0) out += ", ";
        out += node->projections[i].name;
      }
      out += "]";
      break;
    case PlanOp::kFilter:
      out += "Filter " + node->predicate->ToString();
      break;
    case PlanOp::kJoin: {
      const char* names[] = {"Inner", "Left", "Semi", "Anti", "Cross"};
      out += std::string(names[static_cast<int>(node->join_type)]) +
             "Join on [" + Join(node->left_keys, ",") + "]=[" +
             Join(node->right_keys, ",") + "]";
      break;
    }
    case PlanOp::kAggregate:
      out += "Aggregate by [" + Join(node->group_by, ",") + "] {";
      for (size_t i = 0; i < node->aggs.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::string(AggFuncName(node->aggs[i].func)) + "(" +
               node->aggs[i].input + ")->" + node->aggs[i].output;
      }
      out += "}";
      break;
    case PlanOp::kSortLimit:
      out += "Sort";
      if (node->limit) out += " limit " + std::to_string(*node->limit);
      break;
  }
  out += "\n";
  for (const auto& in : node->inputs) out += PlanToString(in, indent + 1);
  return out;
}

}  // namespace wake
