// Logical query plans.
//
// A plan is a tree of relational operators (the paper's "execution graph",
// §7.1) shared by every engine in this repo: the Wake OLA engine compiles
// it to pipelined execution nodes, the exact baseline evaluates it
// all-at-once, and tests compare the two. Plans carry no engine state; all
// OLA-specific reasoning (Case 1/2/3 classification, §2.2) derives from the
// inferred plan properties: schema, primary/clustering keys, and attribute
// mutability.
#ifndef WAKE_PLAN_PLAN_H_
#define WAKE_PLAN_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "frame/expr.h"

namespace wake {

enum class PlanOp : uint8_t {
  kScan,
  kMap,
  kFilter,
  kJoin,
  kAggregate,
  kSortLimit,  // order-by with an optional row limit
};

enum class JoinType : uint8_t {
  kInner,
  kLeft,
  kSemi,   // left rows with at least one match; left columns only
  kAnti,   // left rows with no match; left columns only
  kCross,  // broadcast join: right side must produce exactly one row
};

/// Aggregate functions (Table 2 of the paper).
enum class AggFunc : uint8_t {
  kSum,
  kCount,      // count of non-null inputs (count(*) = count over any key col)
  kAvg,
  kMin,
  kMax,
  kCountDistinct,
  kVar,     // population variance
  kStddev,  // population standard deviation
  kMedian,  // exact sample median; OLA estimator is the identity (§5.3
            // order statistics), intrinsic state keeps the group's values
};

const char* AggFuncName(AggFunc f);

/// A named projection expression (map output column).
struct NamedExpr {
  std::string name;
  ExprPtr expr;
};

/// One aggregate: func(input column) AS output. `input` empty = count(*).
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  std::string input;
  std::string output;
};

struct PlanNode;
using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// A single operator in the plan tree.
struct PlanNode {
  PlanOp op = PlanOp::kScan;
  std::vector<PlanNodePtr> inputs;
  std::string label;  // for traces / Fig 13

  // kScan
  std::string table;
  /// Columns to read from the table, in table-schema order; empty = all.
  /// Set by the optimizer's column-pruning pass and lowered by every
  /// engine so unused columns are never materialized.
  std::vector<std::string> columns;
  /// Advisory pruning predicate set by the optimizer's push-scan-filters
  /// pass: a copy of the Filter directly above the scan (which stays in
  /// the plan as the residual). Readers over synopsis-carrying storage
  /// (wakeblock) use it to skip whole blocks it refutes; engines without
  /// synopses ignore it, so results never depend on it.
  ExprPtr scan_filter;

  // kMap: if append_input is true, output = input columns + projections;
  // otherwise output = projections only.
  std::vector<NamedExpr> projections;
  bool append_input = false;

  // kFilter
  ExprPtr predicate;

  // kJoin: equi-join on parallel key lists (empty lists only for kCross).
  JoinType join_type = JoinType::kInner;
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;

  // kAggregate
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;

  // kSortLimit
  std::vector<SortKey> sort_keys;
  std::optional<size_t> limit;  // nullopt = no limit; 0 = no rows
};

/// Fluent plan builder. Cheap value type wrapping a PlanNodePtr.
class Plan {
 public:
  Plan() = default;
  explicit Plan(PlanNodePtr node) : node_(std::move(node)) {}

  /// Leaf: read a named table from the catalog. A non-empty `columns`
  /// list restricts the scan to those columns (projected read).
  static Plan Scan(std::string table, std::vector<std::string> columns = {});

  /// Projection replacing the schema with `projections`.
  Plan Map(std::vector<NamedExpr> projections) const;

  /// Keeps all input columns and appends `projections`.
  Plan Derive(std::vector<NamedExpr> projections) const;

  /// Keeps only the named input columns (pure column selection).
  Plan Project(const std::vector<std::string>& columns) const;

  Plan Filter(ExprPtr predicate) const;

  Plan Join(const Plan& right, JoinType type,
            std::vector<std::string> left_keys,
            std::vector<std::string> right_keys) const;

  /// Broadcast join against a single-row subplan (scalar subquery).
  Plan CrossJoin(const Plan& right) const;

  Plan Aggregate(std::vector<std::string> group_by,
                 std::vector<AggSpec> aggs) const;

  Plan Sort(std::vector<SortKey> keys,
            std::optional<size_t> limit = std::nullopt) const;

  Plan WithLabel(std::string label) const;

  const PlanNodePtr& node() const { return node_; }

 private:
  PlanNodePtr node_;
};

/// Convenience AggSpec factories.
inline AggSpec Sum(std::string input, std::string output) {
  return {AggFunc::kSum, std::move(input), std::move(output)};
}
inline AggSpec Count(std::string output) {  // count(*)
  return {AggFunc::kCount, "", std::move(output)};
}
inline AggSpec CountCol(std::string input, std::string output) {
  return {AggFunc::kCount, std::move(input), std::move(output)};
}
inline AggSpec Avg(std::string input, std::string output) {
  return {AggFunc::kAvg, std::move(input), std::move(output)};
}
inline AggSpec Min(std::string input, std::string output) {
  return {AggFunc::kMin, std::move(input), std::move(output)};
}
inline AggSpec Max(std::string input, std::string output) {
  return {AggFunc::kMax, std::move(input), std::move(output)};
}
inline AggSpec CountDistinct(std::string input, std::string output) {
  return {AggFunc::kCountDistinct, std::move(input), std::move(output)};
}
inline AggSpec VarOf(std::string input, std::string output) {
  return {AggFunc::kVar, std::move(input), std::move(output)};
}
inline AggSpec StddevOf(std::string input, std::string output) {
  return {AggFunc::kStddev, std::move(input), std::move(output)};
}
inline AggSpec MedianOf(std::string input, std::string output) {
  return {AggFunc::kMedian, std::move(input), std::move(output)};
}

/// Renders the plan tree as an indented string (debugging aid).
std::string PlanToString(const PlanNodePtr& node, int indent = 0);

}  // namespace wake

#endif  // WAKE_PLAN_PLAN_H_
