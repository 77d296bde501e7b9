// Expression trees with vectorized evaluation over DataFrames.
//
// Expressions power map projections and filter predicates in every engine
// (Wake, the exact baseline, and the OLA baselines all interpret the same
// trees). Evaluation is column-at-a-time. A second evaluation mode
// propagates per-row variances via first-order Taylor expansion ("propagation
// of uncertainty", §6 of the paper), which the CI machinery uses for map
// expressions over mutable attributes.
//
// Null semantics: arithmetic propagates null; a comparison, LIKE or IN over
// a null row is false; logical AND/OR/NOT treat null as false, so NOT over
// a null row is true (sufficient for TPC-H, where nulls arise only from
// left joins and are consumed via Coalesce / count).
#ifndef WAKE_FRAME_EXPR_H_
#define WAKE_FRAME_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "frame/data_frame.h"

namespace wake {

enum class ExprKind : uint8_t {
  kColumn,
  kLiteral,
  kArith,
  kCompare,
  kLogic,
  kNot,
  kLike,
  kInList,
  kCase,      // CASE WHEN cond THEN a ELSE b END
  kCoalesce,  // first non-null of (child, fallback literal)
  kSubstr,
  kYear,    // EXTRACT(YEAR FROM date)
  kIsNull,  // IS NULL test (IS NOT NULL composes with kNot)
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
/// The operator that holds with the operands swapped: `a op b` is
/// `b Mirror(op) a`, so `<` becomes `>` and `=` stays `=`.
CompareOp Mirror(CompareOp op);
enum class LogicOp : uint8_t { kAnd, kOr };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression node.
class Expr {
 public:
  /// --- factories ---
  static ExprPtr Col(std::string name);
  static ExprPtr Lit(Value v);
  static ExprPtr Int(int64_t x) { return Lit(Value::Int(x)); }
  static ExprPtr Float(double x) { return Lit(Value::Float(x)); }
  static ExprPtr Str(std::string s) { return Lit(Value::Str(std::move(s))); }
  static ExprPtr Date(int y, int m, int d) {
    return Lit(Value::Date(DateToDays(y, m, d)));
  }
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr c);
  static ExprPtr Like(ExprPtr input, std::string pattern);
  static ExprPtr In(ExprPtr input, std::vector<Value> values);
  static ExprPtr Case(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr);
  static ExprPtr Coalesce(ExprPtr input, Value fallback);
  static ExprPtr Substr(ExprPtr input, int64_t start, int64_t len);
  static ExprPtr Year(ExprPtr input);
  static ExprPtr IsNull(ExprPtr input);

  ExprKind kind() const { return kind_; }
  const std::string& column_name() const { return name_; }
  const Value& literal() const { return literal_; }

  /// --- structural accessors (used by the plan optimizer to rewrite
  /// trees: constant folding, conjunction splitting, column renaming) ---
  const std::vector<ExprPtr>& children() const { return children_; }
  ArithOp arith_op() const { return arith_op_; }
  CompareOp cmp_op() const { return cmp_op_; }
  LogicOp logic_op() const { return logic_op_; }
  const std::string& like_pattern() const { return pattern_; }
  const std::vector<Value>& in_list() const { return list_; }
  int64_t substr_start() const { return substr_start_; }
  int64_t substr_len() const { return substr_len_; }

  /// Result type when evaluated against `schema`, and the one type
  /// checker: throws wake::Error(kPlan) for an unknown column or a tree
  /// Eval cannot evaluate. The rules:
  ///   - arithmetic takes no string operand;
  ///   - a comparison takes two strings or two numbers;
  ///   - AND/OR/NOT operands and CASE conditions are stored as integers
  ///     (bool, int or date);
  ///   - LIKE and SUBSTR take a string, YEAR a date;
  ///   - CASE branches, and a COALESCE input and its fallback, are both
  ///     strings or both numbers.
  /// InferProps runs it over every Map and Filter (a Filter predicate is a
  /// truth value too), so Db::Prepare rejects an ill-typed query before
  /// it runs.
  ValueType ResultType(const Schema& schema) const;

  /// Vectorized evaluation; returns a column of df.num_rows() values.
  /// A predicate (comparison, AND/OR/NOT, LIKE, IN, IS NULL) yields the
  /// all-valid 0/1 bool column of its EvalTruth words.
  Column Eval(const DataFrame& df) const;

  /// Truth words (see PackBits): bit i is set iff row i of Eval(df) is
  /// valid and non-zero; bits past the last row are zero. Predicates
  /// evaluate straight into words, and filters select from them, so no
  /// per-row value column materializes. Any other expression packs its
  /// Eval column.
  std::vector<uint64_t> EvalTruth(const DataFrame& df) const;

  /// Evaluation with first-order variance propagation. `var_of` maps column
  /// names to per-row variance vectors (columns absent from the map are
  /// treated as exact). Produces the value column and per-row variances of
  /// the result. Non-differentiable nodes (comparisons, LIKE, ...) yield
  /// zero variance.
  void EvalWithVariance(
      const DataFrame& df,
      const std::unordered_map<std::string, const std::vector<double>*>&
          var_of,
      Column* out_value, std::vector<double>* out_var) const;

  /// Names of all columns this expression reads.
  void CollectColumns(std::set<std::string>* out) const;

  /// True if the expression reads any attribute marked mutable in `schema`
  /// (decides Case 1 vs Case 3 treatment of filters, §2.3).
  bool ReadsMutable(const Schema& schema) const;

  std::string ToString() const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string name_;        // kColumn
  Value literal_;           // kLiteral / kCoalesce fallback
  ArithOp arith_op_ = ArithOp::kAdd;
  CompareOp cmp_op_ = CompareOp::kEq;
  LogicOp logic_op_ = LogicOp::kAnd;
  std::string pattern_;     // kLike
  std::vector<Value> list_;  // kInList
  int64_t substr_start_ = 0, substr_len_ = 0;
  std::vector<ExprPtr> children_;
};

/// Ergonomic operators for the query builders.
inline ExprPtr operator+(ExprPtr l, ExprPtr r) {
  return Expr::Arith(ArithOp::kAdd, std::move(l), std::move(r));
}
inline ExprPtr operator-(ExprPtr l, ExprPtr r) {
  return Expr::Arith(ArithOp::kSub, std::move(l), std::move(r));
}
inline ExprPtr operator*(ExprPtr l, ExprPtr r) {
  return Expr::Arith(ArithOp::kMul, std::move(l), std::move(r));
}
inline ExprPtr operator/(ExprPtr l, ExprPtr r) {
  return Expr::Arith(ArithOp::kDiv, std::move(l), std::move(r));
}

inline ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Expr::Cmp(CompareOp::kEq, std::move(l), std::move(r));
}
inline ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return Expr::Cmp(CompareOp::kNe, std::move(l), std::move(r));
}
inline ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return Expr::Cmp(CompareOp::kLt, std::move(l), std::move(r));
}
inline ExprPtr Le(ExprPtr l, ExprPtr r) {
  return Expr::Cmp(CompareOp::kLe, std::move(l), std::move(r));
}
inline ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return Expr::Cmp(CompareOp::kGt, std::move(l), std::move(r));
}
inline ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return Expr::Cmp(CompareOp::kGe, std::move(l), std::move(r));
}

}  // namespace wake

#endif  // WAKE_FRAME_EXPR_H_
