#include "frame/expr.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/error.h"
#include "common/strings.h"

namespace wake {

// The factories construct nodes directly; Expr's private constructor is
// reachable because the factories are static members.

ExprPtr Expr::Col(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Lit(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCompare;
  e->cmp_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogic;
  e->logic_op_ = LogicOp::kAnd;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogic;
  e->logic_op_ = LogicOp::kOr;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Not(ExprPtr c) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kNot;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::Like(ExprPtr input, std::string pattern) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLike;
  e->pattern_ = std::move(pattern);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::In(ExprPtr input, std::vector<Value> values) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kInList;
  e->list_ = std::move(values);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::Case(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCase;
  e->children_ = {std::move(cond), std::move(then_expr), std::move(else_expr)};
  return e;
}

ExprPtr Expr::Coalesce(ExprPtr input, Value fallback) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCoalesce;
  e->literal_ = std::move(fallback);
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::Substr(ExprPtr input, int64_t start, int64_t len) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kSubstr;
  e->substr_start_ = start;
  e->substr_len_ = len;
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::Year(ExprPtr input) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kYear;
  e->children_ = {std::move(input)};
  return e;
}

ExprPtr Expr::IsNull(ExprPtr input) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kIsNull;
  e->children_ = {std::move(input)};
  return e;
}

CompareOp Mirror(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

namespace {

// Reports a type-rule violation of `e`. The message is built only here:
// every served request runs the checker at Prepare.
[[noreturn]] void TypeError(const Expr& e, const char* rule) {
  throw Error("type error in " + e.ToString() + ": " + rule,
              ErrorCategory::kPlan);
}

bool IsString(ValueType t) { return t == ValueType::kString; }

}  // namespace

ValueType Expr::ResultType(const Schema& schema) const {
  // Truth values (AND/OR/NOT operands, CASE conditions) are read as
  // int64 words, so they must be stored as integers.
  auto truth = [&](const ExprPtr& c) {
    if (!IsIntPhysical(c->ResultType(schema))) {
      TypeError(*this, "operand is not a bool, int or date");
    }
  };
  switch (kind_) {
    case ExprKind::kColumn:
      return schema.field(schema.FieldIndex(name_)).type;
    case ExprKind::kLiteral:
      return literal_.type;
    case ExprKind::kArith: {
      ValueType l = children_[0]->ResultType(schema);
      ValueType r = children_[1]->ResultType(schema);
      if (IsString(l) || IsString(r)) TypeError(*this, "string operand");
      if (arith_op_ == ArithOp::kDiv || l == ValueType::kFloat64 ||
          r == ValueType::kFloat64) {
        return ValueType::kFloat64;
      }
      return ValueType::kInt64;
    }
    case ExprKind::kCompare:
      if (IsString(children_[0]->ResultType(schema)) !=
          IsString(children_[1]->ResultType(schema))) {
        TypeError(*this, "string compared with a number");
      }
      return ValueType::kBool;
    case ExprKind::kLogic:
    case ExprKind::kNot:
      for (const auto& c : children_) truth(c);
      return ValueType::kBool;
    case ExprKind::kLike:
      if (!IsString(children_[0]->ResultType(schema))) {
        TypeError(*this, "LIKE over a non-string");
      }
      return ValueType::kBool;
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      children_[0]->ResultType(schema);  // validates column references
      return ValueType::kBool;
    case ExprKind::kCase: {
      truth(children_[0]);
      ValueType t = children_[1]->ResultType(schema);
      ValueType f = children_[2]->ResultType(schema);
      if (IsString(t) != IsString(f)) {
        TypeError(*this, "branches mix strings and numbers");
      }
      if (t == ValueType::kFloat64 || f == ValueType::kFloat64) {
        return ValueType::kFloat64;
      }
      return t;
    }
    case ExprKind::kCoalesce: {
      ValueType t = children_[0]->ResultType(schema);
      if (IsString(t) != IsString(literal_.type)) {
        TypeError(*this, "fallback mixes strings and numbers");
      }
      return t;
    }
    case ExprKind::kSubstr:
      if (!IsString(children_[0]->ResultType(schema))) {
        TypeError(*this, "SUBSTR over a non-string");
      }
      return ValueType::kString;
    case ExprKind::kYear:
      if (children_[0]->ResultType(schema) != ValueType::kDate) {
        TypeError(*this, "YEAR over a non-date");
      }
      return ValueType::kInt64;
  }
  return ValueType::kInt64;
}

namespace {

// Numeric binary arithmetic over two evaluated columns.
Column EvalArith(ArithOp op, const Column& l, const Column& r) {
  size_t n = l.size();
  bool to_double = op == ArithOp::kDiv || l.type() == ValueType::kFloat64 ||
                   r.type() == ValueType::kFloat64;
  Column out(to_double ? ValueType::kFloat64 : ValueType::kInt64);
  if (to_double) {
    auto& v = *out.mutable_doubles();
    v.resize(n);
    for (size_t i = 0; i < n; ++i) {
      double a = l.DoubleAt(i), b = r.DoubleAt(i);
      switch (op) {
        case ArithOp::kAdd: v[i] = a + b; break;
        case ArithOp::kSub: v[i] = a - b; break;
        case ArithOp::kMul: v[i] = a * b; break;
        case ArithOp::kDiv: v[i] = b == 0.0 ? 0.0 : a / b; break;
      }
    }
  } else {
    auto& v = *out.mutable_ints();
    v.resize(n);
    const auto& a = l.ints();
    const auto& b = r.ints();
    for (size_t i = 0; i < n; ++i) {
      switch (op) {
        case ArithOp::kAdd: v[i] = a[i] + b[i]; break;
        case ArithOp::kSub: v[i] = a[i] - b[i]; break;
        case ArithOp::kMul: v[i] = a[i] * b[i]; break;
        case ArithOp::kDiv: break;  // unreachable: kDiv promotes
      }
    }
  }
  // Word-at-a-time null propagation: result validity is the AND of the
  // operand bitmaps — 64 rows per op, no per-row branches.
  if (l.has_nulls() && r.has_nulls()) {
    ValidityBitmap valid = l.validity();
    uint64_t* w = valid.mutable_words();
    const uint64_t* rw = r.validity().words();
    for (size_t k = 0; k < valid.num_words(); ++k) w[k] &= rw[k];
    out.set_validity(std::move(valid));
    out.CompactValidity();
  } else if (l.has_nulls() || r.has_nulls()) {
    out.set_validity(l.has_nulls() ? l.validity() : r.validity());
    out.CompactValidity();
  }
  return out;
}

// One side of a comparison kernel: a column's rows, or one scalar that
// stands for every row. Both compile to the same typed loops.
template <typename T>
struct Rows {
  const T* v;
  T operator[](size_t i) const { return v[i]; }
};
template <typename T>
struct Scalar {
  T v;
  T operator[](size_t) const { return v; }
};

// Truth words (see PackBits), one bit per row.
using Truth = std::vector<uint64_t>;

Truth AllFalse(size_t n) { return Truth(ValidityBitmap::WordsFor(n), 0); }

// Packs `a[i] op b[i]` for every row i < n into truth words.
template <typename A, typename B>
void CompareBits(CompareOp op, size_t n, A a, B b, uint64_t* out) {
  switch (op) {
    case CompareOp::kEq:
      PackBits(n, [&](size_t i) { return a[i] == b[i]; }, out);
      break;
    case CompareOp::kNe:
      PackBits(n, [&](size_t i) { return a[i] != b[i]; }, out);
      break;
    case CompareOp::kLt:
      PackBits(n, [&](size_t i) { return a[i] < b[i]; }, out);
      break;
    case CompareOp::kLe:
      PackBits(n, [&](size_t i) { return a[i] <= b[i]; }, out);
      break;
    case CompareOp::kGt:
      PackBits(n, [&](size_t i) { return a[i] > b[i]; }, out);
      break;
    case CompareOp::kGe:
      PackBits(n, [&](size_t i) { return a[i] >= b[i]; }, out);
      break;
  }
}

// Compares every row of the numeric column `l` with `b` (Rows or Scalar).
// Null slots hold defined 0/0.0 values, so computing them is safe; the
// caller clears them with ClearNullRows.
template <typename B>
void CompareNumeric(CompareOp op, const Column& l, B b, uint64_t* out) {
  if (IsIntPhysical(l.type())) {
    CompareBits(op, l.size(), Rows<int64_t>{l.ints().data()}, b, out);
  } else {
    CompareBits(op, l.size(), Rows<double>{l.doubles().data()}, b, out);
  }
}

// Clears the bits of the rows `c` marks null: one AND per 64 rows (the
// mask's padding bits are 1, so bits past the last row stay zero).
void ClearNullRows(const Column& c, Truth* t) {
  if (!c.has_nulls()) return;
  const uint64_t* mw = c.validity().words();
  for (size_t w = 0; w < t->size(); ++w) (*t)[w] &= mw[w];
}

// Packs memo[code] per row of the dict column `c`. Null rows (code
// kNullCode) read false; callers clear null rows anyway.
void MemoBits(const Column& c, const std::vector<uint8_t>& memo,
              uint64_t* out) {
  const int32_t* codes = c.codes().data();
  const uint8_t* m = memo.data();
  PackBits(c.size(), [&](size_t i) { return codes[i] >= 0 && m[codes[i]]; },
           out);
}

// Whether `op` holds for a three-way comparison result `c`.
bool Holds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return false;
}

// `l <op> r` row by row; a null operand row is false.
Truth CompareTruth(CompareOp op, const Column& l, const Column& r) {
  const size_t n = l.size();
  Truth t = AllFalse(n);
  if (l.type() != ValueType::kString && r.type() != ValueType::kString) {
    if (IsIntPhysical(r.type())) {
      CompareNumeric(op, l, Rows<int64_t>{r.ints().data()}, t.data());
    } else {
      CompareNumeric(op, l, Rows<double>{r.doubles().data()}, t.data());
    }
  } else {
    PackBits(n, [&](size_t i) { return Holds(op, l.CompareRows(i, r, i)); },
             t.data());
  }
  ClearNullRows(l, &t);
  ClearNullRows(r, &t);
  return t;
}

// `col <op> lit` without broadcasting the literal: equals
// CompareTruth(op, col, BroadcastLiteral(lit, n)).
Truth CompareScalarTruth(CompareOp op, const Column& col, const Value& lit) {
  const size_t n = col.size();
  Truth t = AllFalse(n);
  if (lit.is_null) return t;  // null compare -> false on every row
  if (col.type() != ValueType::kString) {
    if (IsIntPhysical(lit.type)) {
      CompareNumeric(op, col, Scalar<int64_t>{lit.i}, t.data());
    } else {
      CompareNumeric(op, col, Scalar<double>{lit.d}, t.data());
    }
  } else if (col.is_dict() && col.dict()->size() < n) {
    // Compare each distinct entry once, then map codes through the memo
    // (the LIKE rule: only when the dict is smaller than the partial).
    const StringDict& dict = *col.dict();
    std::vector<uint8_t> holds(dict.size());
    for (size_t k = 0; k < dict.size(); ++k) {
      holds[k] = Holds(op, dict.At(static_cast<int32_t>(k)).compare(lit.s));
    }
    MemoBits(col, holds, t.data());
  } else {
    PackBits(
        n, [&](size_t i) { return Holds(op, col.StringAt(i).compare(lit.s)); },
        t.data());
  }
  ClearNullRows(col, &t);
  return t;
}

// The all-valid 0/1 bool column of truth words: Eval of a predicate.
Column TruthColumn(const Truth& t, size_t n) {
  Column out(ValueType::kBool);
  auto& v = *out.mutable_ints();
  v.resize(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<int64_t>((t[i >> 6] >> (i & 63)) & 1);
  }
  return out;
}

// Broadcasts a literal to a column of length n.
Column BroadcastLiteral(const Value& lit, size_t n) {
  Column out(lit.type);
  if (lit.is_null || lit.type == ValueType::kString) {
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) out.AppendValue(lit);
  } else if (lit.type == ValueType::kFloat64) {
    out.mutable_doubles()->assign(n, lit.d);
  } else {
    out.mutable_ints()->assign(n, lit.i);
  }
  return out;
}

// A child's value for reading: a bare column is borrowed from `df`, not
// copied; anything else evaluates into `*owned`.
const Column& Operand(const Expr& e, const DataFrame& df, Column* owned) {
  if (e.kind() == ExprKind::kColumn) return df.ColumnByName(e.column_name());
  *owned = e.Eval(df);
  return *owned;
}

}  // namespace

Column Expr::Eval(const DataFrame& df) const {
  size_t n = df.num_rows();
  Column owned, owned_r;
  switch (kind_) {
    case ExprKind::kColumn:
      return df.ColumnByName(name_);
    case ExprKind::kLiteral:
      return BroadcastLiteral(literal_, n);
    case ExprKind::kArith:
      return EvalArith(arith_op_, Operand(*children_[0], df, &owned),
                       Operand(*children_[1], df, &owned_r));
    case ExprKind::kCompare:
    case ExprKind::kLogic:
    case ExprKind::kNot:
    case ExprKind::kLike:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      return TruthColumn(EvalTruth(df), n);
    case ExprKind::kCase: {
      const Truth cond = children_[0]->EvalTruth(df);
      const Column& t = Operand(*children_[1], df, &owned);
      const Column& f = Operand(*children_[2], df, &owned_r);
      bool to_double = t.type() == ValueType::kFloat64 ||
                       f.type() == ValueType::kFloat64;
      Column out(to_double ? ValueType::kFloat64 : t.type());
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const bool take_then = (cond[i >> 6] >> (i & 63)) & 1;
        const Column& src = take_then ? t : f;
        if (src.IsNull(i)) {
          out.AppendNull();
        } else if (to_double) {
          out.AppendDouble(src.DoubleAt(i));
        } else if (out.type() == ValueType::kString) {
          out.AppendFrom(src, i);  // keeps dict codes when branches share one
        } else {
          out.AppendInt(src.IntAt(i));
        }
      }
      return out;
    }
    case ExprKind::kCoalesce: {
      Column c = children_[0]->Eval(df);
      if (!c.has_nulls()) return c;
      Column out(c.type());
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (c.IsNull(i)) {
          out.AppendValue(literal_);
        } else {
          out.AppendFrom(c, i);
        }
      }
      return out;
    }
    case ExprKind::kSubstr: {
      const Column& c = Operand(*children_[0], df, &owned);
      CheckArg(c.type() == ValueType::kString, "SUBSTR over non-string");
      Column out(ValueType::kString);
      out.Reserve(n);
      const size_t start = static_cast<size_t>(
          std::max<int64_t>(substr_start_ - 1, 0));  // SQL is 1-based
      for (size_t i = 0; i < n; ++i) {
        if (c.IsNull(i)) {
          out.AppendNull();
          continue;
        }
        const std::string_view s = c.StringAt(i);
        out.AppendString(start >= s.size()
                             ? std::string_view()
                             : s.substr(start,
                                        static_cast<size_t>(substr_len_)));
      }
      return out;
    }
    case ExprKind::kYear: {
      const Column& c = Operand(*children_[0], df, &owned);
      Column out(ValueType::kInt64);
      auto& v = *out.mutable_ints();
      v.resize(n);
      for (size_t i = 0; i < n; ++i) v[i] = ExtractYear(c.ints()[i]);
      out.set_validity(c.validity());  // a null date has no year
      return out;
    }
  }
  throw Error("unreachable expr kind");
}

std::vector<uint64_t> Expr::EvalTruth(const DataFrame& df) const {
  const size_t n = df.num_rows();
  Column owned, owned_r;
  switch (kind_) {
    case ExprKind::kCompare: {
      // One literal operand compares as a scalar; a literal on the left
      // mirrors the operator.
      const Expr& l = *children_[0];
      const Expr& r = *children_[1];
      bool lit_l = l.kind_ == ExprKind::kLiteral;
      bool lit_r = r.kind_ == ExprKind::kLiteral;
      if (lit_r && !lit_l) {
        return CompareScalarTruth(cmp_op_, Operand(l, df, &owned),
                                  r.literal_);
      }
      if (lit_l && !lit_r) {
        return CompareScalarTruth(Mirror(cmp_op_), Operand(r, df, &owned),
                                  l.literal_);
      }
      return CompareTruth(cmp_op_, Operand(l, df, &owned),
                          Operand(r, df, &owned_r));
    }
    case ExprKind::kLogic: {
      // 64 rows per AND/OR.
      Truth t = children_[0]->EvalTruth(df);
      const Truth u = children_[1]->EvalTruth(df);
      if (logic_op_ == LogicOp::kAnd) {
        for (size_t w = 0; w < t.size(); ++w) t[w] &= u[w];
      } else {
        for (size_t w = 0; w < t.size(); ++w) t[w] |= u[w];
      }
      return t;
    }
    case ExprKind::kNot: {
      // A null operand row is false, so its complement is true.
      Truth t = children_[0]->EvalTruth(df);
      for (uint64_t& w : t) w = ~w;
      if ((n & 63) != 0) t.back() &= (1ULL << (n & 63)) - 1;
      return t;
    }
    case ExprKind::kLike: {
      const Column& c = Operand(*children_[0], df, &owned);
      CheckArg(c.type() == ValueType::kString, "LIKE over non-string");
      Truth t = AllFalse(n);
      if (c.is_dict() && c.dict()->size() < n) {
        // Match each distinct entry once, then map codes through the memo.
        // Only profitable when the dict is smaller than the partial —
        // small partials over a large shared dict stay row-wise.
        const StringDict& dict = *c.dict();
        std::vector<uint8_t> match(dict.size());
        for (size_t k = 0; k < dict.size(); ++k) {
          match[k] = LikeMatch(dict.At(static_cast<int32_t>(k)), pattern_);
        }
        MemoBits(c, match, t.data());
      } else {
        PackBits(
            n, [&](size_t i) { return LikeMatch(c.StringAt(i), pattern_); },
            t.data());
      }
      ClearNullRows(c, &t);
      return t;
    }
    case ExprKind::kInList: {
      const Column& c = Operand(*children_[0], df, &owned);
      Truth t = AllFalse(n);
      if (c.is_dict()) {
        // Membership per distinct entry once, then map codes.
        const StringDict& dict = *c.dict();
        std::vector<uint8_t> member(dict.size(), 0);
        for (const auto& cand : list_) {
          if (cand.type != ValueType::kString || cand.is_null) continue;
          int32_t code = dict.Find(cand.s);
          if (code != StringDict::kNotFound) member[code] = 1;
        }
        MemoBits(c, member, t.data());
        ClearNullRows(c, &t);
        return t;
      }
      // A row is in the list iff it equals some candidate as a Value: a
      // string only a string, a number any number (int/double promote).
      const bool is_string = c.type() == ValueType::kString;
      for (const auto& cand : list_) {
        if ((cand.type == ValueType::kString) != is_string) continue;
        const Truth eq = CompareScalarTruth(CompareOp::kEq, c, cand);
        for (size_t w = 0; w < t.size(); ++w) t[w] |= eq[w];
      }
      return t;
    }
    case ExprKind::kIsNull: {
      // Complement of the validity words; their padding bits are 1, so
      // bits past the last row come out zero.
      const Column& c = Operand(*children_[0], df, &owned);
      Truth t = AllFalse(n);
      if (c.has_nulls()) {
        const uint64_t* mw = c.validity().words();
        for (size_t w = 0; w < t.size(); ++w) t[w] = ~mw[w];
      }
      return t;
    }
    case ExprKind::kColumn:
      return Column::TruthWords(df.ColumnByName(name_));
    default:
      return Column::TruthWords(Eval(df));
  }
}

void Expr::EvalWithVariance(
    const DataFrame& df,
    const std::unordered_map<std::string, const std::vector<double>*>& var_of,
    Column* out_value, std::vector<double>* out_var) const {
  size_t n = df.num_rows();
  switch (kind_) {
    case ExprKind::kColumn: {
      *out_value = df.ColumnByName(name_);
      auto it = var_of.find(name_);
      if (it != var_of.end()) {
        *out_var = *it->second;
      } else {
        out_var->assign(n, 0.0);
      }
      return;
    }
    case ExprKind::kArith: {
      Column lv, rv;
      std::vector<double> lvar, rvar;
      children_[0]->EvalWithVariance(df, var_of, &lv, &lvar);
      children_[1]->EvalWithVariance(df, var_of, &rv, &rvar);
      *out_value = EvalArith(arith_op_, lv, rv);
      out_var->resize(n);
      for (size_t i = 0; i < n; ++i) {
        double a = lv.DoubleAt(i), b = rv.DoubleAt(i);
        double va = lvar[i], vb = rvar[i];
        switch (arith_op_) {
          case ArithOp::kAdd:
          case ArithOp::kSub:
            (*out_var)[i] = va + vb;
            break;
          case ArithOp::kMul:
            (*out_var)[i] = b * b * va + a * a * vb;
            break;
          case ArithOp::kDiv: {
            if (b == 0.0) {
              (*out_var)[i] = 0.0;
            } else {
              double f = a / b;
              (*out_var)[i] = va / (b * b) + f * f * vb / (b * b);
            }
            break;
          }
        }
      }
      return;
    }
    case ExprKind::kCase: {
      // Differentiable in the branches; the condition is a switch.
      const Truth cond = children_[0]->EvalTruth(df);
      Column tv, fv;
      std::vector<double> tvar, fvar;
      children_[1]->EvalWithVariance(df, var_of, &tv, &tvar);
      children_[2]->EvalWithVariance(df, var_of, &fv, &fvar);
      *out_value = Eval(df);
      out_var->resize(n);
      for (size_t i = 0; i < n; ++i) {
        const bool take_then = (cond[i >> 6] >> (i & 63)) & 1;
        (*out_var)[i] = take_then ? tvar[i] : fvar[i];
      }
      return;
    }
    default:
      // Literals, comparisons, strings etc.: exact values.
      *out_value = Eval(df);
      out_var->assign(n, 0.0);
      return;
  }
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  if (kind_ == ExprKind::kColumn) out->insert(name_);
  for (const auto& c : children_) c->CollectColumns(out);
}

bool Expr::ReadsMutable(const Schema& schema) const {
  std::set<std::string> cols;
  CollectColumns(&cols);
  for (const auto& c : cols) {
    size_t idx = schema.FindField(c);
    if (idx != Schema::npos && schema.field(idx).mutable_attr) return true;
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return name_;
    case ExprKind::kLiteral:
      return literal_.ToString();
    case ExprKind::kArith: {
      const char* ops[] = {"+", "-", "*", "/"};
      return "(" + children_[0]->ToString() + " " +
             ops[static_cast<int>(arith_op_)] + " " +
             children_[1]->ToString() + ")";
    }
    case ExprKind::kCompare: {
      const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
      return "(" + children_[0]->ToString() + " " +
             ops[static_cast<int>(cmp_op_)] + " " +
             children_[1]->ToString() + ")";
    }
    case ExprKind::kLogic:
      return "(" + children_[0]->ToString() +
             (logic_op_ == LogicOp::kAnd ? " AND " : " OR ") +
             children_[1]->ToString() + ")";
    case ExprKind::kNot:
      return "NOT " + children_[0]->ToString();
    case ExprKind::kLike:
      return children_[0]->ToString() + " LIKE '" + pattern_ + "'";
    case ExprKind::kInList:
      return children_[0]->ToString() + " IN (...)";
    case ExprKind::kCase:
      return "CASE WHEN " + children_[0]->ToString() + " THEN " +
             children_[1]->ToString() + " ELSE " + children_[2]->ToString() +
             " END";
    case ExprKind::kCoalesce:
      return "COALESCE(" + children_[0]->ToString() + ", " +
             literal_.ToString() + ")";
    case ExprKind::kSubstr:
      return "SUBSTR(" + children_[0]->ToString() + ")";
    case ExprKind::kYear:
      return "YEAR(" + children_[0]->ToString() + ")";
    case ExprKind::kIsNull:
      return children_[0]->ToString() + " IS NULL";
  }
  return "?";
}

}  // namespace wake
