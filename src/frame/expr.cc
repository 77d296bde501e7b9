#include "frame/expr.h"

#include <algorithm>
#include <cmath>

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

template <typename A, typename B>
void CompareLoop(CompareOp op, size_t n, A a, B b, int64_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] == b[i];
      break;
    case CompareOp::kNe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] != b[i];
      break;
    case CompareOp::kLt:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] < b[i];
      break;
    case CompareOp::kLe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] <= b[i];
      break;
    case CompareOp::kGt:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] > b[i];
      break;
    case CompareOp::kGe:
      for (size_t i = 0; i < n; ++i) out[i] = a[i] >= b[i];
      break;
  }
}

// Compares every row of the numeric column `l` with `b` (Rows or Scalar).
// Null slots hold defined 0/0.0 values, so computing them is safe.
template <typename B>
void CompareNumeric(CompareOp op, const Column& l, B b, int64_t* out) {
  if (IsIntPhysical(l.type())) {
    CompareLoop(op, l.size(), Rows<int64_t>{l.ints().data()}, b, out);
  } else {
    CompareLoop(op, l.size(), Rows<double>{l.doubles().data()}, b, out);
  }
}

// Zeroes the rows of `out` that either mask marks null (null compare ->
// false). Either mask may be null; all-valid words skip their 64 rows in
// one test.
void ZeroNullRows(const uint64_t* lw, const uint64_t* rw, size_t n,
                  int64_t* out) {
  if (lw == nullptr && rw == nullptr) return;
  const size_t nwords = ValidityBitmap::WordsFor(n);
  for (size_t w = 0; w < nwords; ++w) {
    uint64_t word = ~0ULL;
    if (lw != nullptr) word &= lw[w];
    if (rw != nullptr) word &= rw[w];
    if (word == ~0ULL) continue;
    const size_t base = w << 6;
    const size_t lim = std::min(n, base + 64);
    for (size_t i = base; i < lim; ++i) {
      if (((word >> (i & 63)) & 1) == 0) out[i] = 0;
    }
  }
}

const uint64_t* NullWords(const Column& c) {
  return c.has_nulls() ? c.validity().words() : nullptr;
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

Column EvalCompare(CompareOp op, const Column& l, const Column& r) {
  size_t n = l.size();
  Column out(ValueType::kBool);
  auto& v = *out.mutable_ints();
  v.resize(n, 0);
  // Numeric columns compare in tight typed loops over every row, then
  // null rows are zeroed word-wise.
  if (l.type() != ValueType::kString && r.type() != ValueType::kString) {
    if (IsIntPhysical(r.type())) {
      CompareNumeric(op, l, Rows<int64_t>{r.ints().data()}, v.data());
    } else {
      CompareNumeric(op, l, Rows<double>{r.doubles().data()}, v.data());
    }
    ZeroNullRows(NullWords(l), NullWords(r), n, v.data());
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    if (l.IsNull(i) || r.IsNull(i)) continue;  // null compare -> false
    v[i] = Holds(op, l.CompareRows(i, r, i)) ? 1 : 0;
  }
  return out;
}

// `col <op> lit` without broadcasting the literal: every row equals
// EvalCompare(op, col, BroadcastLiteral(lit, n)).
Column EvalCompareScalar(CompareOp op, const Column& col, const Value& lit) {
  size_t n = col.size();
  Column out(ValueType::kBool);
  auto& v = *out.mutable_ints();
  v.resize(n, 0);
  if (lit.is_null) return out;  // null compare -> false on every row
  if (col.type() != ValueType::kString) {
    if (IsIntPhysical(lit.type)) {
      CompareNumeric(op, col, Scalar<int64_t>{lit.i}, v.data());
    } else {
      CompareNumeric(op, col, Scalar<double>{lit.d}, v.data());
    }
    ZeroNullRows(NullWords(col), nullptr, n, v.data());
    return out;
  }
  if (col.is_dict() && col.dict()->size() < n) {
    // Compare each distinct entry once, then map codes through the memo
    // (the LIKE rule: only when the dict is smaller than the partial).
    const StringDict& dict = *col.dict();
    std::vector<uint8_t> holds(dict.size());
    for (size_t k = 0; k < dict.size(); ++k) {
      holds[k] = Holds(op, dict.At(static_cast<int32_t>(k)).compare(lit.s));
    }
    const auto& codes = col.codes();
    for (size_t i = 0; i < n; ++i) {
      if (col.IsValid(i)) v[i] = holds[codes[i]];
    }
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    if (col.IsValid(i)) v[i] = Holds(op, col.StringAt(i).compare(lit.s));
  }
  return out;
}

// Packs "valid && non-zero" per row of a bool column into 64-row truth
// words: one autovectorizable packing pass, then logic ops combine whole
// words instead of branching per row.
void TruthWords(const Column& c, size_t n, std::vector<uint64_t>* out) {
  out->assign(ValidityBitmap::WordsFor(n), 0);
  const int64_t* v = c.ints().data();
  for (size_t i = 0; i < n; ++i) {
    (*out)[i >> 6] |= static_cast<uint64_t>(v[i] != 0) << (i & 63);
  }
  if (c.has_nulls()) {
    const uint64_t* mw = c.validity().words();
    for (size_t w = 0; w < out->size(); ++w) (*out)[w] &= mw[w];
  }
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

}  // namespace

Column Expr::Eval(const DataFrame& df) const {
  size_t n = df.num_rows();
  switch (kind_) {
    case ExprKind::kColumn:
      return df.ColumnByName(name_);
    case ExprKind::kLiteral:
      return BroadcastLiteral(literal_, n);
    case ExprKind::kArith:
      return EvalArith(arith_op_, children_[0]->Eval(df),
                       children_[1]->Eval(df));
    case ExprKind::kCompare: {
      // One literal operand compares as a scalar; a literal on the left
      // mirrors the operator.
      const Expr& l = *children_[0];
      const Expr& r = *children_[1];
      bool lit_l = l.kind_ == ExprKind::kLiteral;
      bool lit_r = r.kind_ == ExprKind::kLiteral;
      if (lit_r && !lit_l) {
        return EvalCompareScalar(cmp_op_, l.Eval(df), r.literal_);
      }
      if (lit_l && !lit_r) {
        return EvalCompareScalar(Mirror(cmp_op_), r.Eval(df), l.literal_);
      }
      return EvalCompare(cmp_op_, l.Eval(df), r.Eval(df));
    }
    case ExprKind::kLogic: {
      Column l = children_[0]->Eval(df);
      Column r = children_[1]->Eval(df);
      Column out(ValueType::kBool);
      auto& v = *out.mutable_ints();
      v.resize(n);
      // Truth-word combine: 64 rows per AND/OR.
      std::vector<uint64_t> ta, tb;
      TruthWords(l, n, &ta);
      TruthWords(r, n, &tb);
      if (logic_op_ == LogicOp::kAnd) {
        for (size_t w = 0; w < ta.size(); ++w) ta[w] &= tb[w];
      } else {
        for (size_t w = 0; w < ta.size(); ++w) ta[w] |= tb[w];
      }
      for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<int64_t>((ta[i >> 6] >> (i & 63)) & 1);
      }
      return out;
    }
    case ExprKind::kNot: {
      Column c = children_[0]->Eval(df);
      Column out(ValueType::kBool);
      auto& v = *out.mutable_ints();
      v.resize(n);
      std::vector<uint64_t> t;
      TruthWords(c, n, &t);
      for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<int64_t>(((t[i >> 6] >> (i & 63)) & 1) ^ 1);
      }
      return out;
    }
    case ExprKind::kLike: {
      Column c = children_[0]->Eval(df);
      CheckArg(c.type() == ValueType::kString, "LIKE over non-string");
      Column out(ValueType::kBool);
      auto& v = *out.mutable_ints();
      v.resize(n, 0);
      if (c.is_dict() && c.dict()->size() < n) {
        // Match each distinct entry once, then map codes through the memo.
        // Only profitable when the dict is smaller than the partial —
        // small partials over a large shared dict stay row-wise.
        const StringDict& dict = *c.dict();
        std::vector<uint8_t> match(dict.size());
        for (size_t k = 0; k < dict.size(); ++k) {
          match[k] = LikeMatch(dict.At(static_cast<int32_t>(k)), pattern_);
        }
        const auto& codes = c.codes();
        for (size_t i = 0; i < n; ++i) {
          if (c.IsValid(i)) v[i] = match[codes[i]];
        }
        return out;
      }
      for (size_t i = 0; i < n; ++i) {
        if (c.IsValid(i)) v[i] = LikeMatch(c.StringAt(i), pattern_) ? 1 : 0;
      }
      return out;
    }
    case ExprKind::kInList: {
      Column c = children_[0]->Eval(df);
      Column out(ValueType::kBool);
      auto& v = *out.mutable_ints();
      v.resize(n, 0);
      if (c.is_dict()) {
        // Membership per distinct entry once, then map codes.
        const StringDict& dict = *c.dict();
        std::vector<uint8_t> member(dict.size(), 0);
        for (const auto& cand : list_) {
          if (cand.type != ValueType::kString || cand.is_null) continue;
          int32_t code = dict.Find(cand.s);
          if (code != StringDict::kNotFound) member[code] = 1;
        }
        const auto& codes = c.codes();
        for (size_t i = 0; i < n; ++i) {
          if (c.IsValid(i)) v[i] = member[codes[i]];
        }
        return out;
      }
      for (size_t i = 0; i < n; ++i) {
        if (c.IsNull(i)) continue;
        Value row = c.GetValue(i);
        for (const auto& cand : list_) {
          if (row == cand) {
            v[i] = 1;
            break;
          }
        }
      }
      return out;
    }
    case ExprKind::kCase: {
      Column cond = children_[0]->Eval(df);
      Column t = children_[1]->Eval(df);
      Column f = children_[2]->Eval(df);
      bool to_double = t.type() == ValueType::kFloat64 ||
                       f.type() == ValueType::kFloat64;
      Column out(to_double ? ValueType::kFloat64 : t.type());
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        bool take_then = cond.IsValid(i) && cond.ints()[i] != 0;
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
      Column c = children_[0]->Eval(df);
      CheckArg(c.type() == ValueType::kString, "SUBSTR over non-string");
      Column out(ValueType::kString);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const std::string& s = c.StringAt(i);
        size_t start = static_cast<size_t>(std::max<int64_t>(
            substr_start_ - 1, 0));  // SQL is 1-based
        if (start >= s.size()) {
          out.AppendString("");
        } else {
          out.AppendString(
              s.substr(start, static_cast<size_t>(substr_len_)));
        }
      }
      return out;
    }
    case ExprKind::kYear: {
      Column c = children_[0]->Eval(df);
      Column out(ValueType::kInt64);
      auto& v = *out.mutable_ints();
      v.resize(n);
      for (size_t i = 0; i < n; ++i) v[i] = ExtractYear(c.ints()[i]);
      return out;
    }
    case ExprKind::kIsNull: {
      Column c = children_[0]->Eval(df);
      Column out(ValueType::kBool);
      auto& v = *out.mutable_ints();
      v.resize(n, 0);
      if (c.has_nulls()) {
        // Complement of the validity bitmap, expanded word-by-word;
        // all-valid words skip their 64 rows.
        const uint64_t* mw = c.validity().words();
        const size_t nwords = ValidityBitmap::WordsFor(n);
        for (size_t w = 0; w < nwords; ++w) {
          if (mw[w] == ~0ULL) continue;
          const size_t base = w << 6;
          const size_t lim = std::min(n, base + 64);
          for (size_t i = base; i < lim; ++i) {
            v[i] = static_cast<int64_t>(((mw[w] >> (i & 63)) & 1) ^ 1);
          }
        }
      }
      return out;
    }
  }
  throw Error("unreachable expr kind");
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
      Column cond = children_[0]->Eval(df);
      Column tv, fv;
      std::vector<double> tvar, fvar;
      children_[1]->EvalWithVariance(df, var_of, &tv, &tvar);
      children_[2]->EvalWithVariance(df, var_of, &fv, &fvar);
      *out_value = Eval(df);
      out_var->resize(n);
      for (size_t i = 0; i < n; ++i) {
        bool take_then = cond.IsValid(i) && cond.ints()[i] != 0;
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
