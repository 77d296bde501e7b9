#include "frame/expr.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/strings.h"

namespace wake {
namespace {

DataFrame TestFrame() {
  Schema schema({{"i", ValueType::kInt64},
                 {"f", ValueType::kFloat64},
                 {"s", ValueType::kString},
                 {"d", ValueType::kDate}});
  DataFrame df(schema);
  *df.mutable_column(0) = Column::FromInts({1, 2, 3});
  *df.mutable_column(1) = Column::FromDoubles({0.5, 1.5, 2.5});
  *df.mutable_column(2) =
      Column::FromStrings({"PROMO TIN", "STANDARD BRASS", "PROMO BRASS"});
  *df.mutable_column(3) = Column::FromInts(
      {DateToDays(1994, 5, 1), DateToDays(1995, 7, 1), DateToDays(1996, 1, 1)},
      ValueType::kDate);
  return df;
}

TEST(ExprTest, ColumnAndLiteral) {
  DataFrame df = TestFrame();
  Column c = Expr::Col("i")->Eval(df);
  EXPECT_EQ(c.IntAt(2), 3);
  Column lit = Expr::Int(7)->Eval(df);
  ASSERT_EQ(lit.size(), 3u);
  EXPECT_EQ(lit.IntAt(0), 7);
}

TEST(ExprTest, UnknownColumnThrows) {
  DataFrame df = TestFrame();
  EXPECT_THROW(Expr::Col("zzz")->Eval(df), Error);
}

TEST(ExprTest, IntArithmeticStaysInt) {
  DataFrame df = TestFrame();
  Column c = (Expr::Col("i") * Expr::Int(10) + Expr::Int(1))->Eval(df);
  EXPECT_EQ(c.type(), ValueType::kInt64);
  EXPECT_EQ(c.IntAt(1), 21);
}

TEST(ExprTest, MixedArithmeticPromotesToFloat) {
  DataFrame df = TestFrame();
  Column c = (Expr::Col("i") + Expr::Col("f"))->Eval(df);
  EXPECT_EQ(c.type(), ValueType::kFloat64);
  EXPECT_DOUBLE_EQ(c.DoubleAt(0), 1.5);
}

TEST(ExprTest, DivisionAlwaysFloatAndGuardsZero) {
  DataFrame df = TestFrame();
  Column c = (Expr::Col("i") / Expr::Int(2))->Eval(df);
  EXPECT_EQ(c.type(), ValueType::kFloat64);
  EXPECT_DOUBLE_EQ(c.DoubleAt(2), 1.5);
  Column z = (Expr::Col("i") / Expr::Int(0))->Eval(df);
  EXPECT_DOUBLE_EQ(z.DoubleAt(0), 0.0);  // div-by-zero yields 0, not inf
}

TEST(ExprTest, Comparisons) {
  DataFrame df = TestFrame();
  Column ge = Ge(Expr::Col("i"), Expr::Int(2))->Eval(df);
  EXPECT_EQ(ge.IntAt(0), 0);
  EXPECT_EQ(ge.IntAt(1), 1);
  EXPECT_EQ(ge.IntAt(2), 1);
  Column ne = Ne(Expr::Col("s"), Expr::Str("PROMO TIN"))->Eval(df);
  EXPECT_EQ(ne.IntAt(0), 0);
  EXPECT_EQ(ne.IntAt(1), 1);
}

TEST(ExprTest, MixedNumericComparison) {
  DataFrame df = TestFrame();
  Column c = Lt(Expr::Col("f"), Expr::Col("i"))->Eval(df);  // 0.5<1, 1.5<2, 2.5<3
  EXPECT_EQ(c.IntAt(0), 1);
  EXPECT_EQ(c.IntAt(1), 1);
  EXPECT_EQ(c.IntAt(2), 1);
}

TEST(ExprTest, DateComparison) {
  DataFrame df = TestFrame();
  Column c = Lt(Expr::Col("d"), Expr::Date(1995, 1, 1))->Eval(df);
  EXPECT_EQ(c.IntAt(0), 1);
  EXPECT_EQ(c.IntAt(1), 0);
}

// Compares `col <op> lit`, with the literal on either side, with the same
// comparison against a column holding `lit` in every row: the two must
// agree on every row, for every operator.
void ExpectLiteralCompareMatchesColumn(const Column& col, const Value& lit) {
  Column k(lit.type);
  for (size_t i = 0; i < col.size(); ++i) k.AppendValue(lit);
  DataFrame df(Schema({{"c", col.type()}, {"k", lit.type}}));
  *df.mutable_column(0) = col;
  *df.mutable_column(1) = k;
  const ExprPtr c = Expr::Col("c");
  const ExprPtr k_col = Expr::Col("k");
  const ExprPtr l = Expr::Lit(lit);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    Column right = Expr::Cmp(op, c, l)->Eval(df);
    Column left = Expr::Cmp(op, l, c)->Eval(df);
    Column right_want = Expr::Cmp(op, c, k_col)->Eval(df);
    Column left_want = Expr::Cmp(op, k_col, c)->Eval(df);
    const std::string what = Expr::Cmp(op, c, l)->ToString() + " over " +
                             ValueTypeName(col.type()) +
                             (col.is_dict() ? " dict of " +
                                  std::to_string(col.dict()->size())
                                            : "");
    EXPECT_FALSE(right.has_nulls() || left.has_nulls()) << what;
    EXPECT_EQ(right.ints(), right_want.ints()) << what;
    EXPECT_EQ(left.ints(), left_want.ints()) << what << ", literal left";
  }
}

TEST(ExprTest, LiteralComparisonsMatchTheBroadcastColumn) {
  const size_t n = 12;
  std::vector<int64_t> ints, days;
  std::vector<double> doubles;
  std::vector<std::string> words;
  std::vector<int32_t> codes;
  const char* fruit[] = {"apple", "banana", "cherry"};
  auto big = std::make_shared<StringDict>();
  for (int e = 0; e < 40; ++e) big->Intern("e" + std::to_string(10 + e));
  for (size_t i = 0; i < n; ++i) {
    const auto x = static_cast<int64_t>(i) - 5;
    ints.push_back(x);
    days.push_back(DateToDays(1995, 1, 1) + x);
    doubles.push_back(0.5 * static_cast<double>(x));
    words.push_back(fruit[i % 3]);
    codes.push_back(static_cast<int32_t>((i * 7) % 40));
  }
  std::vector<Column> cols = {
      Column::FromInts(ints), Column::FromInts(days, ValueType::kDate),
      Column::FromDoubles(doubles),
      Column::FromStrings(words),  // 3 entries: fewer than the rows
      Column::DictFromCodes(big, codes)};  // 40 entries: more than the rows
  ASSERT_LT(cols[3].dict()->size(), n);
  ASSERT_GT(cols[4].dict()->size(), n);
  for (Column& col : cols) {
    col.SetNull(3);
    col.SetNull(7);
  }

  const int64_t day = DateToDays(1995, 1, 1);
  const std::vector<Value> int_lits = {
      Value::Int(0),      Value::Int(-5),     Value::Int(100),
      Value::Float(1.5),  Value::Float(-5.0), Value::Date(day),
      Value::Date(day + 3), Value::Null(ValueType::kInt64)};
  const std::vector<Value> double_lits = {
      Value::Float(1.5), Value::Float(0.25), Value::Int(2), Value::Int(-3),
      Value::Null(ValueType::kFloat64)};
  const std::vector<Value> string_lits = {
      Value::Str("banana"), Value::Str("e17"), Value::Str(""),
      Value::Str("b"),      Value::Str("zzz"), Value::Null(ValueType::kString)};
  for (const Column& col : cols) {
    const auto& lits = col.type() == ValueType::kString   ? string_lits
                       : col.type() == ValueType::kFloat64 ? double_lits
                                                           : int_lits;
    for (const Value& lit : lits) ExpectLiteralCompareMatchesColumn(col, lit);
  }
}

// Row-wise reference semantics of a predicate, over Values: a null
// operand makes a comparison, LIKE or IN false; AND/OR/NOT read null as
// false; numbers compare promoted to double only when one side is a
// double.
Value RefValue(const Expr& e, const DataFrame& df, size_t row) {
  if (e.kind() == ExprKind::kLiteral) return e.literal();
  if (e.kind() == ExprKind::kColumn) {
    return df.ColumnByName(e.column_name()).GetValue(row);
  }
  return e.Eval(df).GetValue(row);
}

bool RefTruth(const Expr& e, const DataFrame& df, size_t row) {
  const auto& ch = e.children();
  switch (e.kind()) {
    case ExprKind::kCompare: {
      const Value a = RefValue(*ch[0], df, row);
      const Value b = RefValue(*ch[1], df, row);
      if (a.is_null || b.is_null) return false;
      int c;
      if (a.type == ValueType::kString) {
        c = a.s.compare(b.s);
      } else if (a.type == ValueType::kFloat64 ||
                 b.type == ValueType::kFloat64) {
        const double x = a.AsDouble(), y = b.AsDouble();
        switch (e.cmp_op()) {
          case CompareOp::kEq: return x == y;
          case CompareOp::kNe: return x != y;
          default: c = x < y ? -1 : (x > y ? 1 : 0);
        }
      } else {
        c = a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
      }
      switch (e.cmp_op()) {
        case CompareOp::kEq: return c == 0;
        case CompareOp::kNe: return c != 0;
        case CompareOp::kLt: return c < 0;
        case CompareOp::kLe: return c <= 0;
        case CompareOp::kGt: return c > 0;
        case CompareOp::kGe: return c >= 0;
      }
      return false;
    }
    case ExprKind::kLogic:
      return e.logic_op() == LogicOp::kAnd
                 ? RefTruth(*ch[0], df, row) && RefTruth(*ch[1], df, row)
                 : RefTruth(*ch[0], df, row) || RefTruth(*ch[1], df, row);
    case ExprKind::kNot:
      return !RefTruth(*ch[0], df, row);
    case ExprKind::kLike: {
      const Value v = RefValue(*ch[0], df, row);
      return !v.is_null && LikeMatch(v.s, e.like_pattern());
    }
    case ExprKind::kInList: {
      const Value v = RefValue(*ch[0], df, row);
      if (v.is_null) return false;
      for (const Value& cand : e.in_list()) {
        if (v == cand) return true;
      }
      return false;
    }
    case ExprKind::kIsNull:
      return RefValue(*ch[0], df, row).is_null;
    default: {
      const Value v = RefValue(e, df, row);
      return !v.is_null && v.i != 0;
    }
  }
}

// Frame of n rows for the truth-word tests: numbers, dates, strings (two
// columns over 5-entry dictionaries of their own, and one over 5000
// entries, larger than every frame here), and a bool, each with nulls.
DataFrame TruthFrame(size_t n) {
  static const auto big = [] {
    auto d = std::make_shared<StringDict>();
    for (int e = 0; e < 5000; ++e) d->Intern("e" + std::to_string(e));
    return d;
  }();
  const char* fruit[] = {"apple", "banana", "cherry", "b", ""};
  std::vector<int64_t> i, j, d, b;
  std::vector<double> f;
  std::vector<std::string> s;
  std::vector<int32_t> codes;
  for (size_t r = 0; r < n; ++r) {
    const auto x = static_cast<int64_t>((r * 7) % 11) - 5;
    i.push_back(x);
    j.push_back(static_cast<int64_t>((r * 3) % 7) - 3);
    d.push_back(DateToDays(1995, 1, 1) + x);
    f.push_back(0.5 * static_cast<double>((r * 5) % 9) - 1.0);
    s.push_back(fruit[(r * 3) % 5]);
    codes.push_back(static_cast<int32_t>((r * 13) % 5000));
    b.push_back(static_cast<int64_t>(r % 3));
  }
  DataFrame df(Schema({{"i", ValueType::kInt64},
                       {"j", ValueType::kInt64},
                       {"d", ValueType::kDate},
                       {"f", ValueType::kFloat64},
                       {"s", ValueType::kString},
                       {"ds", ValueType::kString},
                       {"big", ValueType::kString},
                       {"b", ValueType::kBool}}));
  *df.mutable_column(0) = Column::FromInts(i);
  *df.mutable_column(1) = Column::FromInts(j);
  *df.mutable_column(2) = Column::FromInts(d, ValueType::kDate);
  *df.mutable_column(3) = Column::FromDoubles(f);
  *df.mutable_column(4) = Column::FromStrings(s);
  *df.mutable_column(5) = Column::FromStrings(s);
  *df.mutable_column(6) = Column::DictFromCodes(big, codes);
  *df.mutable_column(7) = Column::FromInts(b, ValueType::kBool);
  for (size_t c = 0; c < df.num_columns(); ++c) {
    for (size_t r = c % 4; r < n; r += 4 + c) df.mutable_column(c)->SetNull(r);
  }
  return df;
}

std::vector<ExprPtr> TruthPredicates() {
  const auto i = Expr::Col("i"), j = Expr::Col("j"), d = Expr::Col("d"),
             f = Expr::Col("f"), s = Expr::Col("s"), ds = Expr::Col("ds"),
             big = Expr::Col("big"), b = Expr::Col("b");
  const int64_t day = DateToDays(1995, 1, 1);
  std::vector<ExprPtr> atoms;
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const auto& [col, lit] : std::vector<std::pair<ExprPtr, ExprPtr>>{
             {i, Expr::Int(1)},
             {i, Expr::Float(0.5)},
             {i, Expr::Float(-2.0)},
             {f, Expr::Int(0)},
             {f, Expr::Float(1.5)},
             {d, Expr::Lit(Value::Date(day))},
             {d, Expr::Int(day - 2)},
             {i, Expr::Lit(Value::Null(ValueType::kInt64))},
             {f, Expr::Lit(Value::Null(ValueType::kFloat64))},
             {s, Expr::Str("b")},
             {ds, Expr::Str("banana")},
             {big, Expr::Str("e17")},
             {ds, Expr::Lit(Value::Null(ValueType::kString))}}) {
      atoms.push_back(Expr::Cmp(op, col, lit));
      atoms.push_back(Expr::Cmp(op, lit, col));
    }
    for (const auto& [l, r] : std::vector<std::pair<ExprPtr, ExprPtr>>{
             {i, j}, {i, f}, {f, j}, {d, d}, {s, ds}, {ds, big},
             {i + Expr::Int(1), j}}) {
      atoms.push_back(Expr::Cmp(op, l, r));
    }
  }
  atoms.push_back(Expr::Like(s, "b%"));
  atoms.push_back(Expr::Like(ds, "%an%"));
  atoms.push_back(Expr::Like(big, "e1%"));
  atoms.push_back(Expr::In(ds, {Value::Str("apple"), Value::Str("zzz"),
                                Value::Str(""), Value::Int(1)}));
  atoms.push_back(Expr::In(big, {Value::Str("e13"), Value::Str("e26")}));
  atoms.push_back(Expr::In(s, {Value::Str("b"), Value::Str("cherry"),
                               Value::Null(ValueType::kString)}));
  atoms.push_back(Expr::In(i, {Value::Int(1), Value::Float(-2.0),
                               Value::Float(0.5), Value::Str("1"),
                               Value::Null(ValueType::kInt64)}));
  atoms.push_back(Expr::In(f, {Value::Int(0), Value::Float(1.5)}));
  atoms.push_back(Expr::In(d, {Value::Date(day), Value::Int(day + 3)}));
  for (const auto& c : {i, f, d, s, ds, big, b}) {
    atoms.push_back(Expr::IsNull(c));
    atoms.push_back(Expr::Not(Expr::IsNull(c)));
  }
  atoms.push_back(b);
  atoms.push_back(Expr::Not(b));
  atoms.push_back(Expr::Case(Gt(i, j), b, Expr::Int(1)));
  // AND/OR/NOT nested three deep over the atoms above.
  std::vector<ExprPtr> preds = atoms;
  for (size_t k = 0; k + 4 < atoms.size(); k += 3) {
    preds.push_back(Expr::And(
        Expr::Or(atoms[k], Expr::Not(atoms[k + 1])),
        Expr::Not(Expr::And(atoms[k + 2],
                            Expr::Or(atoms[k + 3], atoms[k + 4])))));
  }
  return preds;
}

TEST(ExprTest, TruthWordsEqualTheBoolColumn) {
  const std::vector<ExprPtr> preds = TruthPredicates();
  for (size_t n : {1, 63, 64, 65, 4100}) {
    const DataFrame df = TruthFrame(n);
    for (const ExprPtr& p : preds) {
      const std::string what = p->ToString() + " over " + std::to_string(n);
      const std::vector<uint64_t> t = p->EvalTruth(df);
      ASSERT_EQ(t.size(), ValidityBitmap::WordsFor(n)) << what;
      if (n % 64 != 0) {
        EXPECT_EQ(t.back() >> (n % 64), 0u) << what << ": bits past the end";
      }
      const Column c = p->Eval(df);
      ASSERT_EQ(c.size(), n) << what;
      for (size_t r = 0; r < n; ++r) {
        const bool bit = (t[r >> 6] >> (r & 63)) & 1;
        ASSERT_EQ(bit, c.IsValid(r) && c.ints()[r] != 0)
            << what << " row " << r;
        ASSERT_EQ(bit, RefTruth(*p, df, r)) << what << " row " << r;
      }
    }
  }
}

TEST(ExprTest, LogicAndOrNot) {
  DataFrame df = TestFrame();
  auto a = Gt(Expr::Col("i"), Expr::Int(1));
  auto b = Lt(Expr::Col("f"), Expr::Float(2.0));
  Column band = Expr::And(a, b)->Eval(df);
  EXPECT_EQ(band.IntAt(0), 0);
  EXPECT_EQ(band.IntAt(1), 1);
  EXPECT_EQ(band.IntAt(2), 0);
  Column bor = Expr::Or(a, b)->Eval(df);
  EXPECT_EQ(bor.IntAt(0), 1);
  EXPECT_EQ(bor.IntAt(2), 1);
  Column bnot = Expr::Not(a)->Eval(df);
  EXPECT_EQ(bnot.IntAt(0), 1);
  EXPECT_EQ(bnot.IntAt(1), 0);
}

TEST(ExprTest, LikeAndIn) {
  DataFrame df = TestFrame();
  Column like = Expr::Like(Expr::Col("s"), "PROMO%")->Eval(df);
  EXPECT_EQ(like.IntAt(0), 1);
  EXPECT_EQ(like.IntAt(1), 0);
  EXPECT_EQ(like.IntAt(2), 1);
  Column in = Expr::In(Expr::Col("i"),
                       {Value::Int(1), Value::Int(3)})->Eval(df);
  EXPECT_EQ(in.IntAt(0), 1);
  EXPECT_EQ(in.IntAt(1), 0);
  EXPECT_EQ(in.IntAt(2), 1);
}

TEST(ExprTest, LikeOverNonStringThrows) {
  DataFrame df = TestFrame();
  EXPECT_THROW(Expr::Like(Expr::Col("i"), "%x%")->Eval(df), Error);
}

TEST(ExprTest, CaseWhen) {
  DataFrame df = TestFrame();
  Column c = Expr::Case(Gt(Expr::Col("i"), Expr::Int(1)), Expr::Col("f"),
                        Expr::Float(0.0))
                 ->Eval(df);
  EXPECT_DOUBLE_EQ(c.DoubleAt(0), 0.0);
  EXPECT_DOUBLE_EQ(c.DoubleAt(1), 1.5);
}

TEST(ExprTest, CaseMixedIntFloatPromotes) {
  DataFrame df = TestFrame();
  Column c = Expr::Case(Gt(Expr::Col("i"), Expr::Int(1)), Expr::Col("i"),
                        Expr::Float(0.5))
                 ->Eval(df);
  EXPECT_EQ(c.type(), ValueType::kFloat64);
  EXPECT_DOUBLE_EQ(c.DoubleAt(0), 0.5);
  EXPECT_DOUBLE_EQ(c.DoubleAt(2), 3.0);
}

TEST(ExprTest, CoalesceReplacesNulls) {
  Schema schema({{"x", ValueType::kInt64}});
  DataFrame df(schema);
  df.mutable_column(0)->AppendInt(5);
  df.mutable_column(0)->AppendNull();
  Column c = Expr::Coalesce(Expr::Col("x"), Value::Int(0))->Eval(df);
  EXPECT_EQ(c.IntAt(0), 5);
  EXPECT_EQ(c.IntAt(1), 0);
  EXPECT_FALSE(c.has_nulls());
}

TEST(ExprTest, SubstrIsOneBased) {
  DataFrame df = TestFrame();
  Column c = Expr::Substr(Expr::Col("s"), 1, 5)->Eval(df);
  EXPECT_EQ(c.StringAt(0), "PROMO");
  Column c2 = Expr::Substr(Expr::Col("s"), 7, 3)->Eval(df);
  EXPECT_EQ(c2.StringAt(0), "TIN");
}

TEST(ExprTest, Year) {
  DataFrame df = TestFrame();
  Column c = Expr::Year(Expr::Col("d"))->Eval(df);
  EXPECT_EQ(c.IntAt(0), 1994);
  EXPECT_EQ(c.IntAt(2), 1996);
}

TEST(ExprTest, SubstrAndYearOfNullAreNull) {
  // SQL: a function of NULL is NULL, not '' or 1970.
  Schema schema({{"s", ValueType::kString}, {"d", ValueType::kDate}});
  DataFrame df(schema);
  df.mutable_column(0)->AppendString("PROMO TIN");
  df.mutable_column(0)->AppendNull();
  df.mutable_column(1)->AppendInt(DateToDays(1994, 3, 1));
  df.mutable_column(1)->AppendNull();
  Column sub = Expr::Substr(Expr::Col("s"), 1, 2)->Eval(df);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.StringAt(0), "PR");
  EXPECT_TRUE(sub.IsNull(1));
  Column year = Expr::Year(Expr::Col("d"))->Eval(df);
  ASSERT_EQ(year.size(), 2u);
  EXPECT_EQ(year.IntAt(0), 1994);
  EXPECT_TRUE(year.IsNull(1));
}

TEST(ExprTest, NullPropagationThroughArithmetic) {
  Schema schema({{"x", ValueType::kInt64}});
  DataFrame df(schema);
  df.mutable_column(0)->AppendInt(1);
  df.mutable_column(0)->AppendNull();
  Column c = (Expr::Col("x") + Expr::Int(1))->Eval(df);
  EXPECT_EQ(c.IntAt(0), 2);
  EXPECT_TRUE(c.IsNull(1));
  // Comparisons with null are false, not null.
  Column cmp = Gt(Expr::Col("x"), Expr::Int(0))->Eval(df);
  EXPECT_EQ(cmp.IntAt(0), 1);
  EXPECT_EQ(cmp.IntAt(1), 0);
}

TEST(ExprTest, IsNull) {
  Schema schema({{"x", ValueType::kInt64}});
  DataFrame df(schema);
  df.mutable_column(0)->AppendInt(5);
  df.mutable_column(0)->AppendNull();
  Column c = Expr::IsNull(Expr::Col("x"))->Eval(df);
  EXPECT_EQ(c.IntAt(0), 0);
  EXPECT_EQ(c.IntAt(1), 1);
  Column nn = Expr::Not(Expr::IsNull(Expr::Col("x")))->Eval(df);
  EXPECT_EQ(nn.IntAt(0), 1);
  EXPECT_EQ(nn.IntAt(1), 0);
  EXPECT_EQ(Expr::IsNull(Expr::Col("x"))->ResultType(schema),
            ValueType::kBool);
  EXPECT_NE(Expr::IsNull(Expr::Col("x"))->ToString().find("IS NULL"),
            std::string::npos);
}

TEST(ExprTest, ResultTypeInference) {
  Schema schema = TestFrame().schema();
  EXPECT_EQ(Expr::Col("i")->ResultType(schema), ValueType::kInt64);
  EXPECT_EQ((Expr::Col("i") + Expr::Col("f"))->ResultType(schema),
            ValueType::kFloat64);
  EXPECT_EQ((Expr::Col("i") / Expr::Int(2))->ResultType(schema),
            ValueType::kFloat64);
  EXPECT_EQ(Gt(Expr::Col("i"), Expr::Int(0))->ResultType(schema),
            ValueType::kBool);
  EXPECT_EQ(Expr::Substr(Expr::Col("s"), 1, 2)->ResultType(schema),
            ValueType::kString);
  EXPECT_EQ(Expr::Year(Expr::Col("d"))->ResultType(schema),
            ValueType::kInt64);
}

TEST(ExprTest, ResultTypeRejectsWhatEvalCannotEvaluate) {
  Schema schema = TestFrame().schema();
  const ExprPtr pred = Gt(Expr::Col("i"), Expr::Int(1));
  const ExprPtr ill_typed[] = {
      Expr::Col("s") + Expr::Int(1),
      Expr::Int(1) / Expr::Col("s"),
      Lt(Expr::Col("s"), Expr::Int(5)),
      Eq(Expr::Float(1.0), Expr::Col("s")),
      Expr::And(Expr::Col("f"), pred),
      Expr::Or(pred, Expr::Col("s")),
      Expr::Not(Expr::Col("f")),
      Expr::Case(Expr::Col("f"), Expr::Int(1), Expr::Int(2)),
      Expr::Case(pred, Expr::Col("s"), Expr::Int(1)),
      Expr::Coalesce(Expr::Col("i"), Value::Str("none")),
      Expr::Like(Expr::Col("i"), "1%"),
      Expr::Substr(Expr::Col("f"), 1, 2),
      Expr::Year(Expr::Col("i")),
  };
  for (const ExprPtr& e : ill_typed) {
    try {
      e->ResultType(schema);
      ADD_FAILURE() << "expected a type error for " << e->ToString();
    } catch (const Error& err) {
      EXPECT_EQ(err.category(), ErrorCategory::kPlan) << err.what();
    }
  }
  // A division's operands are checked too: an unknown column throws.
  EXPECT_THROW((Expr::Col("zzz") / Expr::Int(2))->ResultType(schema), Error);
  // Integer-stored truth values, same-kind branches and numeric fallbacks
  // of another numeric type are well typed.
  EXPECT_EQ(Expr::And(Expr::Col("i"), Expr::Col("d"))->ResultType(schema),
            ValueType::kBool);
  EXPECT_EQ(Expr::Case(pred, Expr::Col("s"), Expr::Str("x"))
                ->ResultType(schema),
            ValueType::kString);
  EXPECT_EQ(Expr::Coalesce(Expr::Col("f"), Value::Int(0))->ResultType(schema),
            ValueType::kFloat64);
  EXPECT_EQ(Lt(Expr::Col("d"), Expr::Col("f"))->ResultType(schema),
            ValueType::kBool);
}

TEST(ExprTest, CollectColumnsAndReadsMutable) {
  Schema schema({{"a", ValueType::kFloat64, /*mut=*/true},
                 {"b", ValueType::kFloat64, /*mut=*/false}});
  auto e = Expr::Col("a") + Expr::Col("b");
  std::set<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"a", "b"}));
  EXPECT_TRUE(e->ReadsMutable(schema));
  EXPECT_FALSE(Expr::Col("b")->ReadsMutable(schema));
}

TEST(ExprTest, ToStringIsReadable) {
  auto e = Expr::And(Gt(Expr::Col("x"), Expr::Int(3)),
                     Expr::Like(Expr::Col("s"), "a%"));
  std::string s = e->ToString();
  EXPECT_NE(s.find("x > 3"), std::string::npos);
  EXPECT_NE(s.find("LIKE 'a%'"), std::string::npos);
}

// --- variance propagation (§6) ---

TEST(ExprVarianceTest, ColumnPassesVarianceThrough) {
  DataFrame df = TestFrame();
  std::vector<double> var_f = {1.0, 2.0, 3.0};
  std::unordered_map<std::string, const std::vector<double>*> vars{
      {"f", &var_f}};
  Column value;
  std::vector<double> var;
  Expr::Col("f")->EvalWithVariance(df, vars, &value, &var);
  EXPECT_EQ(var, var_f);
  Expr::Col("i")->EvalWithVariance(df, vars, &value, &var);
  EXPECT_EQ(var, std::vector<double>(3, 0.0));
}

TEST(ExprVarianceTest, SumOfIndependents) {
  DataFrame df = TestFrame();
  std::vector<double> var_f = {1.0, 2.0, 3.0};
  std::unordered_map<std::string, const std::vector<double>*> vars{
      {"f", &var_f}};
  Column value;
  std::vector<double> var;
  (Expr::Col("f") + Expr::Col("f"))->EvalWithVariance(df, vars, &value, &var);
  EXPECT_DOUBLE_EQ(var[0], 2.0);  // Var(A)+Var(B) under independence
}

TEST(ExprVarianceTest, ProductRule) {
  DataFrame df = TestFrame();
  std::vector<double> var_f = {4.0, 4.0, 4.0};
  std::unordered_map<std::string, const std::vector<double>*> vars{
      {"f", &var_f}};
  Column value;
  std::vector<double> var;
  (Expr::Col("f") * Expr::Int(10))->EvalWithVariance(df, vars, &value, &var);
  // Var(cX) = c² Var(X) = 100 * 4.
  EXPECT_DOUBLE_EQ(var[0], 400.0);
}

TEST(ExprVarianceTest, QuotientRule) {
  DataFrame df = TestFrame();
  std::vector<double> var_f = {1.0, 1.0, 1.0};
  std::unordered_map<std::string, const std::vector<double>*> vars{
      {"f", &var_f}};
  Column value;
  std::vector<double> var;
  (Expr::Col("f") / Expr::Float(2.0))->EvalWithVariance(df, vars, &value,
                                                        &var);
  EXPECT_DOUBLE_EQ(var[0], 0.25);  // Var(X/2) = Var(X)/4
}

TEST(ExprVarianceTest, NonDifferentiableNodesYieldZero) {
  DataFrame df = TestFrame();
  std::vector<double> var_f = {1.0, 1.0, 1.0};
  std::unordered_map<std::string, const std::vector<double>*> vars{
      {"f", &var_f}};
  Column value;
  std::vector<double> var;
  Gt(Expr::Col("f"), Expr::Float(1.0))->EvalWithVariance(df, vars, &value,
                                                         &var);
  EXPECT_EQ(var, std::vector<double>(3, 0.0));
}

TEST(ExprVarianceTest, CaseTakesTheVarianceOfEachRowsBranch) {
  // 70 rows span two truth words; row 67's condition is NULL, which takes
  // the ELSE branch like a false one.
  constexpr size_t kRows = 70;
  DataFrame df(Schema({{"k", ValueType::kInt64},
                       {"a", ValueType::kFloat64},
                       {"b", ValueType::kFloat64}}));
  std::vector<double> var_a, var_b;
  for (size_t i = 0; i < kRows; ++i) {
    df.mutable_column(0)->AppendInt(static_cast<int64_t>(i % 5));
    df.mutable_column(1)->AppendDouble(10.0 + i);
    df.mutable_column(2)->AppendDouble(20.0 + i);
    var_a.push_back(1.0 + i);
    var_b.push_back(0.5 + i);
  }
  df.mutable_column(0)->SetNull(67);
  std::unordered_map<std::string, const std::vector<double>*> vars{
      {"a", &var_a}, {"b", &var_b}};
  // CASE WHEN k > 2 THEN a ELSE b * 2 END: Var(2b) = 4 Var(b).
  ExprPtr e = Expr::Case(Gt(Expr::Col("k"), Expr::Int(2)), Expr::Col("a"),
                         Expr::Col("b") * Expr::Float(2.0));
  Column value;
  std::vector<double> var;
  e->EvalWithVariance(df, vars, &value, &var);
  ASSERT_EQ(value.size(), kRows);
  ASSERT_EQ(var.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const bool then = i % 5 > 2 && i != 67;
    EXPECT_EQ(value.DoubleAt(i), then ? 10.0 + i : 2.0 * (20.0 + i)) << i;
    EXPECT_EQ(var[i], then ? var_a[i] : 4.0 * var_b[i]) << i;
  }
}

}  // namespace
}  // namespace wake
