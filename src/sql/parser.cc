#include "sql/parser.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <system_error>

#include "common/error.h"
#include "common/strings.h"
#include "sql/lexer.h"

namespace wake {
namespace sql {

namespace {

// Semantic SQL checks (aggregate/star/GROUP BY shape): statement-level
// rejections of the SQL text, so they carry the parse category like the
// token-level Fail() path (no single-token position to attach).
void CheckSql(bool condition, const std::string& message) {
  if (!condition) throw Error(message, ErrorCategory::kParse);
}

/// One SELECT-list item: either a scalar expression or an aggregate call.
struct SelectItem {
  bool star = false;
  bool is_agg = false;
  AggFunc func = AggFunc::kCount;
  ExprPtr agg_arg;     // null for COUNT(*)
  std::string agg_arg_column;  // plain column name if the arg is one
  ExprPtr scalar;
  std::string alias;   // empty = derive a name
};

class Parser {
 public:
  explicit Parser(const std::string& input) : tokens_(Lex(input)) {}

  Plan ParseStatement() {
    Plan plan = ParseSelect();
    Expect(TokenType::kEnd, "");
    return plan;
  }

 private:
  // --- token helpers ---
  const Token& Peek(size_t ahead = 0) const {
    size_t idx = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[idx];
  }
  Token Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool AtKeyword(const char* kw) const {
    return Peek().type == TokenType::kKeyword && Peek().text == kw;
  }
  bool AtSymbol(const char* sym) const {
    return Peek().type == TokenType::kSymbol && Peek().text == sym;
  }
  bool AcceptKeyword(const char* kw) {
    if (!AtKeyword(kw)) return false;
    Advance();
    return true;
  }
  bool AcceptSymbol(const char* sym) {
    if (!AtSymbol(sym)) return false;
    Advance();
    return true;
  }
  [[noreturn]] void Fail(const std::string& message) const {
    throw Error("SQL error at offset " + std::to_string(Peek().position) +
                    " (near '" + Peek().text + "'): " + message,
                ErrorCategory::kParse, Peek().position);
  }
  void ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) Fail(std::string("expected ") + kw);
  }
  void ExpectSymbol(const char* sym) {
    if (!AcceptSymbol(sym)) Fail(std::string("expected '") + sym + "'");
  }
  void Expect(TokenType type, const char* what) {
    if (Peek().type != type) Fail(std::string("expected ") + what);
    Advance();
  }

  /// Consumes the number token `what` as a T (int64_t, uint64_t or
  /// double), converting the whole token: a value outside T's range, or a
  /// fractional token where T is an integer, is a parse error at the
  /// token (never an exception from the standard library).
  template <typename T>
  T ExpectNumber(const char* what) {
    if (Peek().type != TokenType::kNumber) {
      Fail(std::string("expected ") + what);
    }
    const std::string& text = Peek().text;
    const char* end = text.data() + text.size();
    T value{};
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range) {
      Fail(std::string(what) + " out of range");
    }
    if (ec != std::errc() || ptr != end) {
      Fail(std::string(what) + " must be an integer");
    }
    Advance();
    return value;
  }

  /// Identifier with an optional table qualifier (`t.col` -> `col`).
  /// Qualifiers are recorded and validated against the FROM/JOIN scope
  /// once the full statement is parsed (SELECT items appear before FROM);
  /// the column keeps its bare name (TPC-H names are globally unique).
  std::string ParseColumnName() {
    std::string qualifier;
    return ParseQualified(&qualifier);
  }

  // --- expression grammar (precedence climbing) ---
  ExprPtr ParseExpr() { return ParseOr(); }

  ExprPtr ParseOr() {
    ExprPtr left = ParseAnd();
    while (AcceptKeyword("OR")) {
      left = Expr::Or(std::move(left), ParseAnd());
    }
    return left;
  }

  ExprPtr ParseAnd() {
    ExprPtr left = ParseNot();
    while (AcceptKeyword("AND")) {
      left = Expr::And(std::move(left), ParseNot());
    }
    return left;
  }

  ExprPtr ParseNot() {
    if (AcceptKeyword("NOT")) return Expr::Not(ParseNot());
    return ParsePredicate();
  }

  ExprPtr ParsePredicate() {
    ExprPtr left = ParseAdditive();
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      ExpectKeyword("NULL");
      ExprPtr test = Expr::IsNull(std::move(left));
      return negated ? Expr::Not(std::move(test)) : test;
    }
    if (AcceptKeyword("BETWEEN")) {
      ExprPtr lo = ParseAdditive();
      ExpectKeyword("AND");
      ExprPtr hi = ParseAdditive();
      return Expr::And(Ge(left, std::move(lo)), Le(left, std::move(hi)));
    }
    bool negate = false;
    if (AtKeyword("NOT") &&
        (Peek(1).text == "LIKE" || Peek(1).text == "IN")) {
      Advance();
      negate = true;
    }
    if (AcceptKeyword("LIKE")) {
      if (Peek().type != TokenType::kString) Fail("expected LIKE pattern");
      ExprPtr result = Expr::Like(std::move(left), Advance().text);
      return negate ? Expr::Not(std::move(result)) : result;
    }
    if (AcceptKeyword("IN")) {
      ExpectSymbol("(");
      std::vector<Value> values;
      do {
        values.push_back(ParseLiteralValue());
      } while (AcceptSymbol(","));
      ExpectSymbol(")");
      ExprPtr result = Expr::In(std::move(left), std::move(values));
      return negate ? Expr::Not(std::move(result)) : result;
    }
    static const std::pair<const char*, CompareOp> kOps[] = {
        {"=", CompareOp::kEq},  {"<>", CompareOp::kNe},
        {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
        {"<", CompareOp::kLt},  {">", CompareOp::kGt}};
    for (const auto& [sym, op] : kOps) {
      if (AcceptSymbol(sym)) {
        return Expr::Cmp(op, std::move(left), ParseAdditive());
      }
    }
    return left;
  }

  ExprPtr ParseAdditive() {
    ExprPtr left = ParseMultiplicative();
    while (AtSymbol("+") || AtSymbol("-")) {
      bool add = Advance().text == "+";
      // DATE 'x' +/- INTERVAL n DAY folds into a date literal.
      if (AtKeyword("INTERVAL")) {
        Advance();
        const int64_t days = ExpectNumber<int64_t>("day count");
        ExpectKeyword("DAY");
        CheckSql(left->kind() == ExprKind::kLiteral &&
                     left->literal().type == ValueType::kDate,
                 "INTERVAL arithmetic requires a DATE literal left side");
        const int64_t base = left->literal().i;
        int64_t date = 0;
        CheckSql(!(add ? __builtin_add_overflow(base, days, &date)
                       : __builtin_sub_overflow(base, days, &date)),
                 "INTERVAL arithmetic overflows the date range");
        left = Expr::Lit(Value::Date(date));
        continue;
      }
      ExprPtr right = ParseMultiplicative();
      left = add ? std::move(left) + std::move(right)
                 : std::move(left) - std::move(right);
    }
    return left;
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr left = ParseUnary();
    while (AtSymbol("*") || AtSymbol("/")) {
      bool mul = Advance().text == "*";
      ExprPtr right = ParseUnary();
      left = mul ? std::move(left) * std::move(right)
                 : std::move(left) / std::move(right);
    }
    return left;
  }

  ExprPtr ParseUnary() {
    if (AcceptSymbol("-")) return Expr::Int(0) - ParseUnary();
    if (AcceptSymbol("+")) return ParseUnary();
    return ParsePrimary();
  }

  Value ParseLiteralValue() {
    if (Peek().type == TokenType::kNumber) {
      if (Peek().text.find('.') != std::string::npos) {
        return Value::Float(ExpectNumber<double>("number"));
      }
      return Value::Int(ExpectNumber<int64_t>("integer"));
    }
    if (Peek().type == TokenType::kString) {
      return Value::Str(Advance().text);
    }
    if (AcceptKeyword("DATE")) {
      if (Peek().type != TokenType::kString) Fail("expected date string");
      return Value::Date(ParseDate(Advance().text));
    }
    if (AcceptKeyword("TRUE")) return Value::Bool(true);
    if (AcceptKeyword("FALSE")) return Value::Bool(false);
    Fail("expected literal");
  }

  ExprPtr ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kNumber:
      case TokenType::kString:
        return Expr::Lit(ParseLiteralValue());
      case TokenType::kIdent:
        return Expr::Col(ParseColumnName());
      case TokenType::kSymbol:
        if (AcceptSymbol("(")) {
          ExprPtr inner = ParseExpr();
          ExpectSymbol(")");
          return inner;
        }
        Fail("unexpected symbol in expression");
      case TokenType::kKeyword: {
        if (AtKeyword("DATE")) return Expr::Lit(ParseLiteralValue());
        if (AcceptKeyword("YEAR")) {
          ExpectSymbol("(");
          ExprPtr arg = ParseExpr();
          ExpectSymbol(")");
          return Expr::Year(std::move(arg));
        }
        if (AcceptKeyword("SUBSTR")) {
          ExpectSymbol("(");
          ExprPtr arg = ParseExpr();
          ExpectSymbol(",");
          const int64_t start = ExpectNumber<int64_t>("start");
          ExpectSymbol(",");
          const int64_t len = ExpectNumber<int64_t>("length");
          ExpectSymbol(")");
          return Expr::Substr(std::move(arg), start, len);
        }
        if (AcceptKeyword("COALESCE")) {
          ExpectSymbol("(");
          ExprPtr arg = ParseExpr();
          ExpectSymbol(",");
          Value fallback = ParseLiteralValue();
          ExpectSymbol(")");
          return Expr::Coalesce(std::move(arg), std::move(fallback));
        }
        if (AcceptKeyword("CASE")) {
          ExpectKeyword("WHEN");
          ExprPtr cond = ParseExpr();
          ExpectKeyword("THEN");
          ExprPtr then_expr = ParseExpr();
          ExpectKeyword("ELSE");
          ExprPtr else_expr = ParseExpr();
          ExpectKeyword("END");
          return Expr::Case(std::move(cond), std::move(then_expr),
                            std::move(else_expr));
        }
        Fail("unsupported keyword in expression");
      }
      default:
        Fail("unexpected end of input in expression");
    }
  }

  // --- SELECT list ---
  std::optional<AggFunc> AggKeyword() {
    static const std::pair<const char*, AggFunc> kAggs[] = {
        {"SUM", AggFunc::kSum},   {"COUNT", AggFunc::kCount},
        {"AVG", AggFunc::kAvg},   {"MIN", AggFunc::kMin},
        {"MAX", AggFunc::kMax},   {"VAR", AggFunc::kVar},
        {"STDDEV", AggFunc::kStddev}, {"MEDIAN", AggFunc::kMedian}};
    for (const auto& [kw, func] : kAggs) {
      if (AtKeyword(kw) && Peek(1).text == "(") {
        Advance();
        return func;
      }
    }
    return std::nullopt;
  }

  SelectItem ParseSelectItem() {
    SelectItem item;
    if (AcceptSymbol("*")) {
      item.star = true;
      return item;
    }
    if (auto func = AggKeyword()) {
      item.is_agg = true;
      item.func = *func;
      ExpectSymbol("(");
      if (item.func == AggFunc::kCount && AcceptSymbol("*")) {
        // COUNT(*): no argument.
      } else {
        if (AcceptKeyword("DISTINCT")) {
          CheckSql(item.func == AggFunc::kCount,
                   "DISTINCT only supported inside COUNT()");
          item.func = AggFunc::kCountDistinct;
        }
        item.agg_arg = ParseExpr();
        if (item.agg_arg->kind() == ExprKind::kColumn) {
          item.agg_arg_column = item.agg_arg->column_name();
        }
      }
      ExpectSymbol(")");
    } else {
      item.scalar = ParseExpr();
    }
    if (AcceptKeyword("AS")) {
      if (Peek().type != TokenType::kIdent) Fail("expected alias");
      item.alias = Advance().text;
    } else if (Peek().type == TokenType::kIdent &&
               item.scalar != nullptr) {
      // implicit alias: `expr name`
      item.alias = Advance().text;
    }
    return item;
  }

  // --- FROM / JOIN ---

  /// Optional `[AS] alias` after a table name or subquery.
  std::string MaybeAlias() {
    if (AcceptKeyword("AS")) {
      if (Peek().type != TokenType::kIdent) Fail("expected alias");
      return Advance().text;
    }
    if (Peek().type == TokenType::kIdent) return Advance().text;
    return "";
  }

  /// One relation in FROM/JOIN: a table name or a parenthesized SELECT,
  /// each with an optional alias. Every name/alias is registered in the
  /// statement's scope; `names` receives the ways this relation can be
  /// qualified (used to orient ON-clause keys).
  Plan ParseRelation(std::vector<std::string>* names) {
    if (AcceptSymbol("(")) {
      Plan sub = ParseSelect();
      ExpectSymbol(")");
      std::string alias = MaybeAlias();
      if (!alias.empty()) {
        names->push_back(alias);
        scope_.push_back(alias);
      }
      return sub;
    }
    if (Peek().type != TokenType::kIdent) {
      Fail("expected table name or subquery");
    }
    std::string table = Advance().text;
    names->push_back(table);
    scope_.push_back(table);
    std::string alias = MaybeAlias();
    if (!alias.empty()) {
      names->push_back(alias);
      scope_.push_back(alias);
    }
    return Plan::Scan(std::move(table));
  }

  Plan ParseFrom() {
    std::vector<std::string> names;
    Plan plan = ParseRelation(&names);
    while (true) {
      JoinType type;
      if (AcceptKeyword("JOIN")) {
        type = JoinType::kInner;
      } else if (AtKeyword("INNER") && Peek(1).text == "JOIN") {
        Advance();
        Advance();
        type = JoinType::kInner;
      } else if (AtKeyword("LEFT")) {
        Advance();
        AcceptKeyword("OUTER");
        ExpectKeyword("JOIN");
        type = JoinType::kLeft;
      } else if (AtKeyword("SEMI") && Peek(1).text == "JOIN") {
        Advance();
        Advance();
        type = JoinType::kSemi;
      } else if (AtKeyword("ANTI") && Peek(1).text == "JOIN") {
        Advance();
        Advance();
        type = JoinType::kAnti;
      } else if (AtKeyword("CROSS") && Peek(1).text == "JOIN") {
        Advance();
        Advance();
        std::vector<std::string> right_names;
        plan = plan.CrossJoin(ParseRelation(&right_names));
        continue;
      } else {
        break;
      }
      // Names in scope before the right relation parses belong to the
      // left side; a qualifier naming the left side wins even if the
      // right relation reuses the same name/alias.
      size_t left_scope_end = scope_.size();
      std::vector<std::string> right_names;
      Plan right = ParseRelation(&right_names);
      ExpectKeyword("ON");
      std::vector<std::string> left_keys, right_keys;
      do {
        // a = b; columns written in either order — the column qualified
        // with the joined relation's name/alias (or listed second) is the
        // right key.
        std::string a_qual, b_qual;
        std::string a = ParseQualified(&a_qual);
        ExpectSymbol("=");
        std::string b = ParseQualified(&b_qual);
        auto in_left_scope = [&](const std::string& qual) {
          return std::find(scope_.begin(), scope_.begin() + left_scope_end,
                           qual) != scope_.begin() + left_scope_end;
        };
        bool a_is_right =
            !in_left_scope(a_qual) &&
            std::find(right_names.begin(), right_names.end(), a_qual) !=
                right_names.end();
        if (a_is_right) {
          left_keys.push_back(b);
          right_keys.push_back(a);
        } else {
          left_keys.push_back(a);
          right_keys.push_back(b);
        }
      } while (AcceptKeyword("AND"));
      plan = plan.Join(right, type, std::move(left_keys),
                       std::move(right_keys));
    }
    return plan;
  }

  std::string ParseQualified(std::string* qualifier) {
    if (Peek().type != TokenType::kIdent) Fail("expected column name");
    size_t position = Peek().position;
    std::string name = Advance().text;
    if (AtSymbol(".")) {
      Advance();
      *qualifier = name;
      qualifier_refs_.push_back({name, position});
      if (Peek().type != TokenType::kIdent) Fail("expected column name");
      name = Advance().text;
    }
    return name;
  }

  // --- the statement ---

  /// Every recorded `qual.col` must name a table or alias brought into
  /// scope by this statement's FROM/JOIN clause.
  void ValidateQualifiers() {
    for (const auto& [qual, position] : qualifier_refs_) {
      if (std::find(scope_.begin(), scope_.end(), qual) == scope_.end()) {
        throw Error("SQL error at offset " + std::to_string(position) +
                        " (near '" + qual + "'): unknown table or alias '" +
                        qual + "' (not in FROM/JOIN scope)",
                    ErrorCategory::kParse, position);
      }
    }
  }

  Plan ParseSelect() {
    // Each (sub)statement validates its own qualifiers against its own
    // FROM/JOIN scope; save and restore around nested SELECTs.
    std::vector<std::string> saved_scope = std::move(scope_);
    std::vector<std::pair<std::string, size_t>> saved_refs =
        std::move(qualifier_refs_);
    scope_.clear();
    qualifier_refs_.clear();
    Plan plan = ParseSelectBody();
    ValidateQualifiers();
    scope_ = std::move(saved_scope);
    qualifier_refs_ = std::move(saved_refs);
    return plan;
  }

  Plan ParseSelectBody() {
    ExpectKeyword("SELECT");
    std::vector<SelectItem> items;
    do {
      items.push_back(ParseSelectItem());
    } while (AcceptSymbol(","));
    ExpectKeyword("FROM");
    Plan plan = ParseFrom();

    if (AcceptKeyword("WHERE")) plan = plan.Filter(ParseExpr());

    std::vector<std::string> group_by;
    bool has_group = false;
    if (AcceptKeyword("GROUP")) {
      ExpectKeyword("BY");
      has_group = true;
      do {
        group_by.push_back(ParseColumnName());
      } while (AcceptSymbol(","));
    }

    bool has_agg = false;
    for (const auto& item : items) has_agg |= item.is_agg;
    CheckSql(!has_group || has_agg,
             "GROUP BY requires at least one aggregate in SELECT");

    if (has_agg) {
      plan = LowerAggregate(plan, items, group_by);
    } else if (!(items.size() == 1 && items[0].star)) {
      std::vector<NamedExpr> projections;
      for (size_t i = 0; i < items.size(); ++i) {
        CheckSql(!items[i].star, "'*' cannot be mixed with expressions");
        projections.push_back(
            {OutputName(items[i], i), items[i].scalar});
      }
      plan = plan.Map(std::move(projections));
    }

    if (AcceptKeyword("HAVING")) {
      CheckSql(has_agg, "HAVING requires aggregation");
      plan = plan.Filter(ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      ExpectKeyword("BY");
      std::vector<SortKey> keys;
      do {
        SortKey key;
        key.column = ParseColumnName();
        if (AcceptKeyword("DESC")) {
          key.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        keys.push_back(std::move(key));
      } while (AcceptSymbol(","));
      std::optional<size_t> limit;
      if (AcceptKeyword("LIMIT")) limit = ExpectNumber<uint64_t>("limit");
      plan = plan.Sort(std::move(keys), limit);
    } else if (AcceptKeyword("LIMIT")) {
      plan = plan.Sort({}, ExpectNumber<uint64_t>("limit"));
    }
    return plan;
  }

  std::string OutputName(const SelectItem& item, size_t index) const {
    if (!item.alias.empty()) return item.alias;
    if (item.is_agg) {
      std::string base = AggFuncName(item.func);
      if (!item.agg_arg_column.empty()) {
        return base + "_" + item.agg_arg_column;
      }
      return base + (index > 0 ? "_" + std::to_string(index) : "");
    }
    if (item.scalar->kind() == ExprKind::kColumn) {
      return item.scalar->column_name();
    }
    return "expr_" + std::to_string(index);
  }

  Plan LowerAggregate(Plan plan, const std::vector<SelectItem>& items,
                      const std::vector<std::string>& group_by) {
    // Materialize non-column aggregate arguments as derived columns.
    std::vector<NamedExpr> derived;
    std::vector<AggSpec> specs;
    std::vector<std::string> final_columns;
    size_t temp_idx = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      const SelectItem& item = items[i];
      CheckSql(!item.star, "'*' cannot be mixed with aggregates");
      std::string out = OutputName(item, i);
      if (item.is_agg) {
        AggSpec spec;
        spec.func = item.func;
        spec.output = out;
        if (item.agg_arg == nullptr) {
          spec.input = "";  // COUNT(*)
        } else if (!item.agg_arg_column.empty()) {
          spec.input = item.agg_arg_column;
        } else {
          spec.input = "__agg_arg_" + std::to_string(temp_idx++);
          derived.push_back({spec.input, item.agg_arg});
        }
        specs.push_back(std::move(spec));
      } else {
        bool is_group_column =
            item.scalar->kind() == ExprKind::kColumn &&
            std::find(group_by.begin(), group_by.end(),
                      item.scalar->column_name()) != group_by.end();
        bool aliased_group_expr =
            std::find(group_by.begin(), group_by.end(), out) !=
            group_by.end();
        CheckSql(is_group_column || aliased_group_expr,
                 "non-aggregate SELECT item '" + out +
                     "' must be a GROUP BY column");
        // `GROUP BY <alias>` over an expression: derive the expression as
        // a column named by the alias before aggregating.
        if (!is_group_column) derived.push_back({out, item.scalar});
      }
      final_columns.push_back(out);
    }
    if (!derived.empty()) plan = plan.Derive(std::move(derived));
    plan = plan.Aggregate(group_by, std::move(specs));
    // Re-project to the SELECT order/names when they differ from the
    // aggregate's natural group-keys-first layout (handles aliased group
    // columns too).
    std::vector<std::string> natural = group_by;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].is_agg) natural.push_back(final_columns[i]);
    }
    if (natural != final_columns) {
      std::vector<NamedExpr> reorder;
      for (size_t i = 0; i < items.size(); ++i) {
        // Plain group columns may be renamed to their alias; everything
        // else already carries its output name after the aggregate.
        ExprPtr source =
            !items[i].is_agg && items[i].scalar->kind() == ExprKind::kColumn
                ? items[i].scalar
                : Expr::Col(final_columns[i]);
        reorder.push_back({final_columns[i], std::move(source)});
      }
      plan = plan.Map(std::move(reorder));
    }
    return plan;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Tables/aliases in scope for the SELECT currently being parsed.
  std::vector<std::string> scope_;
  /// (qualifier, input offset) pairs awaiting scope validation.
  std::vector<std::pair<std::string, size_t>> qualifier_refs_;
};

}  // namespace

Plan Parse(const std::string& statement) {
  Parser parser(statement);
  return parser.ParseStatement();
}

}  // namespace sql
}  // namespace wake
