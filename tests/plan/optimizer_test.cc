#include "plan/optimizer.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "baseline/exact_engine.h"
#include "common/error.h"

namespace wake {
namespace {

ExprPtr C(const char* name) { return Expr::Col(name); }

Catalog MakeCatalog() {
  Schema sales_schema({{"id", ValueType::kInt64},
                       {"cust", ValueType::kInt64},
                       {"amount", ValueType::kFloat64},
                       {"tag", ValueType::kString}});
  sales_schema.set_primary_key({"id"});
  sales_schema.set_clustering_key({"id"});
  DataFrame sales(sales_schema);
  for (int i = 0; i < 12; ++i) {
    sales.mutable_column(0)->AppendInt(i);
    sales.mutable_column(1)->AppendInt(i % 4);
    sales.mutable_column(2)->AppendDouble(i * 10.0);
    sales.mutable_column(3)->AppendString(i % 2 ? "odd" : "even");
  }

  Schema cust_schema({{"c_id", ValueType::kInt64},
                      {"c_name", ValueType::kString},
                      {"c_region", ValueType::kString}});
  DataFrame cust(cust_schema);
  for (int i = 0; i < 3; ++i) {  // cust 3 intentionally missing
    cust.mutable_column(0)->AppendInt(i);
    cust.mutable_column(1)->AppendString("cust" + std::to_string(i));
    cust.mutable_column(2)->AppendString(i == 0 ? "east" : "west");
  }

  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("sales", sales, 3)));
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("cust", cust, 1)));
  return cat;
}

class OptimizerTest : public ::testing::Test {
 protected:
  Catalog cat_ = MakeCatalog();

  std::string Shape(const PlanNodePtr& node) { return PlanToString(node); }

  // Optimization must never change results: runs both plans on the exact
  // engine and requires identical output. The full optimizer must also
  // keep the input's results and reach its fixpoint in one call.
  void ExpectSameResults(const PlanNodePtr& before,
                         const PlanNodePtr& after) {
    ExpectSameOutput(before, after);
    PlanNodePtr optimized = Optimize(before, cat_);
    ExpectSameOutput(before, optimized);
    EXPECT_EQ(Shape(Optimize(optimized, cat_)), Shape(optimized))
        << "input:\n" << Shape(before);
  }

  void ExpectSameOutput(const PlanNodePtr& before, const PlanNodePtr& after) {
    ExactEngine engine(&cat_);
    std::string diff;
    EXPECT_TRUE(engine.Execute(after).ApproxEquals(engine.Execute(before),
                                                   1e-12, &diff))
        << diff << "\nbefore:\n" << Shape(before) << "after:\n"
        << Shape(after);
  }
};

// --- constant folding ------------------------------------------------------

TEST_F(OptimizerTest, FoldsLiteralArithmeticAndComparisons) {
  ExprPtr e = FoldExpr(Expr::Int(2) * Expr::Int(3) + Expr::Int(4));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().i, 10);

  e = FoldExpr(Gt(Expr::Float(2.5), Expr::Int(2)));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().i, 1);

  // Division folds to float with the engine's divide-by-zero convention.
  e = FoldExpr(Expr::Int(1) / Expr::Int(0));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().type, ValueType::kFloat64);
  EXPECT_EQ(e->literal().d, 0.0);
}

TEST_F(OptimizerTest, FoldsLogicShortCircuits) {
  ExprPtr pred = Gt(C("amount"), Expr::Float(30.0));
  // TRUE AND p -> p (same pointer, not just same value).
  EXPECT_EQ(FoldExpr(Expr::And(Expr::Lit(Value::Bool(true)), pred)), pred);
  // p OR TRUE -> TRUE.
  ExprPtr e = FoldExpr(Expr::Or(pred, Expr::Lit(Value::Bool(true))));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().i, 1);
  // NOT applied to a null literal: null is falsy, so NOT null -> TRUE.
  e = FoldExpr(Expr::Not(Expr::Lit(Value::Null(ValueType::kBool))));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().i, 1);
}

TEST_F(OptimizerTest, LogicFoldKeepsBoolCoercion) {
  // `TRUE AND <int column>` must not fold to the bare column: the logic
  // node coerces its result to a non-null bool; the column is an int64.
  ExprPtr e = FoldExpr(Expr::And(Expr::Lit(Value::Bool(true)), C("id")));
  EXPECT_EQ(e->kind(), ExprKind::kLogic);
  // A deciding literal still folds regardless of the other side's type.
  e = FoldExpr(Expr::And(C("id"), Expr::Lit(Value::Bool(false))));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().i, 0);
  // End-to-end: a projected logic value keeps its type through Optimize.
  Plan plan = Plan::Scan("sales").Map(
      {{"f", Expr::And(Eq(Expr::Int(1), Expr::Int(1)), C("id"))}});
  ExpectSameResults(plan.node(), Optimize(plan.node(), cat_));
}

TEST_F(OptimizerTest, FoldsStringPredicates) {
  ExprPtr e = FoldExpr(Expr::Like(Expr::Str("PROMO BRASS"), "PROMO%"));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().i, 1);
  e = FoldExpr(Expr::In(Expr::Str("x"),
                        {Value::Str("a"), Value::Str("b")}));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().i, 0);
  e = FoldExpr(Expr::Substr(Expr::Str("13-555"), 1, 2));
  ASSERT_EQ(e->kind(), ExprKind::kLiteral);
  EXPECT_EQ(e->literal().s, "13");
}

// Folding evaluates through Expr::Eval: for each expression kind, the
// folded literal has the type, nullness and value that Eval gives the
// unfolded tree on every row of a three-row frame.
TEST_F(OptimizerTest, FoldedLiteralsMatchEval) {
  const ExprPtr t = Expr::Lit(Value::Bool(true));
  const ExprPtr f = Expr::Lit(Value::Bool(false));
  const ExprPtr null_bool = Expr::Lit(Value::Null(ValueType::kBool));
  const ExprPtr null_int = Expr::Lit(Value::Null(ValueType::kInt64));
  const ExprPtr null_str = Expr::Lit(Value::Null(ValueType::kString));
  const ExprPtr cases[] = {
      Expr::Int(2) * Expr::Int(3) + Expr::Int(4),
      Expr::Float(1.5) - Expr::Int(4),
      Expr::Date(1995, 1, 1) + Expr::Int(30),
      Expr::Int(7) / Expr::Int(2),
      Expr::Int(1) / Expr::Int(0),
      Expr::Float(1.0) / Expr::Float(0.0),
      Expr::Int(1) + null_int,
      null_int * Expr::Float(2.0),
      Eq(Expr::Int(3), Expr::Int(3)),
      Gt(Expr::Float(2.5), Expr::Int(2)),
      Le(Expr::Date(1995, 1, 1), Expr::Int(9000)),
      Gt(null_int, Expr::Int(0)),
      Lt(Expr::Str("abc"), Expr::Str("abd")),
      Ne(Expr::Str("x"), null_str),
      Expr::Like(Expr::Str("PROMO BRASS"), "PROMO%"),
      Expr::Like(null_str, "x%"),
      Expr::In(Expr::Str("x"), {Value::Str("a"), Value::Str("x")}),
      Expr::In(Expr::Int(3), {Value::Int(1), Value::Int(2)}),
      Expr::In(null_int, {Value::Int(1)}),
      Expr::Substr(Expr::Str("13-555"), 1, 2),
      Expr::Substr(Expr::Str("ab"), 5, 2),
      Expr::Year(Expr::Date(1996, 3, 14)),
      Expr::Coalesce(null_int, Value::Int(7)),
      Expr::Coalesce(Expr::Int(5), Value::Int(7)),
      Expr::Coalesce(null_int, Value::Float(2.5)),
      Expr::IsNull(null_int),
      Expr::IsNull(Expr::Str("x")),
      Expr::Not(t),
      Expr::Not(null_bool),
      Expr::Case(t, Expr::Int(1), Expr::Float(2.5)),
      Expr::Case(null_bool, Expr::Str("a"), Expr::Str("b")),
      Expr::Case(f, Expr::Int(1), null_int),
      Expr::And(t, f),
      Expr::Or(f, null_bool),
  };
  DataFrame three(Schema({{"x", ValueType::kInt64}}));
  for (int i = 0; i < 3; ++i) three.mutable_column(0)->AppendInt(i);
  for (const ExprPtr& e : cases) {
    ExprPtr folded = FoldExpr(e);
    ASSERT_EQ(folded->kind(), ExprKind::kLiteral) << e->ToString();
    const Value& got = folded->literal();
    Column want = e->Eval(three);
    ASSERT_EQ(want.size(), 3u);
    for (size_t r = 0; r < want.size(); ++r) {
      Value w = want.GetValue(r);
      EXPECT_EQ(got.type, w.type) << e->ToString();
      EXPECT_EQ(got.is_null, w.is_null) << e->ToString();
      EXPECT_TRUE(got == w) << e->ToString() << " folded to "
                            << got.ToString() << ", Eval gives "
                            << w.ToString();
    }
  }
}

TEST_F(OptimizerTest, TriviallyTrueFilterIsRemoved) {
  Plan plan = Plan::Scan("sales").Filter(
      Expr::And(Eq(Expr::Int(1), Expr::Int(1)), Gt(C("amount"),
                                                   Expr::Float(30.0))));
  PlanNodePtr folded = FoldConstantsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(folded),
            "Filter (amount > 30)\n"
            "  Scan sales\n");
  ExpectSameResults(plan.node(), folded);

  // A filter that is *entirely* true disappears.
  Plan all = Plan::Scan("sales").Filter(Eq(Expr::Int(1), Expr::Int(1)));
  EXPECT_EQ(Shape(FoldConstantsPass(all.node(), cat_)), "Scan sales\n");
  ExpectSameResults(all.node(), FoldConstantsPass(all.node(), cat_));
}

// --- filter pushdown -------------------------------------------------------

TEST_F(OptimizerTest, SplitsConjunctionAcrossInnerJoinSides) {
  Plan plan = Plan::Scan("sales")
                  .Join(Plan::Scan("cust"), JoinType::kInner, {"cust"},
                        {"c_id"})
                  .Filter(Expr::And(Gt(C("amount"), Expr::Float(30.0)),
                                    Eq(C("c_region"), Expr::Str("west"))));
  PlanNodePtr pushed = PushDownFiltersPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pushed),
            "InnerJoin on [cust]=[c_id]\n"
            "  Filter (amount > 30)\n"
            "    Scan sales\n"
            "  Filter (c_region = west)\n"
            "    Scan cust\n");
  ExpectSameResults(plan.node(), pushed);
}

TEST_F(OptimizerTest, LeftJoinKeepsRightSidePredicateAbove) {
  // Pushing a right-side predicate below a LEFT join would turn dropped
  // matches into null-padded rows; it must stay above.
  Plan plan = Plan::Scan("sales")
                  .Join(Plan::Scan("cust"), JoinType::kLeft, {"cust"},
                        {"c_id"})
                  .Filter(Expr::And(Gt(C("amount"), Expr::Float(30.0)),
                                    Eq(C("c_region"), Expr::Str("west"))));
  PlanNodePtr pushed = PushDownFiltersPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pushed),
            "Filter (c_region = west)\n"
            "  LeftJoin on [cust]=[c_id]\n"
            "    Filter (amount > 30)\n"
            "      Scan sales\n"
            "    Scan cust\n");
  ExpectSameResults(plan.node(), pushed);
}

TEST_F(OptimizerTest, SemiAndAntiJoinPushToProbeSideOnly) {
  for (JoinType type : {JoinType::kSemi, JoinType::kAnti}) {
    Plan plan = Plan::Scan("sales")
                    .Join(Plan::Scan("cust"), type, {"cust"}, {"c_id"})
                    .Filter(Gt(C("amount"), Expr::Float(30.0)));
    PlanNodePtr pushed = PushDownFiltersPass(plan.node(), cat_);
    const char* name = type == JoinType::kSemi ? "Semi" : "Anti";
    EXPECT_EQ(Shape(pushed), std::string(name) +
                                 "Join on [cust]=[c_id]\n"
                                 "  Filter (amount > 30)\n"
                                 "    Scan sales\n"
                                 "  Scan cust\n");
    ExpectSameResults(plan.node(), pushed);
  }
}

TEST_F(OptimizerTest, PushesGroupKeyPredicateBelowAggregateButNotHaving) {
  Plan plan = Plan::Scan("sales")
                  .Aggregate({"cust"}, {Sum("amount", "total")})
                  .Filter(Expr::And(Lt(C("cust"), Expr::Int(3)),
                                    Gt(C("total"), Expr::Float(50.0))));
  PlanNodePtr pushed = PushDownFiltersPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pushed),
            "Filter (total > 50)\n"
            "  Aggregate by [cust] {sum(amount)->total}\n"
            "    Filter (cust < 3)\n"
            "      Scan sales\n");
  ExpectSameResults(plan.node(), pushed);
}

TEST_F(OptimizerTest, PushesThroughMapRenamesAndStopsAtComputedColumns) {
  Plan plan = Plan::Scan("sales")
                  .Map({{"k", C("cust")},
                        {"double_amount", C("amount") * Expr::Int(2)}})
                  .Filter(Expr::And(Lt(C("k"), Expr::Int(2)),
                                    Gt(C("double_amount"),
                                       Expr::Float(50.0))));
  PlanNodePtr pushed = PushDownFiltersPass(plan.node(), cat_);
  // `k` is a pure rename: its predicate pushes below the map (rewritten to
  // `cust`). `double_amount` is computed: stays above.
  EXPECT_EQ(Shape(pushed),
            "Filter (double_amount > 50)\n"
            "  Map [k, double_amount]\n"
            "    Filter (cust < 2)\n"
            "      Scan sales\n");
  ExpectSameResults(plan.node(), pushed);
}

TEST_F(OptimizerTest, FilterDoesNotCrossLimit) {
  Plan plan = Plan::Scan("sales")
                  .Sort({{"amount", true}}, 5)
                  .Filter(Gt(C("amount"), Expr::Float(30.0)));
  PlanNodePtr pushed = PushDownFiltersPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pushed),
            "Filter (amount > 30)\n"
            "  Sort limit 5\n"
            "    Scan sales\n");
  ExpectSameResults(plan.node(), pushed);
  // Without a limit the filter commutes with the sort.
  Plan no_limit = Plan::Scan("sales")
                      .Sort({{"amount", true}})
                      .Filter(Gt(C("amount"), Expr::Float(30.0)));
  EXPECT_EQ(Shape(PushDownFiltersPass(no_limit.node(), cat_)),
            "Sort\n"
            "  Filter (amount > 30)\n"
            "    Scan sales\n");
  ExpectSameResults(no_limit.node(),
                    PushDownFiltersPass(no_limit.node(), cat_));
}

TEST_F(OptimizerTest, ConjunctsExposedByFoldingArePushedInTheSameRound) {
  // `(p AND q) OR 1 = 2` folds to `p AND q`: push-filters splits the
  // predicate as folding will leave it, so p and q reach their own join
  // sides in this round instead of waiting above the join.
  Plan plan =
      Plan::Scan("sales")
          .Join(Plan::Scan("cust"), JoinType::kInner, {"cust"}, {"c_id"})
          .Filter(Expr::Or(Expr::And(Gt(C("amount"), Expr::Float(30.0)),
                                     Eq(C("c_region"), Expr::Str("west"))),
                           Eq(Expr::Int(1), Expr::Int(2))));
  PlanNodePtr pushed = PushDownFiltersPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pushed),
            "InnerJoin on [cust]=[c_id]\n"
            "  Filter (amount > 30)\n"
            "    Scan sales\n"
            "  Filter (c_region = west)\n"
            "    Scan cust\n");
  ExpectSameResults(plan.node(), pushed);
}

TEST_F(OptimizerTest, SharedSubplansAreNotDuplicatedOrPolluted) {
  // One shared aggregate feeding two parents (§7.3 reuse): the filter of
  // one parent must not leak into the shared subplan.
  Plan shared = Plan::Scan("sales").Aggregate({"cust"},
                                              {Sum("amount", "total")});
  Plan left = shared.Filter(Gt(C("total"), Expr::Float(100.0)))
                  .Map({{"h_cust", C("cust")}});
  Plan joined = left.Join(shared.Map({{"cust2", C("cust")},
                                      {"total2", C("total")}}),
                          JoinType::kInner, {"h_cust"}, {"cust2"});
  PlanNodePtr pushed = PushDownFiltersPass(joined.node(), cat_);
  // The shared aggregate node must still be one object reachable twice.
  std::set<const PlanNode*> agg_nodes;
  std::function<void(const PlanNodePtr&)> walk =
      [&](const PlanNodePtr& n) {
        if (n->op == PlanOp::kAggregate) agg_nodes.insert(n.get());
        for (const auto& in : n->inputs) walk(in);
      };
  walk(pushed);
  EXPECT_EQ(agg_nodes.size(), 1u);
  ExpectSameResults(joined.node(), pushed);
}

TEST_F(OptimizerTest, IllTypedLiteralNodesAreLeftForPrepare) {
  // Folding to a literal would swallow the type error that Prepare
  // reports. Null string input does fold (Eval yields false).
  ExprPtr bad = FoldExpr(Expr::Like(Expr::Int(5), "5%"));
  EXPECT_EQ(bad->kind(), ExprKind::kLike);
  EXPECT_EQ(FoldExpr(Expr::Str("a") + Expr::Int(1))->kind(),
            ExprKind::kArith);
  EXPECT_EQ(FoldExpr(Expr::Not(Expr::Float(1.0)))->kind(), ExprKind::kNot);
  // The folded children of an ill-typed node still fold.
  ExprPtr kids = FoldExpr(Lt(Expr::Str("a"), Expr::Int(2) + Expr::Int(3)));
  ASSERT_EQ(kids->kind(), ExprKind::kCompare);
  EXPECT_EQ(kids->children()[1]->kind(), ExprKind::kLiteral);
  ExprPtr null_in =
      FoldExpr(Expr::Like(Expr::Lit(Value::Null(ValueType::kString)), "x"));
  ASSERT_EQ(null_in->kind(), ExprKind::kLiteral);
  EXPECT_EQ(null_in->literal().i, 0);
}

// --- column pruning --------------------------------------------------------

TEST_F(OptimizerTest, SharedInputRequirementsUnionAcrossParents) {
  // Two parents of one shared scan require different columns; the
  // required-set propagation must union them — a later-visited parent
  // (here the Filter) must not clobber what the Map parent recorded.
  Plan scan = Plan::Scan("sales");
  Plan left = scan.Filter(Gt(C("amount"), Expr::Float(0.0)))
                  .Map({{"lid", C("id")}});
  Plan right = scan.Map({{"rid", C("id")}, {"rtag", C("tag")}});
  Plan joined = left.Join(right, JoinType::kInner, {"lid"}, {"rid"});
  PlanNodePtr optimized;
  ASSERT_NO_THROW(optimized = Optimize(joined.node(), cat_));
  ExpectSameResults(joined.node(), optimized);
}

TEST_F(OptimizerTest, ProjectsScansToRequiredColumns) {
  Plan plan = Plan::Scan("sales").Aggregate({"cust"},
                                            {Sum("amount", "total")});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Aggregate by [cust] {sum(amount)->total}\n"
            "  Scan sales [cust,amount]\n");
  ExpectSameResults(plan.node(), pruned);
}

TEST_F(OptimizerTest, CountStarKeepsOneColumn) {
  Plan plan = Plan::Scan("sales").Aggregate({}, {Count("n")});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Aggregate by [] {count()->n}\n"
            "  Scan sales [id]\n");
  ExpectSameResults(plan.node(), pruned);
}

TEST_F(OptimizerTest, NarrowsDeriveIntoExplicitMap) {
  // The Derive keeps the one pass-through column and the derived column
  // its parent reads, and the scan under it reads only what that Map
  // needs — one pass does both.
  Plan plan = Plan::Scan("sales")
                  .Derive({{"double_amount", C("amount") * Expr::Int(2)}})
                  .Aggregate({"cust"}, {Sum("double_amount", "total")});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Aggregate by [cust] {sum(double_amount)->total}\n"
            "  Map [cust, double_amount]\n"
            "    Scan sales [cust,amount]\n");
  ExpectSameResults(plan.node(), pruned);
}

TEST_F(OptimizerTest, DeriveKeepsNoUnreadDerivedColumn) {
  // Nothing above reads `double_amount`: the Derive narrows to the
  // pass-through column alone, in one pass.
  Plan plan = Plan::Scan("sales")
                  .Filter(Eq(C("tag"), Expr::Str("odd")))
                  .Derive({{"double_amount", C("amount") * Expr::Int(2)}})
                  .Aggregate({"cust"}, {Count("n")});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Aggregate by [cust] {count()->n}\n"
            "  Map [cust]\n"
            "    Filter (tag = odd)\n"
            "      Scan sales [cust,tag]\n");
  ExpectSameResults(plan.node(), pruned);
}

TEST_F(OptimizerTest, MapThatRepublishesItsInputIsRemoved) {
  // Once the scan reads only [cust, amount], a Map selecting exactly those
  // columns in that order republishes its input and is dropped.
  Plan plan = Plan::Scan("sales")
                  .Project({"cust", "amount"})
                  .Aggregate({"cust"}, {Sum("amount", "total")});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Aggregate by [cust] {sum(amount)->total}\n"
            "  Scan sales [cust,amount]\n");
  ExpectSameResults(plan.node(), pruned);

  // A root Map over every column drops too: the schema is the scan's.
  Plan root = Plan::Scan("sales").Project({"id", "cust", "amount", "tag"});
  EXPECT_EQ(Shape(PruneColumnsPass(root.node(), cat_)), "Scan sales\n");
  ExpectSameResults(root.node(), PruneColumnsPass(root.node(), cat_));

  // A Map that reorders or renames changes the schema and stays.
  Plan reordered = Plan::Scan("sales")
                       .Project({"amount", "cust"})
                       .Aggregate({"cust"}, {Sum("amount", "total")});
  EXPECT_EQ(Shape(PruneColumnsPass(reordered.node(), cat_)),
            "Aggregate by [cust] {sum(amount)->total}\n"
            "  Map [amount, cust]\n"
            "    Scan sales [cust,amount]\n");
  ExpectSameResults(reordered.node(),
                    PruneColumnsPass(reordered.node(), cat_));
  Plan renamed = Plan::Scan("sales")
                     .Map({{"k", C("cust")}, {"amount", C("amount")}})
                     .Aggregate({"k"}, {Sum("amount", "total")});
  EXPECT_EQ(Shape(PruneColumnsPass(renamed.node(), cat_)),
            "Aggregate by [k] {sum(amount)->total}\n"
            "  Map [k, amount]\n"
            "    Scan sales [cust,amount]\n");
  ExpectSameResults(renamed.node(), PruneColumnsPass(renamed.node(), cat_));
}

TEST_F(OptimizerTest, JoinKeysSurvivePruning) {
  Plan plan = Plan::Scan("sales")
                  .Join(Plan::Scan("cust"), JoinType::kInner, {"cust"},
                        {"c_id"})
                  .Aggregate({"c_name"}, {Sum("amount", "total")});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Aggregate by [c_name] {sum(amount)->total}\n"
            "  InnerJoin on [cust]=[c_id]\n"
            "    Scan sales [cust,amount]\n"
            "    Scan cust [c_id,c_name]\n");
  ExpectSameResults(plan.node(), pruned);
}

TEST_F(OptimizerTest, RootSchemaIsPreservedExactly) {
  // A schema-transparent root (filter over join) requires every column:
  // nothing may be pruned and the output schema must be untouched.
  Plan plan = Plan::Scan("sales")
                  .Join(Plan::Scan("cust"), JoinType::kInner, {"cust"},
                        {"c_id"})
                  .Filter(Gt(C("amount"), Expr::Float(10.0)));
  PlanNodePtr optimized = Optimize(plan.node(), cat_);
  ExactEngine engine(&cat_);
  EXPECT_TRUE(engine.Execute(optimized).schema().SameFields(
      engine.Execute(plan.node()).schema()));
  ExpectSameResults(plan.node(), optimized);
}

// --- aggregate-output pruning ----------------------------------------------

TEST_F(OptimizerTest, PrunesUnusedAggregateOutputs) {
  // Only `total` is read above: the other aggregates go, and with them
  // the scan's read of any column only they consumed.
  Plan plan = Plan::Scan("sales")
                  .Aggregate({"cust"}, {Sum("amount", "total"), Count("n"),
                                        Max("amount", "hi")})
                  .Map({{"total", C("total")}});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Map [total]\n"
            "  Aggregate by [cust] {sum(amount)->total}\n"
            "    Scan sales [cust,amount]\n");
  ExpectSameResults(plan.node(), pruned);
}

TEST_F(OptimizerTest, GroupKeyOnlyParentKeepsOneAggregate) {
  // A parent consuming only the group keys still needs the Aggregate (it
  // dedups), so at least one aggregate must survive — the first, like
  // SurvivingProjections.
  Plan plan = Plan::Scan("sales")
                  .Aggregate({"cust"}, {Sum("amount", "total"), Count("n")})
                  .Map({{"cust", C("cust")}});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Map [cust]\n"
            "  Aggregate by [cust] {sum(amount)->total}\n"
            "    Scan sales [cust,amount]\n");
  ExpectSameResults(plan.node(), pruned);
}

TEST_F(OptimizerTest, RootAggregateIsNeverPruned) {
  // The root's full schema is the query result: every aggregate is
  // required, and only the scan below narrows.
  Plan plan = Plan::Scan("sales").Aggregate(
      {"cust"}, {Sum("amount", "total"), Count("n"), Max("amount", "hi")});
  PlanNodePtr pruned = PruneColumnsPass(plan.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "Aggregate by [cust] {sum(amount)->total, count()->n, "
            "max(amount)->hi}\n"
            "  Scan sales [cust,amount]\n");
  // Nothing is left to prune: the whole plan keeps its pointer.
  EXPECT_EQ(PruneColumnsPass(pruned, cat_), pruned);
  ExpectSameResults(plan.node(), pruned);
}

TEST_F(OptimizerTest, AggPruningFreesInputColumnsForScanProjection) {
  // Dropping the count-distinct also drops its input column `tag`; the
  // same pass narrows the scan accordingly.
  Plan plan = Plan::Scan("sales")
                  .Aggregate({"cust"}, {Sum("amount", "total"),
                                        CountDistinct("tag", "tags")})
                  .Map({{"total", C("total")}});
  PlanNodePtr optimized = Optimize(plan.node(), cat_);
  EXPECT_EQ(Shape(optimized),
            "Map [total]\n"
            "  Aggregate by [cust] {sum(amount)->total}\n"
            "    Scan sales [cust,amount]\n");
  ExpectSameResults(plan.node(), optimized);
}

TEST_F(OptimizerTest, SharedAggregateKeepsUnionOfParentRequirements) {
  // One Aggregate reachable through two parents that consume different
  // outputs: the survivors are the union, and the node stays shared.
  Plan agg = Plan::Scan("sales").Aggregate(
      {"cust"}, {Sum("amount", "total"), Count("n"), Max("amount", "hi")});
  Plan left = agg.Map({{"cust", C("cust")}, {"total", C("total")}});
  Plan right = agg.Map({{"cust_r", C("cust")}, {"n", C("n")}});
  Plan joined =
      left.Join(right, JoinType::kInner, {"cust"}, {"cust_r"});
  PlanNodePtr pruned = PruneColumnsPass(joined.node(), cat_);
  EXPECT_EQ(Shape(pruned),
            "InnerJoin on [cust]=[cust_r]\n"
            "  Map [cust, total]\n"
            "    Aggregate by [cust] {sum(amount)->total, count()->n}\n"
            "      Scan sales [cust,amount]\n"
            "  Map [cust_r, n]\n"
            "    Aggregate by [cust] {sum(amount)->total, count()->n}\n"
            "      Scan sales [cust,amount]\n");
  EXPECT_EQ(pruned->inputs[0]->inputs[0], pruned->inputs[1]->inputs[0]);
  ExpectSameResults(joined.node(), pruned);
}

// --- the full driver -------------------------------------------------------

TEST_F(OptimizerTest, OptimizeIsIdempotent) {
  Plan plan = Plan::Scan("sales")
                  .Join(Plan::Scan("cust"), JoinType::kInner, {"cust"},
                        {"c_id"})
                  .Filter(Expr::And(Gt(C("amount"), Expr::Float(10.0)),
                                    Eq(C("c_region"), Expr::Str("west"))))
                  .Aggregate({"c_name"}, {Sum("amount", "total")})
                  .Sort({{"total", true}}, 3);
  PlanNodePtr once = Optimize(plan.node(), cat_);
  PlanNodePtr twice = Optimize(once, cat_);
  EXPECT_EQ(Shape(once), Shape(twice));
  ExpectSameResults(plan.node(), once);
}

TEST_F(OptimizerTest, OptimizeCombinesAllPasses) {
  Plan plan = Plan::Scan("sales")
                  .Derive({{"v", C("amount") * (Expr::Int(1) +
                                                Expr::Int(0))}})
                  .Join(Plan::Scan("cust"), JoinType::kInner, {"cust"},
                        {"c_id"})
                  .Filter(Expr::And(
                      Expr::Lit(Value::Bool(true)),
                      Expr::And(Gt(C("v"), Expr::Float(20.0)),
                                Eq(C("c_region"), Expr::Str("west")))))
                  .Aggregate({"c_name"}, {Sum("v", "total")})
                  .Sort({{"total", true}});
  PlanNodePtr optimized = Optimize(plan.node(), cat_);
  std::string shape = Shape(optimized);
  // Literal arithmetic folded away, the TRUE conjunct gone, the sales
  // scan projected, the region predicate on the cust scan (which needs
  // all three of its columns, so it stays unprojected — empty = all).
  // The region Filter sits directly above its scan, so it is also copied
  // into the scan's advisory prune predicate (the Filter remains as the
  // residual).
  EXPECT_EQ(shape,
            "Sort\n"
            "  Aggregate by [c_name] {sum(v)->total}\n"
            "    InnerJoin on [cust]=[c_id]\n"
            "      Filter (v > 20)\n"
            "        Map [cust, v]\n"
            "          Scan sales [cust,amount]\n"
            "      Filter (c_region = west)\n"
            "        Scan cust prune (c_region = west)\n");
  ExpectSameResults(plan.node(), optimized);
}

TEST_F(OptimizerTest, FilterOverConstantProjectionFoldsAwayInOneRound) {
  // push-filters substitutes the constant (a literal, or an expression
  // over literals that fold-constants has not reached yet) below the Map
  // and splits the result as folding leaves it: `5 > 3` is true and
  // filters nothing, so no filter and no scan prune predicate are left.
  for (ExprPtr five : {Expr::Int(5), Expr::Int(2) + Expr::Int(3)}) {
    Plan plan = Plan::Scan("sales")
                    .Map({{"tag", C("tag")}, {"x", five}})
                    .Filter(Gt(C("x"), Expr::Int(3)));
    PlanNodePtr optimized = Optimize(plan.node(), cat_);
    EXPECT_EQ(Shape(optimized),
              "Map [tag, x]\n"
              "  Scan sales [tag]\n");
    ExpectSameResults(plan.node(), optimized);
  }
}

TEST_F(OptimizerTest, FoldFollowsPushForTheChainsPushBuilds) {
  // The constant `flag` substitutes to FALSE below the Map and meets the
  // HAVING-style conjunct above the Aggregate, where push-filters joins
  // them into `false AND (total > 50)`; fold-constants, which runs after
  // it, reduces that chain to FALSE in the same round.
  Plan plan = Plan::Scan("sales")
                  .Aggregate({"cust"}, {Sum("amount", "total")})
                  .Map({{"cust", C("cust")},
                        {"total", C("total")},
                        {"flag", Expr::Lit(Value::Bool(false))}})
                  .Filter(C("flag"))
                  .Filter(Gt(C("total"), Expr::Float(50.0)));
  PlanNodePtr optimized = Optimize(plan.node(), cat_);
  EXPECT_EQ(Shape(optimized),
            "Map [cust, total, flag]\n"
            "  Filter false\n"
            "    Aggregate by [cust] {sum(amount)->total}\n"
            "      Scan sales [cust,amount]\n");
  ExpectSameResults(plan.node(), optimized);
}

TEST_F(OptimizerTest, PushScanFiltersCopiesPredicateAndKeepsResidual) {
  Plan plan = Plan::Scan("sales").Filter(Gt(C("id"), Expr::Int(5)));
  PlanNodePtr after = PushScanFiltersPass(plan.node(), cat_);
  ASSERT_EQ(after->op, PlanOp::kFilter);  // residual Filter survives
  ASSERT_EQ(after->inputs[0]->op, PlanOp::kScan);
  ASSERT_NE(after->inputs[0]->scan_filter, nullptr);
  EXPECT_EQ(after->inputs[0]->scan_filter->ToString(),
            after->predicate->ToString());
  ExpectSameResults(plan.node(), after);
}

TEST_F(OptimizerTest, PushScanFiltersSkipsSharedScans) {
  // The scan also feeds the join's build side directly; specializing it
  // for the probe-side Filter would drop build-side rows.
  Plan scan = Plan::Scan("sales");
  Plan plan = scan.Filter(Gt(C("id"), Expr::Int(5)))
                  .Join(scan, JoinType::kSemi, {"id"}, {"id"});
  PlanNodePtr after = PushScanFiltersPass(plan.node(), cat_);
  EXPECT_EQ(after->inputs[0]->inputs[0]->scan_filter, nullptr);
  EXPECT_EQ(after->inputs[1]->scan_filter, nullptr);
  ExpectSameResults(plan.node(), after);
}

TEST_F(OptimizerTest, PushScanFiltersOnlyReachesAdjacentScans) {
  // A Filter above an Aggregate has no scan to specialize.
  Plan plan = Plan::Scan("sales")
                  .Aggregate({"cust"}, {Sum("amount", "total")})
                  .Filter(Gt(C("total"), Expr::Float(10.0)));
  PlanNodePtr after = PushScanFiltersPass(plan.node(), cat_);
  EXPECT_EQ(after, plan.node());  // untouched, not even cloned
  ExpectSameResults(plan.node(), after);
}

TEST_F(OptimizerTest, PushScanFiltersIsIdempotent) {
  Plan plan = Plan::Scan("sales").Filter(Gt(C("id"), Expr::Int(5)));
  PlanNodePtr once = PushScanFiltersPass(plan.node(), cat_);
  PlanNodePtr twice = PushScanFiltersPass(once, cat_);
  EXPECT_EQ(twice, once);  // the already-pushed predicate is recognized
  EXPECT_EQ(Shape(twice), Shape(once));
  ExpectSameResults(plan.node(), twice);
}

TEST_F(OptimizerTest, OptimizedPlanValidatesAgainstInferProps) {
  // Optimize runs InferProps on its result; a malformed rewrite would
  // throw here rather than mis-execute downstream.
  Plan plan = Plan::Scan("sales")
                  .Filter(Gt(C("amount"), Expr::Float(10.0)))
                  .Aggregate({"tag"}, {Sum("amount", "total"), Count("n")})
                  .Sort({{"total", true}});
  PlanNodePtr optimized;
  EXPECT_NO_THROW(optimized = Optimize(plan.node(), cat_));
  ExpectSameResults(plan.node(), optimized);
}

}  // namespace
}  // namespace wake
