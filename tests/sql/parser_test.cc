#include "sql/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "baseline/exact_engine.h"
#include "common/error.h"
#include "core/engine.h"
#include "engine/tpch_fixture.h"
#include "tpch/queries.h"

namespace wake {
namespace sql {
namespace {

DataFrame RunExact(const std::string& query) {
  ExactEngine engine(&testing::SharedTpch());
  return engine.Execute(Parse(query).node());
}

TEST(SqlParserTest, SelectStarScan) {
  DataFrame out = RunExact("SELECT * FROM nation");
  EXPECT_EQ(out.num_rows(), 25u);
  EXPECT_TRUE(out.schema().HasField("n_name"));
}

TEST(SqlParserTest, ProjectionWithAliasAndArithmetic) {
  DataFrame out = RunExact(
      "SELECT n_nationkey AS k, n_nationkey * 2 + 1 AS odd FROM nation");
  EXPECT_EQ(out.num_columns(), 2u);
  EXPECT_EQ(out.ColumnByName("odd").IntAt(3),
            out.ColumnByName("k").IntAt(3) * 2 + 1);
}

TEST(SqlParserTest, WhereWithDateLiteralAndInterval) {
  DataFrame a = RunExact(
      "SELECT COUNT(*) AS n FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL 90 DAY");
  DataFrame b = RunExact(
      "SELECT COUNT(*) AS n FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02'");
  EXPECT_EQ(a.column(0).IntAt(0), b.column(0).IntAt(0));
}

TEST(SqlParserTest, Q1EquivalentToHandBuiltPlan) {
  DataFrame got = RunExact(
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
      "SUM(l_extendedprice) AS sum_base_price, "
      "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
      "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
      "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
      "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
      "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
      "GROUP BY l_returnflag, l_linestatus "
      "ORDER BY l_returnflag, l_linestatus");
  ExactEngine engine(&testing::SharedTpch());
  DataFrame expected = engine.Execute(tpch::Query(1).node());
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(expected, 1e-9, &diff)) << diff;
}

TEST(SqlParserTest, Q6EquivalentToHandBuiltPlan) {
  DataFrame got = RunExact(
      "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
      "WHERE l_shipdate >= DATE '1994-01-01' "
      "AND l_shipdate < DATE '1995-01-01' "
      "AND l_discount BETWEEN 0.049 AND 0.071 AND l_quantity < 24");
  ExactEngine engine(&testing::SharedTpch());
  DataFrame expected = engine.Execute(tpch::Query(6).node());
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(expected, 1e-9, &diff)) << diff;
}

TEST(SqlParserTest, JoinWithQualifiedOnCondition) {
  DataFrame got = RunExact(
      "SELECT n_name, COUNT(*) AS suppliers FROM supplier "
      "JOIN nation ON supplier.s_nationkey = nation.n_nationkey "
      "GROUP BY n_name ORDER BY suppliers DESC, n_name");
  EXPECT_GT(got.num_rows(), 0u);
  EXPECT_EQ(got.schema().field(0).name, "n_name");
  // Counts are descending.
  const Column& counts = got.ColumnByName("suppliers");
  for (size_t i = 1; i < got.num_rows(); ++i) {
    EXPECT_GE(counts.IntAt(i - 1), counts.IntAt(i));
  }
}

TEST(SqlParserTest, OnConditionOrderIsNormalized) {
  // `nation.n_nationkey = supplier-side key` written backwards must work.
  DataFrame a = RunExact(
      "SELECT COUNT(*) AS n FROM supplier "
      "JOIN nation ON nation.n_nationkey = supplier.s_nationkey");
  DataFrame b = RunExact(
      "SELECT COUNT(*) AS n FROM supplier "
      "JOIN nation ON supplier.s_nationkey = nation.n_nationkey");
  EXPECT_EQ(a.column(0).IntAt(0), b.column(0).IntAt(0));
}

TEST(SqlParserTest, SemiAndAntiJoins) {
  DataFrame semi = RunExact(
      "SELECT COUNT(*) AS n FROM customer "
      "SEMI JOIN orders ON customer.c_custkey = orders.o_custkey");
  DataFrame anti = RunExact(
      "SELECT COUNT(*) AS n FROM customer "
      "ANTI JOIN orders ON customer.c_custkey = orders.o_custkey");
  int64_t total =
      static_cast<int64_t>(testing::SharedTpch().Get("customer").total_rows());
  EXPECT_EQ(semi.column(0).IntAt(0) + anti.column(0).IntAt(0), total);
  EXPECT_GT(anti.column(0).IntAt(0), 0);  // a third of customers order nothing
}

TEST(SqlParserTest, CountDistinctAndHaving) {
  DataFrame got = RunExact(
      "SELECT l_shipmode, COUNT(DISTINCT l_suppkey) AS supps "
      "FROM lineitem GROUP BY l_shipmode HAVING supps > 0 "
      "ORDER BY l_shipmode");
  EXPECT_EQ(got.num_rows(), 7u);  // all 7 ship modes
}

TEST(SqlParserTest, CaseWhenAndLike) {
  DataFrame got = RunExact(
      "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN 1 ELSE 0 END) AS promo,"
      " COUNT(*) AS total FROM part");
  EXPECT_GT(got.ColumnByName("promo").IntAt(0), 0);
  EXPECT_LT(got.ColumnByName("promo").IntAt(0),
            got.ColumnByName("total").IntAt(0));
}

TEST(SqlParserTest, InListAndNotLike) {
  DataFrame got = RunExact(
      "SELECT COUNT(*) AS n FROM orders "
      "WHERE o_orderpriority IN ('1-URGENT', '2-HIGH') "
      "AND o_comment NOT LIKE '%special%requests%'");
  EXPECT_GT(got.column(0).IntAt(0), 0);
}

TEST(SqlParserTest, SubstrYearCoalesce) {
  DataFrame got = RunExact(
      "SELECT SUBSTR(c_phone, 1, 2) AS code, COUNT(*) AS n "
      "FROM customer GROUP BY code ORDER BY code LIMIT 5");
  EXPECT_LE(got.num_rows(), 5u);
  EXPECT_EQ(got.ColumnByName("code").StringAt(0).size(), 2u);
  DataFrame years = RunExact(
      "SELECT YEAR(o_orderdate) AS y, COUNT(*) AS n FROM orders "
      "GROUP BY y ORDER BY y");
  EXPECT_EQ(years.num_rows(), 7u);  // 1992..1998
}

TEST(SqlParserTest, SelectOrderDiffersFromGroupOrder) {
  DataFrame got = RunExact(
      "SELECT COUNT(*) AS n, l_returnflag FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag");
  EXPECT_EQ(got.schema().field(0).name, "n");
  EXPECT_EQ(got.schema().field(1).name, "l_returnflag");
  EXPECT_EQ(got.num_rows(), 3u);
}

TEST(SqlParserTest, SqlPlanRunsOnWakeEngineWithOla) {
  WakeEngine engine(&testing::SharedTpch());
  Plan plan = Parse(
      "SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem "
      "GROUP BY l_returnflag ORDER BY q DESC");
  size_t states = 0;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    ++states;
    if (s.is_final) final_frame = *s.frame;
  });
  EXPECT_GT(states, 2u);  // OLA states stream from a SQL query
  ExactEngine exact(&testing::SharedTpch());
  std::string diff;
  EXPECT_TRUE(final_frame.ApproxEquals(exact.Execute(plan.node()), 1e-9,
                                       &diff))
      << diff;
}

TEST(SqlParserTest, ErrorsArePositionAnnotated) {
  try {
    Parse("SELECT FROM lineitem");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

// Every number token converts whole: one outside its type's range, or a
// fractional one where an integer is required (INTERVAL days, SUBSTR
// bounds, LIMIT), is a kParse error at the token's offset, not an
// exception from the standard library or a silent truncation.
TEST(SqlParserTest, OutOfRangeAndFractionalNumbersAreParseErrors) {
  const std::string huge_float = "1" + std::string(400, '0') + ".5";
  const std::pair<std::string, std::string> cases[] = {
      {"SELECT 99999999999999999999 AS x FROM nation",
       "99999999999999999999"},
      {"SELECT " + huge_float + " AS x FROM nation", huge_float},
      {"SELECT * FROM orders WHERE o_orderdate < "
       "DATE '1995-01-01' + INTERVAL 2.5 DAY",
       "2.5"},
      {"SELECT * FROM orders WHERE o_orderdate < "
       "DATE '1995-01-01' - INTERVAL 99999999999999999999 DAY",
       "99999999999999999999"},
      {"SELECT SUBSTR(c_phone, 1.5, 2) AS p FROM customer", "1.5"},
      {"SELECT SUBSTR(c_phone, 1, 99999999999999999999) AS p FROM customer",
       "99999999999999999999"},
      {"SELECT * FROM nation ORDER BY n_name LIMIT 2.9", "2.9"},
      {"SELECT * FROM nation LIMIT 99999999999999999999",
       "99999999999999999999"},
  };
  for (const auto& [sql, token] : cases) {
    try {
      Parse(sql);
      ADD_FAILURE() << "expected a parse error: " << sql;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kParse) << sql;
      EXPECT_EQ(e.position(), sql.find(token)) << sql << ": " << e.what();
    }
  }
  // A date pushed past int64 by INTERVAL is rejected too.
  try {
    Parse("SELECT * FROM orders WHERE o_orderdate < "
          "DATE '1995-01-01' + INTERVAL 9223372036854775807 DAY");
    ADD_FAILURE() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse) << e.what();
  }
  // In-range numbers still parse, and LIMIT keeps its count.
  EXPECT_EQ(RunExact("SELECT * FROM nation ORDER BY n_name LIMIT 2")
                .num_rows(),
            2u);
  EXPECT_NO_THROW(Parse("SELECT 9223372036854775807 AS x, .5 AS y, "
                        "SUBSTR(c_phone, 1, 2) AS p FROM customer"));
}

TEST(SqlParserTest, RejectsUnsupportedConstructs) {
  EXPECT_THROW(Parse("SELECT a FROM t GROUP BY a"), Error);  // no aggregate
  EXPECT_THROW(Parse("SELECT a, SUM(b) FROM t GROUP BY c"), Error);
  EXPECT_THROW(Parse("SELECT SUM(DISTINCT x) FROM t"), Error);
  EXPECT_THROW(Parse("SELECT * FROM t WHERE x = "), Error);
  EXPECT_THROW(Parse("SELECT * FROM t extra garbage"), Error);
  EXPECT_THROW(
      Parse("SELECT * FROM t WHERE l_shipdate + INTERVAL 3 DAY > x"),
      Error);  // interval on non-literal
}

TEST(SqlParserTest, MedianAggregate) {
  DataFrame got = RunExact(
      "SELECT l_returnflag, MEDIAN(l_quantity) AS med FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag");
  ASSERT_EQ(got.num_rows(), 3u);
  for (size_t r = 0; r < got.num_rows(); ++r) {
    double med = got.ColumnByName("med").DoubleAt(r);
    EXPECT_GE(med, 1.0);
    EXPECT_LE(med, 50.0);
  }
}

TEST(SqlParserTest, Q3StyleThreeTableJoin) {
  // The full Q3 shape in SQL (sans the semi-join rewrite): three tables,
  // filters on each, grouped revenue, top-10.
  DataFrame got = RunExact(
      "SELECT l_orderkey, o_orderdate, o_shippriority, "
      "SUM(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM lineitem "
      "JOIN orders ON l_orderkey = o_orderkey "
      "JOIN customer ON o_custkey = c_custkey "
      "WHERE c_mktsegment = 'BUILDING' "
      "AND o_orderdate < DATE '1995-03-15' "
      "AND l_shipdate > DATE '1995-03-15' "
      "GROUP BY l_orderkey, o_orderdate, o_shippriority "
      "ORDER BY revenue DESC, o_orderdate LIMIT 10");
  ExactEngine engine(&testing::SharedTpch());
  DataFrame expected = engine.Execute(tpch::Query(3).node());
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(expected, 1e-6, &diff)) << diff;
}

TEST(SqlParserTest, IsNullOverLeftJoin) {
  // Customers without orders: LEFT JOIN + IS NULL (the classic pattern).
  DataFrame via_null = RunExact(
      "SELECT COUNT(*) AS n FROM customer "
      "LEFT JOIN orders ON customer.c_custkey = orders.o_custkey "
      "WHERE o_orderkey IS NULL");
  DataFrame via_anti = RunExact(
      "SELECT COUNT(*) AS n FROM customer "
      "ANTI JOIN orders ON customer.c_custkey = orders.o_custkey");
  EXPECT_EQ(via_null.column(0).IntAt(0), via_anti.column(0).IntAt(0));
  DataFrame not_null = RunExact(
      "SELECT COUNT(*) AS n FROM customer "
      "LEFT JOIN orders ON customer.c_custkey = orders.o_custkey "
      "WHERE o_orderkey IS NOT NULL");
  EXPECT_GT(not_null.column(0).IntAt(0), 0);
}

TEST(SqlParserTest, BareLimitWithoutOrder) {
  DataFrame got = RunExact("SELECT * FROM nation LIMIT 3");
  EXPECT_EQ(got.num_rows(), 3u);
}

TEST(SqlParserTest, UnknownTableQualifierIsRejectedWithPosition) {
  // `l.` is not in scope: only `lineitem` is. The error must carry the
  // offending alias and its input offset.
  try {
    Parse("SELECT l.l_orderkey FROM lineitem");
    FAIL() << "expected scope error";
  } catch (const Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("unknown table or alias 'l'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("offset 7"), std::string::npos) << msg;
  }
  // Same for qualifiers in WHERE, GROUP BY, ORDER BY, and ON clauses.
  EXPECT_THROW(Parse("SELECT * FROM lineitem WHERE x.l_quantity > 1"),
               Error);
  EXPECT_THROW(
      Parse("SELECT COUNT(*) AS n FROM supplier "
            "JOIN nation ON bogus.s_nationkey = nation.n_nationkey"),
      Error);
}

TEST(SqlParserTest, TableAliasesBringQualifiersIntoScope) {
  DataFrame got = RunExact(
      "SELECT l.l_orderkey, o.o_orderdate, COUNT(*) AS n "
      "FROM lineitem AS l JOIN orders o ON l.l_orderkey = o.o_orderkey "
      "GROUP BY l_orderkey, o_orderdate ORDER BY l_orderkey LIMIT 5");
  EXPECT_EQ(got.num_rows(), 5u);
  // The table's own name stays valid alongside the alias.
  DataFrame both = RunExact(
      "SELECT COUNT(*) AS n FROM lineitem l "
      "WHERE lineitem.l_quantity > 0 AND l.l_quantity > 0");
  EXPECT_GT(both.column(0).IntAt(0), 0);
}

TEST(SqlParserTest, OnClausePrefersLeftScopeOnAliasCollision) {
  // The left alias shadows the right table's name: `nation.` must resolve
  // to the LEFT relation (supplier aliased as nation), not flip the keys.
  DataFrame got = RunExact(
      "SELECT COUNT(*) AS n FROM supplier nation "
      "JOIN nation n2 ON nation.s_nationkey = n2.n_nationkey");
  DataFrame plain = RunExact(
      "SELECT COUNT(*) AS n FROM supplier "
      "JOIN nation ON s_nationkey = n_nationkey");
  EXPECT_EQ(got.column(0).IntAt(0), plain.column(0).IntAt(0));
}

TEST(SqlParserTest, SubqueryScopesAreIndependent) {
  // The outer alias `t` is visible outside, the inner alias `o` is not.
  DataFrame got = RunExact(
      "SELECT t.o_orderpriority, COUNT(*) AS n "
      "FROM (SELECT o.o_orderpriority FROM orders o) AS t "
      "GROUP BY o_orderpriority ORDER BY o_orderpriority");
  EXPECT_EQ(got.num_rows(), 5u);
  EXPECT_THROW(
      Parse("SELECT o.o_orderpriority "
            "FROM (SELECT o_orderpriority FROM orders o) AS t"),
      Error);
}

TEST(SqlParserTest, DerivedTablesInFromAndJoin) {
  // FROM (SELECT ...): aggregate over an aggregate.
  DataFrame nested = RunExact(
      "SELECT MAX(cnt) AS busiest "
      "FROM (SELECT o_custkey, COUNT(*) AS cnt FROM orders "
      "GROUP BY o_custkey) AS per_cust");
  EXPECT_GT(nested.column(0).IntAt(0), 0);

  // JOIN (SELECT ...) ON: matches the plan-built semi-join decomposition.
  DataFrame sub = RunExact(
      "SELECT COUNT(*) AS n FROM orders "
      "SEMI JOIN (SELECT c_custkey FROM customer "
      "WHERE c_mktsegment = 'BUILDING') AS c "
      "ON o_custkey = c_custkey");
  Plan hand = Plan::Scan("orders")
                  .Join(Plan::Scan("customer")
                            .Filter(Eq(Expr::Col("c_mktsegment"),
                                       Expr::Str("BUILDING")))
                            .Map({{"c_custkey", Expr::Col("c_custkey")}}),
                        JoinType::kSemi, {"o_custkey"}, {"c_custkey"})
                  .Aggregate({}, {Count("n")});
  ExactEngine engine(&testing::SharedTpch());
  EXPECT_EQ(sub.column(0).IntAt(0),
            engine.Execute(hand.node()).column(0).IntAt(0));

  // CROSS JOIN (SELECT ...): scalar-subquery broadcast.
  DataFrame cross = RunExact(
      "SELECT COUNT(*) AS n FROM customer "
      "CROSS JOIN (SELECT AVG(c_acctbal) AS avg_bal FROM customer) AS a "
      "WHERE c_acctbal > avg_bal");
  EXPECT_GT(cross.column(0).IntAt(0), 0);
  int64_t total =
      static_cast<int64_t>(testing::SharedTpch().Get("customer").total_rows());
  EXPECT_LT(cross.column(0).IntAt(0), total);
}

}  // namespace
}  // namespace sql
}  // namespace wake
