#include "tpch/dbgen.h"

#include "common/error.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace wake {
namespace tpch {
namespace {

class DbgenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbgenConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.partitions = 6;
    catalog_ = new Catalog(Generate(cfg));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static Catalog* catalog_;
};
Catalog* DbgenTest::catalog_ = nullptr;

TEST_F(DbgenTest, AllEightTablesExist) {
  for (const char* name : {"region", "nation", "supplier", "customer",
                           "part", "partsupp", "orders", "lineitem"}) {
    EXPECT_TRUE(catalog_->Has(name)) << name;
  }
}

TEST_F(DbgenTest, RowCountsMatchScale) {
  EXPECT_EQ(catalog_->Get("region").total_rows(), 5u);
  EXPECT_EQ(catalog_->Get("nation").total_rows(), 25u);
  EXPECT_EQ(catalog_->Get("supplier").total_rows(), 100u);
  EXPECT_EQ(catalog_->Get("customer").total_rows(), 1500u);
  EXPECT_EQ(catalog_->Get("part").total_rows(), 2000u);
  EXPECT_EQ(catalog_->Get("partsupp").total_rows(), 8000u);
  EXPECT_EQ(catalog_->Get("orders").total_rows(), 15000u);
  // lineitem: 1..7 lines per order, so ~4x orders.
  size_t li = catalog_->Get("lineitem").total_rows();
  EXPECT_GT(li, 15000u * 2);
  EXPECT_LT(li, 15000u * 7);
}

TEST_F(DbgenTest, PrimaryKeysAreUniqueAndDense) {
  DataFrame orders = catalog_->Get("orders").Materialize();
  const Column& keys = orders.ColumnByName("o_orderkey");
  std::unordered_set<int64_t> seen;
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(seen.insert(keys.IntAt(i)).second);
  }
  // Dense 1..N (unordered_set iteration order is arbitrary; check bounds).
  EXPECT_EQ(seen.size(), keys.size());
  EXPECT_TRUE(seen.count(1));
  EXPECT_TRUE(seen.count(static_cast<int64_t>(keys.size())));
}

TEST_F(DbgenTest, ForeignKeysResolve) {
  DataFrame li = catalog_->Get("lineitem").Materialize();
  size_t n_orders = catalog_->Get("orders").total_rows();
  size_t n_parts = catalog_->Get("part").total_rows();
  size_t n_supp = catalog_->Get("supplier").total_rows();
  const auto& ok = li.ColumnByName("l_orderkey").ints();
  const auto& pk = li.ColumnByName("l_partkey").ints();
  const auto& sk = li.ColumnByName("l_suppkey").ints();
  for (size_t i = 0; i < li.num_rows(); ++i) {
    ASSERT_GE(ok[i], 1);
    ASSERT_LE(ok[i], static_cast<int64_t>(n_orders));
    ASSERT_GE(pk[i], 1);
    ASSERT_LE(pk[i], static_cast<int64_t>(n_parts));
    ASSERT_GE(sk[i], 1);
    ASSERT_LE(sk[i], static_cast<int64_t>(n_supp));
  }
}

TEST_F(DbgenTest, PartsuppMatchesLineitemPairs) {
  // Every (l_partkey, l_suppkey) must exist in partsupp (the spec formula).
  DataFrame ps = catalog_->Get("partsupp").Materialize();
  std::set<std::pair<int64_t, int64_t>> pairs;
  const auto& ppk = ps.ColumnByName("ps_partkey").ints();
  const auto& psk = ps.ColumnByName("ps_suppkey").ints();
  for (size_t i = 0; i < ps.num_rows(); ++i) {
    pairs.insert({ppk[i], psk[i]});
  }
  DataFrame li = catalog_->Get("lineitem").Materialize();
  const auto& lpk = li.ColumnByName("l_partkey").ints();
  const auto& lsk = li.ColumnByName("l_suppkey").ints();
  for (size_t i = 0; i < std::min<size_t>(li.num_rows(), 5000); ++i) {
    ASSERT_TRUE(pairs.count({lpk[i], lsk[i]}))
        << "lineitem references missing partsupp pair";
  }
}

TEST_F(DbgenTest, DateRelationsFollowSpec) {
  DataFrame li = catalog_->Get("lineitem").Materialize();
  const auto& ship = li.ColumnByName("l_shipdate").ints();
  const auto& receipt = li.ColumnByName("l_receiptdate").ints();
  const auto& commit = li.ColumnByName("l_commitdate").ints();
  const Column& status = li.ColumnByName("l_linestatus");
  int64_t current = CurrentDate();
  for (size_t i = 0; i < li.num_rows(); ++i) {
    ASSERT_GT(receipt[i], ship[i]);
    ASSERT_LE(receipt[i], ship[i] + 30);
    ASSERT_GT(commit[i], 0);
    ASSERT_EQ(status.StringAt(i), ship[i] <= current ? "F" : "O");
  }
}

TEST_F(DbgenTest, ValueRangesFollowSpec) {
  DataFrame li = catalog_->Get("lineitem").Materialize();
  const auto& qty = li.ColumnByName("l_quantity").doubles();
  const auto& disc = li.ColumnByName("l_discount").doubles();
  const auto& tax = li.ColumnByName("l_tax").doubles();
  for (size_t i = 0; i < li.num_rows(); ++i) {
    ASSERT_GE(qty[i], 1.0);
    ASSERT_LE(qty[i], 50.0);
    ASSERT_GE(disc[i], 0.0);
    ASSERT_LE(disc[i], 0.10 + 1e-12);
    ASSERT_GE(tax[i], 0.0);
    ASSERT_LE(tax[i], 0.08 + 1e-12);
  }
}

TEST_F(DbgenTest, OrderStatusConsistentWithLineitems) {
  DataFrame li = catalog_->Get("lineitem").Materialize();
  DataFrame ord = catalog_->Get("orders").Materialize();
  std::vector<int> shipped(ord.num_rows() + 1, 0), lines(ord.num_rows() + 1, 0);
  int64_t current = CurrentDate();
  const auto& ok = li.ColumnByName("l_orderkey").ints();
  const auto& ship = li.ColumnByName("l_shipdate").ints();
  for (size_t i = 0; i < li.num_rows(); ++i) {
    ++lines[ok[i]];
    shipped[ok[i]] += ship[i] <= current;
  }
  const auto& keys = ord.ColumnByName("o_orderkey").ints();
  const Column& status = ord.ColumnByName("o_orderstatus");
  for (size_t i = 0; i < ord.num_rows(); ++i) {
    int64_t k = keys[i];
    std::string expected = shipped[k] == lines[k]
                               ? "F"
                               : (shipped[k] == 0 ? "O" : "P");
    ASSERT_EQ(status.StringAt(i), expected);
  }
}

TEST_F(DbgenTest, PhoneCountryCodeEncodesNation) {
  DataFrame cust = catalog_->Get("customer").Materialize();
  const Column& phone = cust.ColumnByName("c_phone");
  const auto& nk = cust.ColumnByName("c_nationkey").ints();
  for (size_t i = 0; i < cust.num_rows(); ++i) {
    int code = std::stoi(phone.StringAt(i).substr(0, 2));
    ASSERT_EQ(code, 10 + nk[i]);
  }
}

TEST_F(DbgenTest, TextPatternsProbedByQueriesExist) {
  DataFrame part = catalog_->Get("part").Materialize();
  const Column& type = part.ColumnByName("p_type");
  const Column& name = part.ColumnByName("p_name");
  int promo = 0, brass = 0, green = 0;
  for (size_t i = 0; i < part.num_rows(); ++i) {
    const std::string& t = type.StringAt(i);
    promo += t.rfind("PROMO", 0) == 0;
    brass += t.size() >= 5 && t.substr(t.size() - 5) == "BRASS";
    green += name.StringAt(i).find("green") != std::string::npos;
  }
  EXPECT_GT(promo, 0);
  EXPECT_GT(brass, 0);
  EXPECT_GT(green, 0);
}

// A clustered schema promises rows in non-decreasing key order across the
// whole table (partitions are plain row ranges, so a key may continue
// into the next partition).
TEST_F(DbgenTest, EveryTableIsSortedByItsClusteringKey) {
  for (const std::string& name : catalog_->TableNames()) {
    const PartitionedTable& table = catalog_->Get(name);
    const std::vector<std::string>& key = table.schema().clustering_key();
    ASSERT_FALSE(key.empty()) << name;
    DataFrame rows = table.Materialize(key);
    ASSERT_GT(rows.num_rows(), 0u) << name;
    for (size_t r = 1; r < rows.num_rows(); ++r) {
      int c = 0;
      for (size_t k = 0; k < rows.num_columns() && c == 0; ++k) {
        c = rows.column(k).CompareRows(r - 1, rows.column(k), r);
      }
      ASSERT_LE(c, 0) << name << " is out of key order at row " << r;
    }
  }
}

TEST(DbgenDeterminismTest, SameSeedSameData) {
  DbgenConfig cfg;
  cfg.scale_factor = 0.002;
  cfg.partitions = 2;
  Catalog a = Generate(cfg);
  Catalog b = Generate(cfg);
  std::string diff;
  EXPECT_TRUE(a.Get("lineitem").Materialize().ApproxEquals(
      b.Get("lineitem").Materialize(), 0.0, &diff))
      << diff;
}

TEST(DbgenDeterminismTest, DifferentSeedDifferentData) {
  DbgenConfig a, b;
  a.scale_factor = b.scale_factor = 0.002;
  a.partitions = b.partitions = 2;
  b.seed = a.seed + 1;
  DataFrame da = Generate(a).Get("orders").Materialize();
  DataFrame db = Generate(b).Get("orders").Materialize();
  EXPECT_FALSE(da.ApproxEquals(db));
}

TEST(DbgenScaleTest, RowsAtScaleMatchesGeneration) {
  EXPECT_EQ(RowsAtScale("customer", 0.01), 1500u);
  EXPECT_EQ(RowsAtScale("orders", 0.1), 150000u);
  EXPECT_EQ(RowsAtScale("nation", 5.0), 25u);
  EXPECT_THROW(RowsAtScale("bogus", 1.0), Error);
}

TEST(DbgenProjectionTest, SingleTableGenerationMatchesFullCatalog) {
  DbgenConfig cfg;
  cfg.scale_factor = 0.005;
  cfg.partitions = 4;
  Catalog full = Generate(cfg);
  for (const auto& name : full.TableNames()) {
    DataFrame whole = full.Get(name).Materialize();
    DataFrame single = GenerateTable(cfg, name).Materialize();
    std::string diff;
    EXPECT_TRUE(single.ApproxEquals(whole, 0.0, &diff))
        << name << ": " << diff;
  }
}

TEST(DbgenProjectionTest, ProjectedColumnsAreBitIdenticalToFull) {
  DbgenConfig cfg;
  cfg.scale_factor = 0.005;
  cfg.partitions = 4;
  // Projection must consume the same random draws, so the kept columns
  // match a full generation exactly — including columns generated *after*
  // skipped ones in the row loop.
  struct Case {
    const char* table;
    std::vector<std::string> columns;
  };
  for (const auto& c : std::vector<Case>{
           {"lineitem", {"l_orderkey", "l_extendedprice", "l_shipmode"}},
           {"orders", {"o_orderkey", "o_orderdate", "o_clerk"}},
           {"customer", {"c_custkey", "c_phone", "c_mktsegment"}},
           {"supplier", {"s_suppkey", "s_acctbal"}},
           {"part", {"p_partkey", "p_container", "p_retailprice"}},
           {"partsupp", {"ps_suppkey", "ps_supplycost"}},
           {"nation", {"n_name"}},
           {"region", {"r_name", "r_comment"}}}) {
    DataFrame projected = GenerateTable(cfg, c.table, c.columns).Materialize();
    DataFrame expected =
        GenerateTable(cfg, c.table).Materialize().Select(c.columns);
    std::string diff;
    EXPECT_TRUE(projected.ApproxEquals(expected, 0.0, &diff))
        << c.table << ": " << diff;
    EXPECT_EQ(projected.num_columns(), c.columns.size());
  }
}

}  // namespace
}  // namespace tpch
}  // namespace wake
