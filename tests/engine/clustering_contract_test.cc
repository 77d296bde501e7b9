// The clustering contract (storage/partitioned_table.h) end to end. A
// table clustered on K delivers its rows in non-decreasing K order, and a
// producer that cannot keep that order claims no clustering key. Each
// test checks that the kOla final equals the kExact final row for row:
// the first three over table shapes whose producer cannot keep the order,
// the last over clustered tables whose key runs cross partitions.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/db.h"
#include "ingest/live_table.h"
#include "storage/partitioned_table.h"

namespace wake {
namespace {

/// A two-column int64 schema clustered (and keyed) on `key`.
Schema KeyedSchema(const std::string& key, const std::string& val) {
  Schema schema({{key, ValueType::kInt64}, {val, ValueType::kInt64}});
  schema.set_clustering_key({key});
  return schema;
}

/// `rows_per_key` rows for each key from `first_key` on, under `schema`;
/// the values count up from `first_val`.
DataFrame Rows(const Schema& schema, int64_t first_key, int64_t num_keys,
               int64_t rows_per_key, int64_t first_val) {
  DataFrame df(schema);
  int64_t val = first_val;
  for (int64_t k = first_key; k < first_key + num_keys; ++k) {
    for (int64_t r = 0; r < rows_per_key; ++r) {
      df.mutable_column(0)->AppendInt(k);
      df.mutable_column(1)->AppendInt(val++);
    }
  }
  return df;
}

/// Runs `sql` under kExact and then `runs` times under kOla; every kOla
/// final must equal the kExact final row for row.
void ExpectOlaFinalsMatchExact(const Catalog& catalog, const std::string& sql,
                               size_t expected_rows, int runs) {
  Db db(&catalog);
  PreparedQuery query = db.Prepare(sql);
  RunOptions exact;
  exact.engine = QueryEngine::kExact;
  DataFrame want = query.Execute(exact);
  ASSERT_EQ(want.num_rows(), expected_rows);
  for (int run = 0; run < runs; ++run) {
    DataFrame got = query.Execute();
    std::string diff;
    ASSERT_TRUE(got.ApproxEquals(want, 0.0, &diff))
        << "kOla run " << run << ": " << diff;
  }
}

// A live table's appends are never checked against a key order, so one
// whose appends cut key runs must not feed a merge join: a merge join
// with a probe partial arriving between two halves of a run once probed
// that key before the second half arrived.
TEST(ClusteringContractTest, JoinWithALiveBuildSideSplittingKeyRuns) {
  Catalog catalog;
  Schema o_schema = KeyedSchema("ok", "ov");
  o_schema.set_primary_key({"ok"});
  catalog.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("o", Rows(o_schema, 1, 300, 1, 0),
                                      30)));
  auto live = std::make_shared<LiveTable>("l", KeyedSchema("lk", "lv"));
  DataFrame l_rows = Rows(KeyedSchema("lk", "lv"), 1, 300, 3, 0);
  for (size_t begin = 0; begin < l_rows.num_rows(); begin += 20) {
    live->Append(l_rows.Slice(begin, begin + 20));  // runs of 3 cut by 20
  }
  catalog.AddDynamic(live);
  EXPECT_TRUE(live->schema().clustering_key().empty());
  ExpectOlaFinalsMatchExact(
      catalog, "SELECT ok, ov, lv FROM o JOIN l ON ok = lk ORDER BY ok, lv",
      900, 10);
}

// Shuffled partitions arrive out of key order, so a shuffled table claims
// no clustering key; a merge join over two of them once emitted probe rows
// whose build partial had not arrived yet.
TEST(ClusteringContractTest, JoinOverShuffledPartitions) {
  PartitionedTable a = PartitionedTable::FromDataFrame(
      "a", Rows(KeyedSchema("ak", "av"), 1, 1000, 2, 0), 20);
  PartitionedTable b = PartitionedTable::FromDataFrame(
      "b", Rows(KeyedSchema("bk", "bv"), 1, 1000, 1, 0), 10);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Catalog catalog;
    catalog.Add(std::make_shared<PartitionedTable>(a.ShufflePartitions(seed)));
    catalog.Add(
        std::make_shared<PartitionedTable>(b.ShufflePartitions(seed + 100)));
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectOlaFinalsMatchExact(
        catalog,
        "SELECT ak, av, bv FROM a JOIN b ON ak = bk ORDER BY ak, av", 2000,
        1);
  }
}

// A stream that restarts its keys (a fixed history, then new rows from key
// 1 again) is no clustered table: a local aggregation over it once
// finalized every group twice, with half its sum each time.
TEST(ClusteringContractTest, GroupByOverALiveTableWhoseAppendsRestartKeys) {
  Schema schema = KeyedSchema("k", "v");
  auto live = std::make_shared<LiveTable>("t", schema);
  live->Append(Rows(schema, 1, 50, 1, 0));
  live->Append(Rows(schema, 51, 50, 1, 50));
  live->Append(Rows(schema, 1, 100, 1, 100));  // the stream starts over
  Catalog catalog;
  catalog.AddDynamic(live);
  ExpectOlaFinalsMatchExact(catalog,
                            "SELECT k, SUM(v) AS s, COUNT(*) AS c FROM t "
                            "GROUP BY k ORDER BY k",
                            100, 3);
}

// Every key a merge join probes is complete on its build side, so semi
// and anti joins of two clustered append inputs merge too. Both inputs'
// key runs continue across partition boundaries here.
TEST(ClusteringContractTest, SemiAndAntiJoinsOverRunsThatCrossPartitions) {
  Catalog catalog;
  catalog.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame(
          "a", Rows(KeyedSchema("ak", "av"), 1, 300, 3, 0), 7)));
  catalog.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame(
          "b", Rows(KeyedSchema("bk", "bv"), 100, 300, 4, 0), 9)));
  // a's keys 100-300 have matches in b; keys 1-99 have none.
  ExpectOlaFinalsMatchExact(
      catalog, "SELECT ak, av FROM a SEMI JOIN b ON ak = bk ORDER BY ak, av",
      603, 3);
  ExpectOlaFinalsMatchExact(
      catalog, "SELECT ak, av FROM a ANTI JOIN b ON ak = bk ORDER BY ak, av",
      297, 3);
}

}  // namespace
}  // namespace wake
