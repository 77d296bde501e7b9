#include "storage/partitioned_table.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace wake {
namespace {

DataFrame ClusteredFrame(size_t n) {
  Schema schema({{"key", ValueType::kInt64}, {"val", ValueType::kFloat64}});
  schema.set_primary_key({"key"});
  schema.set_clustering_key({"key"});
  DataFrame df(schema);
  for (size_t i = 0; i < n; ++i) {
    // Three rows per key, so a key's rows can continue into the next
    // partition.
    df.mutable_column(0)->AppendInt(static_cast<int64_t>(i / 3));
    df.mutable_column(1)->AppendDouble(static_cast<double>(i));
  }
  return df;
}

TEST(PartitionedTableTest, SplitsIntoRequestedPartitions) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("t", ClusteredFrame(100), 5);
  EXPECT_GE(t.num_partitions(), 4u);
  EXPECT_EQ(t.total_rows(), 100u);
  size_t sum = 0;
  for (size_t i = 0; i < t.num_partitions(); ++i) {
    sum += t.partition(i)->num_rows();
  }
  EXPECT_EQ(sum, 100u);
}

TEST(PartitionedTableTest, PartitionsArePlainRowRanges) {
  // 100 rows into 5 partitions of 20. Boundaries stay where the row count
  // puts them, so key 6 (rows 18-20) continues from partition 0 into
  // partition 1; the clustering key is recorded as given.
  PartitionedTable t =
      PartitionedTable::FromDataFrame("t", ClusteredFrame(100), 5);
  ASSERT_EQ(t.num_partitions(), 5u);
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    const DataFrame& part = *t.partition(p);
    ASSERT_EQ(part.num_rows(), 20u) << p;
    EXPECT_EQ(part.column(1).DoubleAt(0), static_cast<double>(20 * p)) << p;
  }
  EXPECT_EQ(t.partition(0)->column(0).IntAt(19), 6);
  EXPECT_EQ(t.partition(1)->column(0).IntAt(0), 6);
  EXPECT_EQ(t.schema().clustering_key(), std::vector<std::string>{"key"});
}

// Shuffled partitions no longer arrive in key order, so the shuffled
// table claims no clustering key (and plans no merge join or local
// aggregation over it).
TEST(PartitionedTableTest, ShuffledTableClaimsNoClusteringKey) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("t", ClusteredFrame(90), 9);
  PartitionedTable s = t.ShufflePartitions(1234);
  EXPECT_TRUE(s.schema().clustering_key().empty());
  EXPECT_EQ(s.schema().primary_key(), t.schema().primary_key());
}

TEST(PartitionedTableTest, MaterializeRoundTrips) {
  DataFrame df = ClusteredFrame(50);
  PartitionedTable t = PartitionedTable::FromDataFrame("t", df, 4);
  std::string diff;
  EXPECT_TRUE(t.Materialize().ApproxEquals(df, 1e-12, &diff)) << diff;
}

TEST(PartitionedTableTest, RepartitionPreservesContent) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("t", ClusteredFrame(60), 3);
  PartitionedTable r = t.Repartition(6);
  EXPECT_TRUE(r.Materialize().ApproxEquals(t.Materialize()));
  EXPECT_GT(r.num_partitions(), t.num_partitions());
}

TEST(PartitionedTableTest, ShufflePreservesRowsChangesOrder) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("t", ClusteredFrame(90), 9);
  PartitionedTable s = t.ShufflePartitions(1234);
  EXPECT_EQ(s.num_partitions(), t.num_partitions());
  EXPECT_EQ(s.total_rows(), t.total_rows());
  // Same multiset of rows once sorted back.
  DataFrame a = t.Materialize().SortBy({{"val", false}});
  DataFrame b = s.Materialize().SortBy({{"val", false}});
  EXPECT_TRUE(a.ApproxEquals(b));
}

TEST(PartitionedTableTest, EmptyFrameYieldsSinglePartition) {
  Schema schema({{"x", ValueType::kInt64}});
  PartitionedTable t =
      PartitionedTable::FromDataFrame("e", DataFrame(schema), 4);
  EXPECT_EQ(t.num_partitions(), 1u);
  EXPECT_EQ(t.total_rows(), 0u);
}

TEST(PartitionedTableTest, ChunkRowsMatchPartitions) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("t", ClusteredFrame(40), 4);
  EXPECT_EQ(t.name(), "t");
  EXPECT_EQ(t.total_rows(), 40u);
  ASSERT_EQ(t.num_chunks(), t.num_partitions());
  size_t sum = 0;
  for (size_t i = 0; i < t.num_chunks(); ++i) {
    EXPECT_EQ(t.chunk_rows(i), t.partition(i)->num_rows());
    sum += t.chunk_rows(i);
  }
  EXPECT_EQ(sum, t.total_rows());
}

TEST(CatalogTest, AddGetHas) {
  Catalog cat;
  EXPECT_FALSE(cat.Has("t"));
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("t", ClusteredFrame(10), 2)));
  EXPECT_TRUE(cat.Has("t"));
  EXPECT_EQ(cat.Get("t").total_rows(), 10u);
  EXPECT_THROW(cat.Get("missing"), Error);
  EXPECT_EQ(cat.TableNames(), std::vector<std::string>{"t"});
}

}  // namespace
}  // namespace wake
