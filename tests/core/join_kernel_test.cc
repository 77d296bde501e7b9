#include "core/join_kernel.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "plan/props.h"

namespace wake {
namespace {

Schema LeftSchema() {
  return Schema({{"lk", ValueType::kInt64}, {"lv", ValueType::kFloat64}});
}
Schema RightSchema() {
  return Schema({{"rk", ValueType::kInt64}, {"rv", ValueType::kString}});
}

DataFrame Left(const std::vector<int64_t>& keys,
               const std::vector<double>& vals) {
  DataFrame df(LeftSchema());
  *df.mutable_column(0) = Column::FromInts(keys);
  *df.mutable_column(1) = Column::FromDoubles(vals);
  return df;
}

DataFrame Right(const std::vector<int64_t>& keys,
                const std::vector<std::string>& vals) {
  DataFrame df(RightSchema());
  *df.mutable_column(0) = Column::FromInts(keys);
  *df.mutable_column(1) = Column::FromStrings(vals);
  return df;
}

TEST(JoinHashTableTest, InnerJoinMatchesAllPairs) {
  JoinHashTable table(RightSchema(), {"rk"});
  table.Insert(Right({1, 2, 2}, {"a", "b", "c"}));
  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                       JoinType::kInner);
  DataFrame out = table.Probe(Left({2, 3, 1}, {20, 30, 10}), {"lk"},
                              JoinType::kInner, out_schema);
  // lk=2 matches rk=2 twice; lk=3 matches nothing; lk=1 once.
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.ColumnByName("lk").IntAt(0), 2);
  EXPECT_EQ(out.ColumnByName("rv").StringAt(2), "a");
}

TEST(JoinHashTableTest, IncrementalInsertEqualsBulkInsert) {
  JoinHashTable bulk(RightSchema(), {"rk"});
  bulk.Insert(Right({1, 2, 3, 4}, {"a", "b", "c", "d"}));
  JoinHashTable incremental(RightSchema(), {"rk"});
  incremental.Insert(Right({1, 2}, {"a", "b"}));
  incremental.Insert(Right({3, 4}, {"c", "d"}));
  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                       JoinType::kInner);
  DataFrame probe = Left({4, 2, 1, 3}, {1, 2, 3, 4});
  std::string diff;
  EXPECT_TRUE(
      incremental.Probe(probe, {"lk"}, JoinType::kInner, out_schema)
          .ApproxEquals(bulk.Probe(probe, {"lk"}, JoinType::kInner,
                                   out_schema),
                        1e-12, &diff))
      << diff;
}

TEST(JoinHashTableTest, LeftJoinNullPads) {
  JoinHashTable table(RightSchema(), {"rk"});
  table.Insert(Right({1}, {"a"}));
  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                       JoinType::kLeft);
  DataFrame out = table.Probe(Left({1, 9}, {10, 90}), {"lk"},
                              JoinType::kLeft, out_schema);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.ColumnByName("rv").StringAt(0), "a");
  EXPECT_TRUE(out.ColumnByName("rv").IsNull(1));
}

TEST(JoinHashTableTest, SemiAntiProduceLeftRowsOnce) {
  JoinHashTable table(RightSchema(), {"rk"});
  table.Insert(Right({1, 1, 1}, {"a", "b", "c"}));  // key 1 three times
  Schema semi_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                        JoinType::kSemi);
  DataFrame semi = table.Probe(Left({1, 2}, {10, 20}), {"lk"},
                               JoinType::kSemi, semi_schema);
  EXPECT_EQ(semi.num_rows(), 1u);  // no duplication despite 3 matches
  DataFrame anti = table.Probe(Left({1, 2}, {10, 20}), {"lk"},
                               JoinType::kAnti, semi_schema);
  EXPECT_EQ(anti.num_rows(), 1u);
  EXPECT_EQ(anti.ColumnByName("lk").IntAt(0), 2);
}

TEST(JoinHashTableTest, CrossJoinBroadcastsSingleRow) {
  JoinHashTable table(RightSchema(), {});
  table.Insert(Right({7}, {"scalar"}));
  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {},
                                       JoinType::kCross);
  DataFrame out = table.Probe(Left({1, 2, 3}, {1, 2, 3}), {},
                              JoinType::kCross, out_schema);
  ASSERT_EQ(out.num_rows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.ColumnByName("rv").StringAt(i), "scalar");
  }
}

TEST(JoinHashTableTest, CrossJoinEmptyBuildYieldsEmpty) {
  JoinHashTable table(RightSchema(), {});
  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {},
                                       JoinType::kCross);
  DataFrame out = table.Probe(Left({1, 2}, {1, 2}), {}, JoinType::kCross,
                              out_schema);
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(JoinHashTableTest, CrossJoinMultiRowBuildThrows) {
  JoinHashTable table(RightSchema(), {});
  table.Insert(Right({1, 2}, {"a", "b"}));
  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {},
                                       JoinType::kCross);
  EXPECT_THROW(
      table.Probe(Left({1}, {1}), {}, JoinType::kCross, out_schema), Error);
}

TEST(JoinHashTableTest, VarianceGatherThroughJoin) {
  JoinHashTable table(RightSchema(), {"rk"});
  VarianceMap right_vars{{"rv", {0.0}}};  // present but exact
  table.Insert(Right({1}, {"a"}), &right_vars);
  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                       JoinType::kInner);
  VarianceMap left_vars{{"lv", {4.0, 9.0}}};
  VarianceMap out_vars;
  DataFrame out = table.Probe(Left({1, 1}, {10, 20}), {"lk"},
                              JoinType::kInner, out_schema, &left_vars,
                              &out_vars);
  ASSERT_EQ(out.num_rows(), 2u);
  ASSERT_TRUE(out_vars.count("lv"));
  EXPECT_DOUBLE_EQ(out_vars["lv"][0], 4.0);
  EXPECT_DOUBLE_EQ(out_vars["lv"][1], 9.0);
}

TEST(JoinHashTableTest, HashCollisionKeepsDistinctKeysApart) {
  // A null key and the int key 0xdeadbeef produce the same 64-bit hash
  // (nulls hash as the constant 0xdeadbeef), so both build rows share one
  // index chain; key verification on probe must keep them apart.
  const int64_t kColliding = 0xdeadbeef;
  DataFrame right(RightSchema());
  *right.mutable_column(0) = Column::FromInts({kColliding, 0});
  right.mutable_column(0)->SetNull(1);
  *right.mutable_column(1) = Column::FromStrings({"int", "null"});
  JoinHashTable table(RightSchema(), {"rk"});
  table.Insert(right);

  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                       JoinType::kInner);
  DataFrame out = table.Probe(Left({kColliding}, {1.0}), {"lk"},
                              JoinType::kInner, out_schema);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.ColumnByName("rv").StringAt(0), "int");

  // The null probe key collides with 0xdeadbeef too and must only match
  // the null build row (null keys compare equal to null keys here).
  DataFrame left(LeftSchema());
  *left.mutable_column(0) = Column::FromInts({0});
  left.mutable_column(0)->SetNull(0);
  *left.mutable_column(1) = Column::FromDoubles({2.0});
  DataFrame null_out =
      table.Probe(left, {"lk"}, JoinType::kInner, out_schema);
  ASSERT_EQ(null_out.num_rows(), 1u);
  EXPECT_EQ(null_out.ColumnByName("rv").StringAt(0), "null");
}

TEST(JoinHashTableTest, ProbeEmptyBuildTable) {
  JoinHashTable table(RightSchema(), {"rk"});
  Schema inner_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                         JoinType::kInner);
  DataFrame inner = table.Probe(Left({1, 2}, {1, 2}), {"lk"},
                                JoinType::kInner, inner_schema);
  EXPECT_EQ(inner.num_rows(), 0u);
  EXPECT_TRUE(inner.schema().SameFields(inner_schema));

  // Left join against an empty build side null-pads every probe row.
  Schema left_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                        JoinType::kLeft);
  DataFrame padded = table.Probe(Left({1, 2}, {1, 2}), {"lk"},
                                 JoinType::kLeft, left_schema);
  ASSERT_EQ(padded.num_rows(), 2u);
  EXPECT_TRUE(padded.ColumnByName("rv").IsNull(0));
  EXPECT_TRUE(padded.ColumnByName("rv").IsNull(1));
}

TEST(JoinHashTableTest, ManyDistinctKeysStayExact) {
  // Thousands of keys force slot collisions and rehashes in the flat
  // index; every probe must still match exactly its own key.
  constexpr int64_t kN = 20000;
  std::vector<int64_t> keys(kN);
  std::vector<std::string> vals(kN);
  for (int64_t i = 0; i < kN; ++i) {
    keys[i] = i * 7;
    vals[i] = std::to_string(i);
  }
  JoinHashTable table(RightSchema(), {"rk"});
  table.Insert(Right(keys, vals));
  Schema out_schema = JoinOutputSchema(LeftSchema(), RightSchema(), {"rk"},
                                       JoinType::kInner);
  // Probe keys: every multiple of 7 hits, everything else misses.
  DataFrame out = table.Probe(Left({0, 7, 3, 7 * (kN - 1), 7 * kN},
                                   {0, 1, 2, 3, 4}),
                              {"lk"}, JoinType::kInner, out_schema);
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.ColumnByName("rv").StringAt(0), "0");
  EXPECT_EQ(out.ColumnByName("rv").StringAt(1), "1");
  EXPECT_EQ(out.ColumnByName("rv").StringAt(2), std::to_string(kN - 1));
}

// --- dictionary-encoded string keys ---

Schema StrLeftSchema() {
  return Schema({{"lk", ValueType::kString}, {"lv", ValueType::kFloat64}});
}
Schema StrRightSchema() {
  return Schema({{"rk", ValueType::kString}, {"rv", ValueType::kInt64}});
}

DataFrame StrFrame(const Schema& schema, Column keys,
                   const std::vector<int64_t>& vals) {
  DataFrame df(schema);
  *df.mutable_column(0) = std::move(keys);
  if (schema.field(1).type == ValueType::kFloat64) {
    std::vector<double> d(vals.begin(), vals.end());
    *df.mutable_column(1) = Column::FromDoubles(d);
  } else {
    *df.mutable_column(1) = Column::FromInts(vals);
  }
  return df;
}

TEST(JoinHashTableTest, DictKeysMatchSharedDictProbe) {
  // Build and probe share one dict (same source table) — the code-compare
  // fast path.
  Column pool = Column::FromStrings({"ant", "bee", "cat", "ant", "bee"});
  JoinHashTable table(StrRightSchema(), {"rk"});
  table.Insert(StrFrame(StrRightSchema(), pool.Slice(0, 3), {10, 20, 30}));
  Schema out_schema = JoinOutputSchema(StrLeftSchema(), StrRightSchema(),
                                       {"rk"}, JoinType::kInner);
  DataFrame out = table.Probe(
      StrFrame(StrLeftSchema(), pool.Slice(3, 5), {1, 2}), {"lk"},
      JoinType::kInner, out_schema);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.ColumnByName("lk").StringAt(0), "ant");
  EXPECT_EQ(out.ColumnByName("rv").IntAt(0), 10);
  EXPECT_EQ(out.ColumnByName("rv").IntAt(1), 20);
  // The gathered key column still shares the probe-side dict.
  ASSERT_TRUE(out.ColumnByName("lk").is_dict());
  EXPECT_EQ(out.ColumnByName("lk").dict().get(), pool.dict().get());
}

TEST(JoinHashTableTest, DictKeysCrossDictJoin) {
  // Build and probe from different sources (different dicts): hashes
  // depend only on the bytes, and the probe translates its codes into the
  // build dict.
  JoinHashTable table(StrRightSchema(), {"rk"});
  table.Insert(StrFrame(StrRightSchema(),
                        Column::FromStrings({"ant", "bee"}), {10, 20}));
  Schema out_schema = JoinOutputSchema(StrLeftSchema(), StrRightSchema(),
                                       {"rk"}, JoinType::kInner);
  DataFrame out = table.Probe(
      StrFrame(StrLeftSchema(),
               Column::FromStrings({"bee", "ant", "emu"}), {1, 2, 3}),
      {"lk"}, JoinType::kInner, out_schema);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.ColumnByName("rv").IntAt(0), 20);
  EXPECT_EQ(out.ColumnByName("rv").IntAt(1), 10);
}

TEST(JoinHashTableTest, NullStringKeysThroughDictJoin) {
  // Null keys match null keys (KeyEq semantics) and never match real
  // values.
  Column rk = Column::FromStrings({"ant", ""});
  rk.SetNull(1);
  JoinHashTable table(StrRightSchema(), {"rk"});
  table.Insert(StrFrame(StrRightSchema(), std::move(rk), {10, 20}));
  Schema out_schema = JoinOutputSchema(StrLeftSchema(), StrRightSchema(),
                                       {"rk"}, JoinType::kInner);
  Column lk = Column::FromStrings({"", "ant", ""});
  lk.SetNull(0);
  DataFrame out = table.Probe(
      StrFrame(StrLeftSchema(), std::move(lk), {1, 2, 3}), {"lk"},
      JoinType::kInner, out_schema);
  // Row 0 (null) matches the null build row; row 1 matches "ant"; row 2
  // (empty string, non-null) matches nothing.
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_TRUE(out.ColumnByName("lk").IsNull(0));
  EXPECT_EQ(out.ColumnByName("rv").IntAt(0), 20);
  EXPECT_EQ(out.ColumnByName("lk").StringAt(1), "ant");
  EXPECT_EQ(out.ColumnByName("rv").IntAt(1), 10);
}

TEST(JoinHashTableTest, DictLeftJoinPadsNulls) {
  Column pool = Column::FromStrings({"ant", "bee", "emu"});
  JoinHashTable table(StrRightSchema(), {"rk"});
  table.Insert(StrFrame(StrRightSchema(), pool.Slice(0, 1), {10}));
  Schema out_schema = JoinOutputSchema(StrLeftSchema(), StrRightSchema(),
                                       {"rk"}, JoinType::kLeft);
  DataFrame out = table.Probe(
      StrFrame(StrLeftSchema(), pool.Slice(1, 3), {1, 2}), {"lk"},
      JoinType::kLeft, out_schema);
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_TRUE(out.ColumnByName("rv").IsNull(0));
  EXPECT_TRUE(out.ColumnByName("rv").IsNull(1));
}

TEST(HashJoinFunctionTest, MultiKeyJoin) {
  Schema ls({{"a", ValueType::kInt64}, {"b", ValueType::kInt64},
             {"v", ValueType::kFloat64}});
  Schema rs({{"x", ValueType::kInt64}, {"y", ValueType::kInt64},
             {"w", ValueType::kFloat64}});
  DataFrame left(ls);
  *left.mutable_column(0) = Column::FromInts({1, 1, 2});
  *left.mutable_column(1) = Column::FromInts({10, 11, 10});
  *left.mutable_column(2) = Column::FromDoubles({1, 2, 3});
  DataFrame right(rs);
  *right.mutable_column(0) = Column::FromInts({1, 2});
  *right.mutable_column(1) = Column::FromInts({10, 10});
  *right.mutable_column(2) = Column::FromDoubles({100, 200});
  Schema out_schema =
      JoinOutputSchema(ls, rs, {"x", "y"}, JoinType::kInner);
  DataFrame out =
      HashJoin(left, right, {"a", "b"}, {"x", "y"}, JoinType::kInner,
               out_schema);
  ASSERT_EQ(out.num_rows(), 2u);  // (1,10) and (2,10)
  EXPECT_DOUBLE_EQ(out.ColumnByName("w").DoubleAt(0), 100.0);
  EXPECT_DOUBLE_EQ(out.ColumnByName("w").DoubleAt(1), 200.0);
}

}  // namespace
}  // namespace wake
