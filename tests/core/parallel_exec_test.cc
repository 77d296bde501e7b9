// Morsel-parallel execution: probe determinism at any worker count,
// probe-side dict unification for cross-dict string joins, concurrent
// probes over one shared JoinHashTable, and engine-level 1-vs-N worker
// result identity.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>

#include "common/rng.h"
#include "common/worker_pool.h"
#include "core/engine.h"
#include "core/join_kernel.h"
#include "plan/props.h"

namespace wake {
namespace {

Schema BuildSchema() {
  return Schema({{"bk", ValueType::kInt64}, {"bv", ValueType::kFloat64}});
}
Schema ProbeSchema() {
  return Schema({{"pk", ValueType::kInt64}, {"pv", ValueType::kFloat64}});
}

DataFrame MakeKeyed(const Schema& schema, size_t rows, int64_t keys,
                    uint64_t seed, bool with_nulls = false) {
  DataFrame df(schema);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    df.mutable_column(0)->AppendInt(rng.UniformInt(0, keys - 1));
    df.mutable_column(1)->AppendDouble(rng.UniformDouble(0, 100));
    if (with_nulls && i % 97 == 13) df.mutable_column(0)->SetNull(i);
  }
  return df;
}

class ParallelProbeTest : public ::testing::TestWithParam<JoinType> {};

// A pooled probe must be byte-identical to the serial probe: morsel
// match vectors are stitched in morsel order, which is the serial row
// order.
TEST_P(ParallelProbeTest, PooledProbeIdenticalToSerial) {
  JoinType type = GetParam();
  constexpr size_t kProbeRows = 80 * 1024;  // > 2 morsels
  JoinHashTable table(BuildSchema(), {"bk"});
  table.Insert(MakeKeyed(BuildSchema(), 20 * 1024, 16 * 1024, 3,
                         /*with_nulls=*/true));
  DataFrame probe =
      MakeKeyed(ProbeSchema(), kProbeRows, 16 * 1024, 5, /*with_nulls=*/true);
  Schema out_schema =
      JoinOutputSchema(ProbeSchema(), BuildSchema(), {"bk"}, type);

  DataFrame serial = table.Probe(probe, {"pk"}, type, out_schema);
  WorkerPool pool(4);
  DataFrame pooled = table.Probe(probe, {"pk"}, type, out_schema, nullptr,
                                 nullptr, &pool);
  std::string diff;
  EXPECT_TRUE(pooled.ApproxEquals(serial, 0.0, &diff)) << diff;
  EXPECT_EQ(pooled.num_rows(), serial.num_rows());
}

INSTANTIATE_TEST_SUITE_P(AllJoinTypes, ParallelProbeTest,
                         ::testing::Values(JoinType::kInner, JoinType::kLeft,
                                           JoinType::kSemi,
                                           JoinType::kAnti));

Schema DictBuildSchema() {
  return Schema({{"bk", ValueType::kString}, {"bv", ValueType::kFloat64}});
}
Schema DictProbeSchema() {
  return Schema({{"pk", ValueType::kString}, {"pv", ValueType::kFloat64}});
}

// Key column of `rows` draws over "key<i>" strings, interned into a
// private dict of its own.
Column MakeStringKeys(size_t rows, int64_t keys, uint64_t seed,
                      int64_t absent_every = 0) {
  Column col(ValueType::kString);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    int64_t k = rng.UniformInt(0, keys - 1);
    if (absent_every > 0 && static_cast<int64_t>(i) % absent_every == 7) {
      col.AppendString("absent" + std::to_string(k));
    } else {
      col.AppendString("key" + std::to_string(k));
    }
  }
  return col;
}

// Cross-dict string join: the probe keys live in a different dict than
// the build keys. Unification remaps probe codes into the build dict once
// per partial; the result must match a baseline whose keys share one dict,
// so its probe translates nothing.
TEST(CrossDictProbeTest, UnifiedProbeMatchesPlainBaseline) {
  constexpr size_t kRows = 4096;
  DataFrame build(DictBuildSchema());
  *build.mutable_column(0) = MakeStringKeys(kRows / 4, 300, 11);
  for (size_t i = 0; i < kRows / 4; ++i) {
    build.mutable_column(1)->AppendDouble(static_cast<double>(i));
  }
  DataFrame probe(DictProbeSchema());
  *probe.mutable_column(0) = MakeStringKeys(kRows, 300, 13, /*absent=*/31);
  for (size_t i = 0; i < kRows; ++i) {
    probe.mutable_column(1)->AppendDouble(static_cast<double>(i) * 0.5);
  }
  ASSERT_NE(probe.column(0).dict().get(), build.column(0).dict().get());

  for (JoinType type :
       {JoinType::kInner, JoinType::kLeft, JoinType::kSemi, JoinType::kAnti}) {
    Schema out_schema =
        JoinOutputSchema(DictProbeSchema(), DictBuildSchema(), {"bk"}, type);
    JoinHashTable dict_table(DictBuildSchema(), {"bk"});
    dict_table.Insert(build);
    DataFrame unified = dict_table.Probe(probe, {"pk"}, type, out_schema);

    // Baseline: the same keys coded into one shared dict (code compares
    // everywhere, no translation).
    Column shared(ValueType::kString);
    shared.AppendString("seed");  // a dict of the baseline's own
    shared.AppendColumn(build.column(0));
    shared.AppendColumn(probe.column(0));
    const size_t nb = build.num_rows();
    DataFrame shared_build(DictBuildSchema());
    *shared_build.mutable_column(0) = shared.Slice(1, 1 + nb);
    *shared_build.mutable_column(1) = build.column(1);
    DataFrame shared_probe(DictProbeSchema());
    *shared_probe.mutable_column(0) = shared.Slice(1 + nb, shared.size());
    *shared_probe.mutable_column(1) = probe.column(1);
    ASSERT_EQ(shared_build.column(0).dict().get(),
              shared_probe.column(0).dict().get());
    ASSERT_NE(shared_build.column(0).dict().get(),
              build.column(0).dict().get());
    JoinHashTable shared_table(DictBuildSchema(), {"bk"});
    shared_table.Insert(shared_build);
    DataFrame baseline =
        shared_table.Probe(shared_probe, {"pk"}, type, out_schema);

    std::string diff;
    EXPECT_TRUE(unified.ApproxEquals(baseline, 0.0, &diff))
        << "type=" << static_cast<int>(type) << ": " << diff;
  }
}

// The build dict growing between probes must invalidate cached "absent"
// translations (append-only dicts: found entries stay valid).
TEST(CrossDictProbeTest, BuildDictGrowthRefreshesAbsentEntries) {
  Schema bs = DictBuildSchema();
  DataFrame build1(bs);
  *build1.mutable_column(0) = Column::FromStrings({"a", "b"});
  build1.mutable_column(1)->AppendDouble(1.0);
  build1.mutable_column(1)->AppendDouble(2.0);
  JoinHashTable table(bs, {"bk"});
  table.Insert(build1);

  DataFrame probe(DictProbeSchema());
  *probe.mutable_column(0) = Column::FromStrings({"c", "a"});
  probe.mutable_column(1)->AppendDouble(0.0);
  probe.mutable_column(1)->AppendDouble(0.0);
  Schema out_schema =
      JoinOutputSchema(DictProbeSchema(), bs, {"bk"}, JoinType::kInner);
  EXPECT_EQ(table.Probe(probe, {"pk"}, JoinType::kInner, out_schema)
                .num_rows(),
            1u);  // only "a"; "c" cached absent

  // Second build partial interns "c" — the same probe must now match it.
  DataFrame build2(bs);
  Column more(ValueType::kString);
  more.AppendString("c");
  *build2.mutable_column(0) = std::move(more);
  build2.mutable_column(1)->AppendDouble(3.0);
  table.Insert(build2);
  EXPECT_EQ(table.Probe(probe, {"pk"}, JoinType::kInner, out_schema)
                .num_rows(),
            2u);
}

// The flat-hash table is read-mostly after build: many threads may probe
// one shared table concurrently (this is what the morsel-parallel join
// node does). Every thread must see the full serial result.
TEST(ConcurrentProbeTest, SharedTableProbesFromManyThreads) {
  constexpr size_t kProbeRows = 48 * 1024;
  JoinHashTable table(BuildSchema(), {"bk"});
  table.Insert(MakeKeyed(BuildSchema(), 12 * 1024, 8 * 1024, 3));
  DataFrame probe = MakeKeyed(ProbeSchema(), kProbeRows, 8 * 1024, 5);
  Schema out_schema =
      JoinOutputSchema(ProbeSchema(), BuildSchema(), {"bk"}, JoinType::kInner);
  DataFrame expected = table.Probe(probe, {"pk"}, JoinType::kInner,
                                   out_schema);

  WorkerPool pool(3);
  std::vector<int> ok(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        // Alternate serial and pooled probes to mix access patterns.
        WorkerPool* p = (rep % 2 == 0) ? &pool : nullptr;
        DataFrame out = table.Probe(probe, {"pk"}, JoinType::kInner,
                                    out_schema, nullptr, nullptr, p);
        if (!out.ApproxEquals(expected, 0.0)) return;
      }
      ok[t] = 1;
    });
  }
  for (auto& t : threads) t.join();
  for (size_t t = 0; t < 4; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

// Engine-level determinism: the same query must produce the same final
// frame with serial operators and with a 4-worker pool.
TEST(EngineWorkersTest, FinalResultIdenticalAcrossWorkerCounts) {
  Schema schema({{"key", ValueType::kInt64},
                 {"dim", ValueType::kInt64},
                 {"val", ValueType::kFloat64}});
  schema.set_primary_key({"key"});
  schema.set_clustering_key({"key"});
  DataFrame df(schema);
  Rng rng(7);
  constexpr size_t kRows = 120 * 1024;
  for (size_t i = 0; i < kRows; ++i) {
    df.mutable_column(0)->AppendInt(static_cast<int64_t>(i));
    df.mutable_column(1)->AppendInt(rng.UniformInt(0, 499));
    df.mutable_column(2)->AppendDouble(rng.UniformDouble(0, 10));
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("fact", df, 3)));

  Plan plan = Plan::Scan("fact")
                  .Filter(Gt(Expr::Col("val"), Expr::Float(1.0)))
                  .Aggregate({"dim"}, {Sum("val", "s"), Count("n")});

  auto run = [&](size_t workers) {
    WorkerPool pool(workers);
    WakeOptions options;
    options.pool = &pool;
    WakeEngine engine(&cat, options);
    return engine.ExecuteFinal(plan.node());
  };
  DataFrame serial = run(1);
  DataFrame wide = run(4);
  ASSERT_GT(serial.num_rows(), 0u);
  std::string diff;
  EXPECT_TRUE(serial.ApproxEquals(wide, 0.0, &diff)) << diff;
}

// Engine-level: order-by with and without a limit, serial vs pooled.
TEST(EngineWorkersTest, SortLimitIdenticalAcrossWorkerCounts) {
  Schema schema({{"key", ValueType::kInt64}, {"val", ValueType::kFloat64}});
  DataFrame df(schema);
  Rng rng(17);
  constexpr size_t kRows = 130 * 1024;
  for (size_t i = 0; i < kRows; ++i) {
    df.mutable_column(0)->AppendInt(rng.UniformInt(0, 200));  // many ties
    df.mutable_column(1)->AppendDouble(rng.UniformDouble(0, 100));
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("fact", df, 2)));
  for (std::optional<size_t> limit :
       {std::optional<size_t>(), std::optional<size_t>(50)}) {
    Plan plan = Plan::Scan("fact").Sort({{"key", true}, {"val", false}},
                                        limit);
    auto run = [&](size_t workers) {
      WorkerPool pool(workers);
      WakeOptions options;
      options.pool = &pool;
      WakeEngine engine(&cat, options);
      return engine.ExecuteFinal(plan.node());
    };
    DataFrame serial = run(1);
    DataFrame wide = run(4);
    ASSERT_GT(serial.num_rows(), 0u);
    std::string diff;
    EXPECT_TRUE(serial.ApproxEquals(wide, 0.0, &diff))
        << "limit=" << (limit ? std::to_string(*limit) : "none") << ": "
        << diff;
  }
}

}  // namespace
}  // namespace wake
