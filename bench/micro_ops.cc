// Micro-benchmarks (google-benchmark) for the hot kernels: grouped
// aggregation merge, growth-model fitting, aggregate estimators, hash-join
// probe, expression evaluation, sorting, LIKE matching, and channel
// throughput. These quantify the per-partial costs behind Fig 11/12.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "common/channel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/wire.h"
#include "common/worker_pool.h"
#include "core/agg_state.h"
#include "core/growth.h"
#include "core/inference.h"
#include "core/join_kernel.h"
#include "ingest/live_table.h"
#include "plan/props.h"
#include "storage/wakeblock.h"
#include "tpch/dbgen.h"

namespace wake {
namespace {

DataFrame MakeFact(size_t rows, int64_t groups, uint64_t seed = 11) {
  Schema schema({{"g", ValueType::kInt64}, {"v", ValueType::kFloat64}});
  DataFrame df(schema);
  Rng rng(seed);
  df.mutable_column(0)->Reserve(rows);
  df.mutable_column(1)->Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    df.mutable_column(0)->AppendInt(rng.UniformInt(0, groups - 1));
    df.mutable_column(1)->AppendDouble(rng.UniformDouble(0, 100));
  }
  return df;
}

void BM_GroupedAggMerge(benchmark::State& state) {
  size_t rows = 64 * 1024;
  int64_t groups = state.range(0);
  DataFrame partial = MakeFact(rows, groups);
  Schema in = partial.schema();
  std::vector<AggSpec> aggs = {Sum("v", "s"), Count("n"), Avg("v", "a")};
  for (auto _ : state) {
    GroupedAggState agg({"g"}, aggs, in, AggOutputSchema(in, {"g"}, aggs));
    agg.Consume(partial);
    benchmark::DoNotOptimize(agg.Finalize(AggScaling{}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
}
BENCHMARK(BM_GroupedAggMerge)->Arg(4)->Arg(256)->Arg(16384);

void BM_GbiFinalize(benchmark::State& state) {
  DataFrame partial = MakeFact(64 * 1024, state.range(0));
  Schema in = partial.schema();
  std::vector<AggSpec> aggs = {Sum("v", "s"), Count("n")};
  GroupedAggState agg({"g"}, aggs, in, AggOutputSchema(in, {"g"}, aggs));
  agg.Consume(partial);
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 0.25;
  scaling.w = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg.Finalize(scaling));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_GbiFinalize)->Arg(256)->Arg(16384);

void BM_GrowthModelObserve(benchmark::State& state) {
  GrowthModel model;
  double t = 0.001;
  for (auto _ : state) {
    model.Observe(t, 100.0 * t);
    t = t >= 1.0 ? 0.001 : t + 0.001;
    benchmark::DoNotOptimize(model.w());
  }
}
BENCHMARK(BM_GrowthModelObserve);

void BM_CountDistinctEstimator(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateCountDistinct(120.0, 200.0, 1000.0));
  }
}
BENCHMARK(BM_CountDistinctEstimator);

void BM_HashJoinProbe(benchmark::State& state) {
  DataFrame build = MakeFact(static_cast<size_t>(state.range(0)), 1 << 16, 3);
  // Rename the build columns so the join output has no name collisions.
  Schema build_schema({{"bk", ValueType::kInt64},
                       {"bv", ValueType::kFloat64}});
  DataFrame renamed(build_schema);
  *renamed.mutable_column(0) = build.column(0);
  *renamed.mutable_column(1) = build.column(1);
  JoinHashTable table(build_schema, {"bk"});
  table.Insert(renamed);
  DataFrame probe = MakeFact(64 * 1024, 1 << 16, 5);
  Schema out = JoinOutputSchema(probe.schema(), build_schema, {"bk"},
                                JoinType::kInner);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Probe(probe, {"g"}, JoinType::kInner, out));
  }
  state.SetItemsProcessed(64 * 1024 * state.iterations());
}
BENCHMARK(BM_HashJoinProbe)->Arg(1 << 12)->Arg(1 << 16);

void BM_HashJoinBuild(benchmark::State& state) {
  Schema build_schema({{"bk", ValueType::kInt64},
                       {"bv", ValueType::kFloat64}});
  DataFrame fact = MakeFact(static_cast<size_t>(state.range(0)), 1 << 16, 3);
  DataFrame build(build_schema);
  *build.mutable_column(0) = fact.column(0);
  *build.mutable_column(1) = fact.column(1);
  for (auto _ : state) {
    JoinHashTable table(build_schema, {"bk"});
    table.Insert(build);
    benchmark::DoNotOptimize(table.num_rows());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_HashJoinBuild)->Arg(1 << 12)->Arg(1 << 16);

void BM_ExprEval(benchmark::State& state) {
  DataFrame df = MakeFact(64 * 1024, 100);
  ExprPtr expr =
      Expr::And(Gt(Expr::Col("v"), Expr::Float(25.0)),
                Lt(Expr::Col("v") * Expr::Float(1.1), Expr::Float(95.0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->Eval(df));
  }
  state.SetItemsProcessed(64 * 1024 * state.iterations());
}
BENCHMARK(BM_ExprEval);

void BM_SortBy(benchmark::State& state) {
  DataFrame df = MakeFact(static_cast<size_t>(state.range(0)), 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(df.SortBy({{"v", true}, {"g", false}}));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_SortBy)->Arg(1 << 12)->Arg(1 << 16);

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "carefully final deposits sleep special packages requests";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, "%special%requests%"));
  }
}
BENCHMARK(BM_LikeMatch);

void BM_ChannelThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Channel<int> ch;
    std::thread producer([&] {
      for (int i = 0; i < 10000; ++i) ch.Send(i);
      ch.Close();
    });
    long total = 0;
    while (auto v = ch.Receive()) total += *v;
    producer.join();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(10000 * state.iterations());
}
BENCHMARK(BM_ChannelThroughput);

}  // namespace

// ---------------------------------------------------------------------------
// One-line JSON mode (`micro_ops --json`): times the hot kernels —
// join_build, join_probe, group_by, count_distinct — on a fixed workload,
// with int keys and string keys (codes into a shared dict), and prints a
// single JSON object (the BENCH_micro_ops.json format) so the perf
// trajectory of these kernels can be tracked across PRs.
// ---------------------------------------------------------------------------

double BestMrowsPerSec(size_t rows_per_run, const std::function<void()>& fn) {
  // Warm up once, then take the best of 5 timed runs (min wall time).
  fn();
  double best_sec = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    auto start = std::chrono::steady_clock::now();
    fn();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best_sec = std::min(best_sec, elapsed.count());
  }
  return static_cast<double>(rows_per_run) / best_sec / 1e6;
}

// String column of `keys` distinct "Customer#%09d"-style strings
// (18 chars — heap-allocated under libstdc++ SSO, like real TPC-H
// name/phone columns).
Column MakeStringPool(int64_t keys) {
  std::vector<std::string> pool(static_cast<size_t>(keys));
  for (int64_t k = 0; k < keys; ++k) {
    pool[static_cast<size_t>(k)] =
        StrFormat("Customer#%09lld", static_cast<long long>(k));
  }
  return Column::FromStrings(pool);
}

// Key column of `rows` random draws from the pool. Every column gathered
// from one pool shares its dict, mirroring partials of one source table.
Column MakeStringKeys(const Column& pool, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> idx(rows);
  for (size_t i = 0; i < rows; ++i) {
    idx[i] = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
  }
  return pool.Take(idx);
}

struct KernelRates {
  double join_build = 0.0;
  double join_probe = 0.0;
  double group_by = 0.0;
  double count_distinct = 0.0;
};

// Times the kernels over the given key columns (int or string keys — the
// kernels are type-agnostic). count_distinct is
// COUNT(DISTINCT v) per group over the group_by input, whose v values are
// all distinct: every row inserts one (group, value) entry.
KernelRates MeasureKernels(size_t rows, Column build_keys, Column probe_keys,
                           Column group_keys) {
  KernelRates rates;
  ValueType key_type = build_keys.type();
  Schema build_schema({{"bk", key_type}, {"bv", ValueType::kFloat64}});
  DataFrame vals = MakeFact(rows, 1, 3);  // "v" payload column
  DataFrame build(build_schema);
  *build.mutable_column(0) = std::move(build_keys);
  *build.mutable_column(1) = vals.column(1);

  rates.join_build = BestMrowsPerSec(rows, [&] {
    JoinHashTable table(build_schema, {"bk"});
    table.Insert(build);
  });

  Schema probe_schema({{"g", key_type}, {"v", ValueType::kFloat64}});
  DataFrame probe(probe_schema);
  *probe.mutable_column(0) = std::move(probe_keys);
  *probe.mutable_column(1) = vals.column(1);
  JoinHashTable table(build_schema, {"bk"});
  // Quarter-size build keeps the probe output (~4 matches/key) bounded.
  table.Insert(build.Slice(0, rows / 4));
  Schema out_schema = JoinOutputSchema(probe_schema, build_schema, {"bk"},
                                       JoinType::kInner);
  rates.join_probe = BestMrowsPerSec(rows, [&] {
    DataFrame out = table.Probe(probe, {"g"}, JoinType::kInner, out_schema);
    if (out.num_rows() == 0) std::abort();
  });

  DataFrame agg_in(probe_schema);
  *agg_in.mutable_column(0) = std::move(group_keys);
  *agg_in.mutable_column(1) = vals.column(1);
  std::vector<AggSpec> aggs = {Sum("v", "s"), Count("n"), Avg("v", "a")};
  Schema agg_out = AggOutputSchema(probe_schema, {"g"}, aggs);
  rates.group_by = BestMrowsPerSec(rows, [&] {
    GroupedAggState agg({"g"}, aggs, probe_schema, agg_out);
    agg.Consume(agg_in);
    if (agg.num_groups() == 0) std::abort();
  });
  std::vector<AggSpec> distinct = {CountDistinct("v", "d")};
  Schema distinct_out = AggOutputSchema(probe_schema, {"g"}, distinct);
  rates.count_distinct = BestMrowsPerSec(rows, [&] {
    GroupedAggState agg({"g"}, distinct, probe_schema, distinct_out);
    agg.Consume(agg_in);
    if (agg.num_groups() == 0) std::abort();
  });
  return rates;
}

// Morsel-parallel join_probe rate at a given worker count, over a shared
// read-mostly table. The output is byte-identical across worker counts
// (verified by core_parallel_exec_test); only wall time changes.
double MeasureProbeWorkers(size_t rows, size_t workers,
                           const DataFrame& build, const DataFrame& probe) {
  WorkerPool pool(workers);
  WorkerPool* p = workers > 1 ? &pool : nullptr;

  Schema build_schema = build.schema();
  JoinHashTable table(build_schema, {"bk"});
  table.Insert(build.Slice(0, rows / 4));
  Schema out_schema = JoinOutputSchema(probe.schema(), build_schema, {"bk"},
                                       JoinType::kInner);
  return BestMrowsPerSec(rows, [&] {
    DataFrame out = table.Probe(probe, {"g"}, JoinType::kInner, out_schema,
                                nullptr, nullptr, p);
    if (out.num_rows() == 0) std::abort();
  });
}

// Storage read paths over TPC-H lineitem (16 columns):
//   scan_columnar   full scan of the wakeblock native columnar format:
//                   every block of every column decoded through the same
//                   lazy-table chunk path the engines use, each block CRC
//                   checked. The table is opened once outside the loop,
//                   and the untimed warm-up run interns the string
//                   dictionaries on their first read — engines hold
//                   tables open in the catalog, so per-query scan cost
//                   excludes the one-time meta load and interning
//   scan_columnar_skip  projected wakeblock scan with a clustered
//                   l_orderkey range predicate: block min/max synopses
//                   refute ~97% of the blocks, which are never read —
//                   the rate counts the rows the scan covered, so the
//                   speedup over scan_columnar is the skipping win
struct ScanRates {
  double scan_columnar = 0.0;
  double scan_columnar_skip = 0.0;
};

ScanRates MeasureScan() {
  tpch::DbgenConfig cfg;
  cfg.scale_factor = 0.02;
  cfg.partitions = 4;
  PartitionedTable lineitem = tpch::GenerateTable(cfg, "lineitem");
  auto dir = std::filesystem::temp_directory_path() /
             ("wake_micro_scan_" + std::to_string(::getpid()));
  const std::vector<std::string> pruned = {"l_orderkey", "l_extendedprice",
                                           "l_discount", "l_shipdate"};
  size_t rows = lineitem.total_rows();
  ScanRates rates;
  wakeblock::Write(lineitem, dir.string());
  PartitionedTable lazy =
      PartitionedTable::OpenWakeblock(dir.string(), "lineitem");
  rates.scan_columnar = BestMrowsPerSec(rows, [&] {
    if (lazy.Materialize({}, nullptr).num_rows() != rows) std::abort();
  });

  // lineitem is clustered by l_orderkey, so a narrow key range maps to a
  // narrow block range and every other block's min/max refutes it.
  int64_t max_key = 0;
  {
    DataFrame keys = lineitem.Materialize({"l_orderkey"});
    const Column& col = keys.column(0);
    for (size_t r = 0; r < col.size(); ++r) {
      max_key = std::max(max_key, col.IntAt(r));
    }
  }
  ExprPtr filter = Lt(Expr::Col("l_orderkey"), Expr::Int(max_key / 32 + 1));
  rates.scan_columnar_skip = BestMrowsPerSec(rows, [&] {
    if (lazy.Materialize(pruned, filter).num_rows() >= rows) std::abort();
  });
  // The rate above is only meaningful if blocks really were skipped.
  wakeblock::ScanStats stats = lazy.block_source()->stats();
  if (stats.blocks_skipped == 0) std::abort();

  std::filesystem::remove_all(dir);
  return rates;
}

// CRC-32 of a 32 KB buffer (a large block body), in GB/s:
//   crc32        wire::Crc32 as this CPU runs it: carry-less-multiply
//                folding where the CPU has it
//   crc32_table  the slice-by-8 table path it falls back to
struct CrcRates {
  double crc32 = 0.0;
  double crc32_table = 0.0;
};

CrcRates MeasureCrc() {
  std::vector<uint8_t> buf(32 * 1024);
  Rng rng(static_cast<uint64_t>(::getpid()));  // run-time bytes
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  constexpr size_t kReps = 2048;  // 64 MB per timed run
  auto gb_per_s = [&](uint32_t (*crc)(const void*, size_t)) {
    // Bytes counted as rows: Mbytes/s, then GB/s.
    return BestMrowsPerSec(buf.size() * kReps, [&] {
      for (size_t i = 0; i < kReps; ++i) {
        benchmark::DoNotOptimize(crc(buf.data(), buf.size()));
      }
    }) / 1e3;
  };
  CrcRates rates;
  rates.crc32 = gb_per_s(wire::Crc32);
  rates.crc32_table = gb_per_s(wire::internal::Crc32Table);
  return rates;
}

// Nullable fact variant: ~1/16 of the rows in each column are null, so
// the null-aware kernels run their mixed-word paths, not just the
// all-valid fast path.
DataFrame MakeFactNullable(size_t rows, int64_t groups, uint64_t seed = 11) {
  DataFrame df = MakeFact(rows, groups, seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (size_t i = 0; i < rows; ++i) {
    if (rng.UniformInt(0, 15) == 0) df.mutable_column(0)->SetNull(i);
    if (rng.UniformInt(0, 15) == 0) df.mutable_column(1)->SetNull(i);
  }
  return df;
}

// Filter + hash kernel rates over nullable input:
//   expr_filter_scalar  the pre-bitmap baseline — per-row IsValid byte
//                       mask, then the byte-mask FilterBy
//   expr_filter         the selection kernel — truth words off the
//                       validity bitmap, popcount-sized gather
//   null_hash_scalar    per-row HashRow over the key columns
//   null_hash           column-at-a-time HashInto (word-wise null path)
struct ExprFilterRates {
  double expr_filter_scalar = 0.0;
  double expr_filter = 0.0;
  double null_hash_scalar = 0.0;
  double null_hash = 0.0;
};

ExprFilterRates MeasureExprFilter(size_t rows) {
  DataFrame df = MakeFactNullable(rows, 100, 11);
  ExprPtr expr =
      Expr::And(Gt(Expr::Col("v"), Expr::Float(25.0)),
                Lt(Expr::Col("v") * Expr::Float(1.1), Expr::Float(95.0)));
  ExprFilterRates rates;
  rates.expr_filter_scalar = BestMrowsPerSec(rows, [&] {
    Column mask_col = expr->Eval(df);
    std::vector<uint8_t> mask(mask_col.size());
    for (size_t i = 0; i < mask.size(); ++i) {
      mask[i] = (mask_col.IsValid(i) && mask_col.ints()[i] != 0) ? 1 : 0;
    }
    if (df.FilterBy(mask).num_rows() == 0) std::abort();
  });
  rates.expr_filter = BestMrowsPerSec(rows, [&] {
    if (df.FilterBy(expr->Eval(df)).num_rows() == 0) std::abort();
  });

  const std::vector<size_t> key_cols = {0, 1};
  std::vector<uint64_t> hashes;
  uint64_t sink = 0;
  rates.null_hash_scalar = BestMrowsPerSec(rows, [&] {
    for (size_t r = 0; r < rows; ++r) sink ^= df.HashRowKeys(key_cols, r);
  });
  rates.null_hash = BestMrowsPerSec(rows, [&] {
    df.HashRowsBatch(key_cols, &hashes);
    sink ^= hashes[rows - 1];
  });
  if (sink == 0xdeadbeef) std::abort();  // keep the hashing live
  return rates;
}

// Live-ingest write path, batched appends of the MakeFact feed:
//   ingest_append    LiveTable::Append + seal/flush alone (durable
//                    wakeblock tablets land on disk as rows stream in)
//   ingest_standing  same stream with a standing grouped aggregate
//                    refreshed after every batch — the delta over
//                    ingest_append is the incremental fold cost per
//                    emitted snapshot epoch
struct IngestRates {
  double ingest_append = 0.0;
  double ingest_standing = 0.0;
};

IngestRates MeasureIngest(size_t rows) {
  constexpr size_t kBatch = 4096;
  DataFrame feed = MakeFact(rows, 1 << 10, 9);
  auto dir = std::filesystem::temp_directory_path() /
             ("wake_micro_ingest_" + std::to_string(::getpid()));
  LiveTableOptions opts;
  opts.seal_rows = 64 * 1024;
  opts.spill_dir = dir.string();

  IngestRates rates;
  rates.ingest_append = BestMrowsPerSec(rows, [&] {
    std::filesystem::remove_all(dir);
    LiveTable live("feed", feed.schema(), opts);
    for (size_t at = 0; at < rows; at += kBatch) {
      live.Append(feed.Slice(at, std::min(at + kBatch, rows)));
    }
    if (live.stats().rows_appended != rows) std::abort();
  });

  Plan plan =
      Plan::Scan("feed").Aggregate({"g"}, {Sum("v", "s"), Count("n")});
  rates.ingest_standing = BestMrowsPerSec(rows, [&] {
    std::filesystem::remove_all(dir);
    auto live = std::make_shared<LiveTable>("feed", feed.schema(), opts);
    Catalog catalog;
    catalog.AddDynamic(live);
    Db db(&catalog);
    auto sub = db.Subscribe(plan);
    for (size_t at = 0; at < rows; at += kBatch) {
      live->Append(feed.Slice(at, std::min(at + kBatch, rows)));
      sub->Refresh();
    }
    if (sub->Current().rows_covered != rows) std::abort();
  });
  std::filesystem::remove_all(dir);
  return rates;
}

// Per-state kernels of the refresh-mode operators, which recompute their
// whole output for every state:
//   sort_snapshot  SortLimitNode's sort and gather of a Q16-shaped
//                  aggregate: 5k rows ordered by an int descending, two
//                  dict strings (25 and 150 entries, dictionary order
//                  not byte order) and an int
//   agg_snapshot   a scaled GroupedAggState::Finalize over 16k groups:
//                  SUM, COUNT and a COUNT(DISTINCT) whose (distinct,
//                  rows) pairs repeat across groups, as in Q16
struct SnapshotRates {
  double sort_snapshot = 0.0;
  double agg_snapshot = 0.0;
};

// `values` in a random order, so a dict built from them is not in byte
// order.
Column ShuffledPool(std::vector<std::string> values, Rng* rng) {
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[static_cast<size_t>(rng->UniformInt(
                                 0, static_cast<int64_t>(i) - 1))]);
  }
  return Column::FromStrings(values);
}

SnapshotRates MeasureSnapshots() {
  SnapshotRates rates;
  Rng rng(13);
  std::vector<std::string> brands, types;
  for (int m = 1; m <= 5; ++m) {
    for (int n = 1; n <= 5; ++n) {
      brands.push_back(StrFormat("Brand#%d%d", m, n));
    }
  }
  for (const char* size :
       {"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}) {
    for (const char* finish :
         {"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}) {
      for (const char* metal : {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}) {
        types.push_back(StrFormat("%s %s %s", size, finish, metal));
      }
    }
  }
  const Column brand_pool = ShuffledPool(brands, &rng);
  const Column type_pool = ShuffledPool(types, &rng);
  constexpr size_t kSortRows = 5000;
  constexpr int kSortReps = 40;
  DataFrame sort_in(Schema({{"p_brand", ValueType::kString},
                            {"p_type", ValueType::kString},
                            {"p_size", ValueType::kInt64},
                            {"supplier_cnt", ValueType::kInt64}}));
  std::vector<uint32_t> brand_rows, type_rows;
  for (size_t r = 0; r < kSortRows; ++r) {
    brand_rows.push_back(static_cast<uint32_t>(rng.UniformInt(0, 24)));
    type_rows.push_back(static_cast<uint32_t>(rng.UniformInt(0, 149)));
    sort_in.mutable_column(2)->AppendInt(rng.UniformInt(1, 50));
    sort_in.mutable_column(3)->AppendInt(rng.UniformInt(1, 40));
  }
  *sort_in.mutable_column(0) = brand_pool.Take(brand_rows);
  *sort_in.mutable_column(1) = type_pool.Take(type_rows);
  const std::vector<SortKey> keys = {{"supplier_cnt", true},
                                     {"p_brand", false},
                                     {"p_type", false},
                                     {"p_size", false}};
  rates.sort_snapshot = BestMrowsPerSec(kSortRows * kSortReps, [&] {
    for (int rep = 0; rep < kSortReps; ++rep) {
      DataFrame sorted = sort_in.Take(sort_in.SortedIndices(keys));
      if (sorted.num_rows() != kSortRows) std::abort();
    }
  });

  constexpr int64_t kGroups = 1 << 14;
  constexpr int kAggReps = 4;
  Schema agg_schema({{"g", ValueType::kInt64},
                     {"v", ValueType::kFloat64},
                     {"d", ValueType::kInt64}});
  DataFrame agg_in(agg_schema);
  for (int64_t r = 0; r < 4 * kGroups; ++r) {
    agg_in.mutable_column(0)->AppendInt(rng.UniformInt(0, kGroups - 1));
    agg_in.mutable_column(1)->AppendDouble(rng.UniformDouble(0, 100));
    agg_in.mutable_column(2)->AppendInt(rng.UniformInt(0, 7));
  }
  std::vector<AggSpec> aggs = {Sum("v", "s"), Count("n"),
                               CountDistinct("d", "cd")};
  GroupedAggState state({"g"}, aggs, agg_schema,
                        AggOutputSchema(agg_schema, {"g"}, aggs));
  state.Consume(agg_in);
  AggScaling scaling;
  scaling.enabled = true;
  scaling.t = 0.25;
  scaling.w = 0.9;
  const size_t groups = state.num_groups();
  rates.agg_snapshot = BestMrowsPerSec(groups * kAggReps, [&] {
    for (int rep = 0; rep < kAggReps; ++rep) {
      if (state.Finalize(scaling).frame.num_rows() != groups) std::abort();
    }
  });
  return rates;
}

int RunMicroJson() {
  constexpr size_t kRows = 1 << 18;     // 256k rows per kernel invocation
  constexpr int64_t kJoinKeys = 1 << 16;
  constexpr int64_t kGroups = 1 << 14;

  DataFrame fact = MakeFact(kRows, kJoinKeys, 3);
  DataFrame probe = MakeFact(kRows, kJoinKeys, 5);
  DataFrame agg_in = MakeFact(kRows, kGroups, 7);
  KernelRates ints = MeasureKernels(kRows, fact.column(0), probe.column(0),
                                    agg_in.column(0));

  // String keys: same draw distributions; build and probe gather from one
  // pool (shared dict, as partials of one source table).
  Column join_pool = MakeStringPool(kJoinKeys);
  Column group_pool = MakeStringPool(kGroups);
  Column build_sk = MakeStringKeys(join_pool, kRows, 3);
  Column probe_sk = MakeStringKeys(join_pool, kRows, 5);
  Column group_sk = MakeStringKeys(group_pool, kRows, 7);
  KernelRates dict = MeasureKernels(kRows, build_sk, probe_sk, group_sk);

  // Morsel-parallel probe (int keys) at 1/2/4 workers. On hosts with
  // fewer physical cores than workers the threads timeslice, so scaling
  // is only visible when host_cores >= workers.
  Schema build_schema({{"bk", ValueType::kInt64},
                       {"bv", ValueType::kFloat64}});
  DataFrame wbuild(build_schema);
  *wbuild.mutable_column(0) = fact.column(0);
  *wbuild.mutable_column(1) = fact.column(1);
  Schema probe_schema({{"g", ValueType::kInt64}, {"v", ValueType::kFloat64}});
  DataFrame wprobe(probe_schema);
  *wprobe.mutable_column(0) = probe.column(0);
  *wprobe.mutable_column(1) = probe.column(1);
  double probe_w1 = MeasureProbeWorkers(kRows, 1, wbuild, wprobe);
  double probe_w2 = MeasureProbeWorkers(kRows, 2, wbuild, wprobe);
  double probe_w4 = MeasureProbeWorkers(kRows, 4, wbuild, wprobe);

  ExprFilterRates ef = MeasureExprFilter(kRows);

  ScanRates scan = MeasureScan();

  CrcRates crc = MeasureCrc();

  IngestRates ingest = MeasureIngest(kRows);

  SnapshotRates snapshot = MeasureSnapshots();

  std::printf(
      "{\"bench\":\"micro_ops\",\"rows\":%zu,\"host_cores\":%u,"
      "\"join_build_mrows_per_s\":%.2f,\"join_probe_mrows_per_s\":%.2f,"
      "\"group_by_mrows_per_s\":%.2f,\"count_distinct_mrows_per_s\":%.2f,"
      "\"join_build_str_dict_mrows_per_s\":%.2f,"
      "\"join_probe_str_dict_mrows_per_s\":%.2f,"
      "\"group_by_str_dict_mrows_per_s\":%.2f,"
      "\"count_distinct_str_dict_mrows_per_s\":%.2f,"
      "\"join_probe_w1_mrows_per_s\":%.2f,"
      "\"join_probe_w2_mrows_per_s\":%.2f,"
      "\"join_probe_w4_mrows_per_s\":%.2f,"
      "\"expr_filter_scalar_mrows_per_s\":%.2f,"
      "\"expr_filter_mrows_per_s\":%.2f,"
      "\"null_hash_scalar_mrows_per_s\":%.2f,"
      "\"null_hash_mrows_per_s\":%.2f,"
      "\"scan_columnar_mrows_per_s\":%.2f,"
      "\"scan_columnar_skip_mrows_per_s\":%.2f,"
      "\"crc32_gb_per_s\":%.2f,"
      "\"crc32_table_gb_per_s\":%.2f,"
      "\"ingest_append_mrows_per_s\":%.2f,"
      "\"ingest_standing_mrows_per_s\":%.2f,"
      "\"sort_snapshot_mrows_per_s\":%.2f,"
      "\"agg_snapshot_mrows_per_s\":%.2f}\n",
      kRows, std::thread::hardware_concurrency(), ints.join_build,
      ints.join_probe, ints.group_by, ints.count_distinct, dict.join_build,
      dict.join_probe, dict.group_by, dict.count_distinct, probe_w1,
      probe_w2, probe_w4, ef.expr_filter_scalar, ef.expr_filter,
      ef.null_hash_scalar, ef.null_hash, scan.scan_columnar,
      scan.scan_columnar_skip, crc.crc32, crc.crc32_table,
      ingest.ingest_append, ingest.ingest_standing,
      snapshot.sort_snapshot, snapshot.agg_snapshot);
  return 0;
}

}  // namespace wake

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") return wake::RunMicroJson();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
