// End-to-end equivalence: every TPC-H query must produce byte-identical
// results whether the catalog is dbgen's in-memory output or its packed
// wakeblock copy, on every engine and worker count. This is the storage
// engine's correctness gate: the binary format, projection pushdown, and
// block skipping must be invisible to query results.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "baseline/exact_engine.h"
#include "baseline/progressive_ola.h"
#include "core/engine.h"
#include "plan/optimizer.h"
#include "storage/partitioned_table.h"
#include "storage/wakeblock.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wake {
namespace {

// A directory removed, with its contents, when the object is destroyed.
struct TempDir {
  explicit TempDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::filesystem::path path;
};

// dbgen's catalog and its packed wakeblock copy. The packed directory is
// declared first, so it is removed after the catalog that reads it.
struct Catalogs {
  Catalogs();

  TempDir dir;
  Catalog mem;  // dbgen's in-memory partitions
  Catalog wb;   // their lazy wakeblock-backed copy
};

Catalogs::Catalogs()
    : dir(std::filesystem::temp_directory_path() /
          ("wake_wbtpch_" + std::to_string(::getpid()))) {
  tpch::DbgenConfig cfg;
  cfg.scale_factor = 0.01;
  cfg.partitions = 4;
  mem = tpch::Generate(cfg);
  wakeblock::WriteOptions opts;
  opts.block_rows = 1024;  // several blocks per partition, so skipping
                           // and projection both exercise real extents
  for (const std::string& name : mem.TableNames()) {
    wakeblock::Write(mem.Get(name), dir.path.string(), opts);
  }
  wb = wakeblock::OpenCatalog(dir.path.string());
}

// Generated, packed, and reopened once per binary (the suite runs 22
// queries x several engine configurations against the same two
// catalogs), and removed when the binary exits.
const Catalogs& Shared() {
  static const Catalogs fixture;
  return fixture;
}

class WakeblockTpch : public ::testing::TestWithParam<int> {};

TEST_P(WakeblockTpch, ExactEngineMatchesInMemoryExactly) {
  const Catalogs& cat = Shared();
  Plan plan = tpch::Query(GetParam());
  DataFrame expected = ExactEngine(&cat.mem).Execute(plan.node());
  std::string diff;
  EXPECT_TRUE(ExactEngine(&cat.wb).Execute(plan.node()).ApproxEquals(
      expected, 0.0, &diff))
      << diff;
}

TEST_P(WakeblockTpch, WakeEngineMatchesInMemoryExactlyAtOneAndFourWorkers) {
  const Catalogs& cat = Shared();
  Plan plan = tpch::Query(GetParam());
  for (size_t workers : {size_t{1}, size_t{4}}) {
    WorkerPool pool(workers);
    WakeOptions options;
    options.pool = &pool;
    WakeEngine mem_engine(&cat.mem, options);
    WakeEngine wb_engine(&cat.wb, options);
    std::string diff;
    EXPECT_TRUE(wb_engine.ExecuteFinal(plan.node())
                    .ApproxEquals(mem_engine.ExecuteFinal(plan.node()), 0.0,
                                  &diff))
        << "workers=" << workers << ": " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, WakeblockTpch, ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// ProgressiveOla only serves single-table pipelines (Q1, Q6); its chunk
// loop is the third consumer of the lazy block-sourced chunk API.
TEST(WakeblockTpchExtra, ProgressiveOlaMatchesInMemoryExactly) {
  const Catalogs& cat = Shared();
  for (int q : {1, 6}) {
    Plan plan = tpch::Query(q);
    DataFrame mem_final, wb_final;
    ProgressiveOla(&cat.mem).Execute(plan.node(), [&](const OlaState& s) {
      if (s.is_final) mem_final = *s.frame;
    });
    ProgressiveOla(&cat.wb).Execute(plan.node(), [&](const OlaState& s) {
      if (s.is_final) wb_final = *s.frame;
    });
    std::string diff;
    EXPECT_TRUE(wb_final.ApproxEquals(mem_final, 0.0, &diff))
        << "Q" << q << ": " << diff;
  }
}

// A clustered-key range predicate must actually skip blocks on the lazy
// catalog (the scan-filter pushdown reaches the synopses through the
// whole engine stack), while losing no matching rows.
TEST(WakeblockTpchExtra, ClusteredPredicateSkipsBlocksThroughTheEngine) {
  const Catalogs& cat = Shared();
  ExprPtr pred = Lt(Expr::Col("l_orderkey"), Expr::Int(64));
  // Optimize() copies the filter into the scan's advisory scan_filter
  // (push-scan-filters pass); the engines only consult what's on the node.
  Plan plan = Optimize(Plan::Scan("lineitem", {"l_orderkey", "l_quantity"})
                           .Filter(pred)
                           .Aggregate({}, {Count("n"), Sum("l_quantity", "qty")}),
                       cat.wb);

  DataFrame expected = ExactEngine(&cat.mem).Execute(plan.node());
  const auto& source = cat.wb.Get("lineitem").block_source();
  wakeblock::ScanStats before = source->stats();
  DataFrame got = ExactEngine(&cat.wb).Execute(plan.node());
  wakeblock::ScanStats after = source->stats();

  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(expected, 0.0, &diff)) << diff;
  EXPECT_GT(after.blocks_skipped, before.blocks_skipped)
      << "no blocks were skipped for a clustered range predicate";
  EXPECT_GT(after.rows_skipped, before.rows_skipped);

  WakeEngine engine(&cat.wb);
  before = source->stats();
  DataFrame wake_got = engine.ExecuteFinal(plan.node());
  after = source->stats();
  EXPECT_TRUE(wake_got.ApproxEquals(expected, 0.0, &diff)) << diff;
  EXPECT_GT(after.blocks_skipped, before.blocks_skipped)
      << "the streaming engine read every block despite the pushed filter";
}

}  // namespace
}  // namespace wake
