// Chaos coverage for the ingest flush path (the `ingest.flush`
// failpoint, fired once per hot-tablet seal).
//
// Invariants under injected flush failures:
//   - appended rows NEVER become unreadable: a tablet whose flush failed
//     stays resident in memory and keeps serving queries;
//   - the failure is counted (stats().flush_failures) and nothing is
//     published to the spill directory for that tablet — no torn dirs;
//   - once the fault clears, later seals flush normally, and recovery
//     over the spill dir sees exactly the tablets whose flush succeeded.
//
// Built in every configuration; without -DWAKE_FAILPOINTS=ON the site is
// compiled out and every test skips. The CI `build-failpoints` job runs
// this binary alongside the engine and network chaos suites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "api/db.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "ingest/live_table.h"
#include "plan/plan.h"
#include "server/protocol.h"

namespace wake {
namespace {

namespace fs = std::filesystem;

bool FailpointsCompiledIn() {
#ifdef WAKE_FAILPOINTS
  return true;
#else
  return false;
#endif
}

Schema EventSchema() {
  return Schema({{"k", ValueType::kString},
                 {"v", ValueType::kFloat64},
                 {"id", ValueType::kInt64}});
}

DataFrame MakeRows(int64_t start, int64_t n) {
  DataFrame df(EventSchema());
  for (int64_t i = start; i < start + n; ++i) {
    df.mutable_column(0)->AppendString("g" + std::to_string(i % 3));
    df.mutable_column(1)->AppendDouble(static_cast<double>(i));
    df.mutable_column(2)->AppendInt(i);
  }
  return df;
}

std::string WireBytes(const DataFrame& df) {
  wire::WireWriter w;
  protocol::EncodeDataFrame(df, &w);
  return w.Take();
}

class IngestChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FailpointsCompiledIn()) {
      GTEST_SKIP() << "built without WAKE_FAILPOINTS; no sites to fire";
    }
    failpoint::Reset();
    spill_ = fs::temp_directory_path() /
             ("wake_ingest_chaos_" + std::to_string(::getpid()));
    fs::remove_all(spill_);
  }
  void TearDown() override {
    failpoint::Reset();
    if (!spill_.empty()) fs::remove_all(spill_);
  }

  LiveTableOptions Opts() const {
    LiveTableOptions opts;
    opts.seal_rows = 32;
    opts.spill_dir = spill_.string();
    return opts;
  }

  fs::path spill_;
};

TEST_F(IngestChaosTest, FailedFlushKeepsRowsServableAndIsCounted) {
  LiveTable live("events", EventSchema(), Opts());
  failpoint::Configure("ingest.flush", "error(1.0)*2");

  live.Append(MakeRows(0, 32));   // seal 1: flush fails
  live.Append(MakeRows(32, 32));  // seal 2: flush fails
  live.Append(MakeRows(64, 32));  // seal 3: fault cap exhausted, flushes

  EXPECT_EQ(failpoint::Hits("ingest.flush"), 2u);
  LiveTableStats st = live.stats();
  EXPECT_EQ(st.flush_failures, 2u);
  EXPECT_EQ(st.tablets_flushed, 1u);
  EXPECT_EQ(st.cold_tablets, 3u);
  EXPECT_EQ(st.hot_rows, 0u);

  // No data loss, no reordering: all 96 rows serve, in append order.
  EXPECT_EQ(WireBytes(live.Snapshot()->Materialize()),
            WireBytes(MakeRows(0, 96)));

  // Nothing torn on disk: only the successfully flushed tablet
  // published, and no staging debris survived the failure cleanup.
  EXPECT_FALSE(fs::exists(spill_ / "t00000000"));
  EXPECT_FALSE(fs::exists(spill_ / "t00000001"));
  EXPECT_TRUE(fs::exists(spill_ / "t00000002"));
  for (const auto& entry : fs::directory_iterator(spill_)) {
    EXPECT_NE(entry.path().filename().string().rfind(".staging", 0), 0u)
        << "staging debris left behind: " << entry.path();
  }
}

TEST_F(IngestChaosTest, StandingQueryUnaffectedByFlushFailures) {
  auto live = std::make_shared<LiveTable>("events", EventSchema(), Opts());
  Catalog catalog;
  catalog.AddDynamic(live);
  Db db(&catalog);
  Plan plan = Plan::Scan("events")
                  .Aggregate({"k"}, {Sum("v", "s"), Count("c")})
                  .Sort({{"k", false}});
  auto sub = db.Subscribe(plan);

  failpoint::Configure("ingest.flush", "error(1.0)");
  for (int64_t at = 0; at < 128; at += 32) {
    live->Append(MakeRows(at, 32));
    sub->Refresh();
  }
  EXPECT_EQ(live->stats().flush_failures, 4u);
  failpoint::Configure("ingest.flush", "off");
  live->Append(MakeRows(128, 32));  // flushes normally again
  sub->Refresh();
  EXPECT_EQ(live->stats().tablets_flushed, 1u);

  // The standing answer equals a from-scratch query — memory-resident
  // tablets are first-class members of the snapshot's tablet set.
  RunOptions run;
  run.engine = QueryEngine::kExact;
  EXPECT_EQ(WireBytes(*sub->Current().frame),
            WireBytes(db.Prepare(plan).Execute(run)));
}

TEST_F(IngestChaosTest, RecoverySeesExactlyTheFlushedTablets) {
  {
    LiveTable live("events", EventSchema(), Opts());
    live.Append(MakeRows(0, 32));  // tablet 0 flushes cleanly
    failpoint::Configure("ingest.flush", "error(1.0)");
    live.Append(MakeRows(32, 32));  // tablet 1 stays memory-only
    failpoint::Configure("ingest.flush", "off");
    live.Append(MakeRows(64, 32));  // tablet 2 flushes cleanly
    ASSERT_EQ(live.stats().tablets_flushed, 2u);
    ASSERT_EQ(live.Snapshot()->total_rows(), 96u);
  }
  // After a "crash", only the durable (flushed) tablets come back; the
  // memory-only tablet's rows are the documented loss window.
  LiveTable recovered("events", EventSchema(), Opts());
  LiveTableStats st = recovered.stats();
  EXPECT_EQ(st.tablets_recovered, 2u);
  EXPECT_EQ(st.tablets_quarantined, 0u);
  DataFrame expect(EventSchema());
  expect.Append(MakeRows(0, 32));
  expect.Append(MakeRows(64, 32));
  EXPECT_EQ(WireBytes(recovered.Snapshot()->Materialize()),
            WireBytes(expect));
}

}  // namespace
}  // namespace wake
