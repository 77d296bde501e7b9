// LiveTable + standing-query tests: the epoch/consistency contract
// (any emitted snapshot is byte-identical to a from-scratch exact/OLA
// query over the same tablet set, at any worker count, in hot-only /
// mixed / cold-only tablet states), crash-safe flush recovery
// (truncate-at-every-byte tablets are quarantined, never served),
// retention leases, and subscription lifecycle.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "common/error.h"
#include "ingest/live_table.h"
#include "plan/plan.h"
#include "server/protocol.h"

namespace wake {
namespace {

namespace fs = std::filesystem;

Schema EventSchema() {
  return Schema({{"k", ValueType::kString},
                 {"v", ValueType::kFloat64},
                 {"id", ValueType::kInt64}});
}

/// Rows [start, start + n) of a deterministic event stream.
DataFrame MakeRows(int64_t start, int64_t n) {
  DataFrame df(EventSchema());
  for (int64_t i = start; i < start + n; ++i) {
    df.mutable_column(0)->AppendString("g" + std::to_string(i % 7));
    df.mutable_column(1)->AppendDouble(static_cast<double>(i) * 0.25);
    df.mutable_column(2)->AppendInt(i);
  }
  return df;
}

/// The standing query the tests maintain: filter + derived column +
/// grouped aggregate + sort (the supported plan shape, end to end).
Plan StandingPlan() {
  return Plan::Scan("events")
      .Filter(Gt(Expr::Col("v"), Expr::Float(3.0)))
      .Derive({{"v2", Expr::Col("v") * Expr::Float(2.0)}})
      .Aggregate({"k"}, {Sum("v2", "s"), Avg("v", "a"), Count("c")})
      .Sort({{"k", false}});
}

/// Bit-exact frame comparison through the wire codec (doubles travel as
/// raw IEEE bit patterns).
std::string WireBytes(const DataFrame& df) {
  wire::WireWriter w;
  protocol::EncodeDataFrame(df, &w);
  return w.Take();
}

fs::path FreshDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 (tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

class LiveTableTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!spill_.empty()) fs::remove_all(spill_);
  }
  fs::path spill_;
};

TEST_F(LiveTableTest, AppendSealSnapshotLifecycle) {
  spill_ = FreshDir("wake_live_basic");
  LiveTableOptions opts;
  opts.seal_rows = 64;
  opts.spill_dir = spill_.string();
  LiveTable live("events", EventSchema(), opts);

  EXPECT_EQ(live.Snapshot()->total_rows(), 0u);
  live.Append(MakeRows(0, 40));
  LiveTableStats st = live.stats();
  EXPECT_EQ(st.hot_rows, 40u);
  EXPECT_EQ(st.cold_tablets, 0u);

  live.Append(MakeRows(40, 40));  // crosses 64: seals + flushes
  st = live.stats();
  EXPECT_EQ(st.hot_rows, 0u);
  EXPECT_EQ(st.cold_tablets, 1u);
  EXPECT_EQ(st.tablets_flushed, 1u);
  EXPECT_EQ(st.flush_failures, 0u);

  live.Append(MakeRows(80, 10));
  LiveSnapshot snap = live.SnapshotInfo();
  EXPECT_EQ(snap.end_row, 90u);
  EXPECT_EQ(snap.table->total_rows(), 90u);
  ASSERT_EQ(snap.tablets.size(), 2u);
  EXPECT_FALSE(snap.tablets[0].hot);
  EXPECT_TRUE(snap.tablets[1].hot);
  // The cold tablet reopened lazily (wakeblock-backed, synopses live).
  EXPECT_TRUE(snap.tablets[0].table->lazy());

  // Snapshot content equals the appended rows, in append order.
  DataFrame all = snap.table->Materialize();
  EXPECT_EQ(WireBytes(all), WireBytes(MakeRows(0, 90)));

  // A snapshot is immutable: appends after it are invisible to it.
  live.Append(MakeRows(90, 10));
  EXPECT_EQ(snap.table->total_rows(), 90u);
  EXPECT_EQ(live.Snapshot()->total_rows(), 100u);

  // Appends must match the registered schema.
  DataFrame bad(Schema({{"x", ValueType::kInt64}}));
  bad.mutable_column(0)->AppendInt(1);
  EXPECT_THROW(live.Append(bad), Error);
}

TEST_F(LiveTableTest, SlicedAppendsCountOnlyTheirOwnStrings) {
  // Slices of one big frame share its whole dictionary, which holds far
  // more strings than a slice's rows use. An append keeps only its own
  // rows' strings, so neither the hot chunks nor a tablet sealed from
  // them carry the rest, and 32 appends stay one hot tablet.
  Schema schema({{"note", ValueType::kString}, {"id", ValueType::kInt64}});
  DataFrame big(schema);
  const std::string pad(200, 'x');
  for (int64_t i = 0; i < 100000; ++i) {
    big.mutable_column(0)->AppendString(pad + std::to_string(i));
    big.mutable_column(1)->AppendInt(i);
  }
  const LiveTableOptions defaults;
  ASSERT_EQ(big.Slice(0, 1024).column(0).dict()->size(), 100000u);

  LiveTable live("notes", schema, defaults);
  for (size_t i = 0; i < 32; ++i) {
    live.Append(big.Slice(i * 1024, (i + 1) * 1024));
  }
  LiveTableStats st = live.stats();
  EXPECT_EQ(st.cold_tablets, 0u);
  EXPECT_EQ(st.hot_rows, 32u * 1024);
  // The re-encoded rows read back unchanged, in append order, over a
  // dictionary of the appended strings alone.
  DataFrame back = live.Snapshot()->Materialize();
  EXPECT_EQ(back.column(0).dict()->size(), 32u * 1024);
  EXPECT_EQ(WireBytes(back), WireBytes(big.Slice(0, 32 * 1024)));
}

// The tentpole acceptance matrix: at hot-only, mixed, and cold-only
// tablet states, the standing query's snapshot must be byte-identical
// to a from-scratch exact AND OLA query over the same tablet set, with
// 1 and 4 workers.
TEST_F(LiveTableTest, EpochSnapshotIdentityMatrix) {
  spill_ = FreshDir("wake_live_matrix");
  LiveTableOptions opts;
  opts.seal_rows = 256;
  opts.spill_dir = spill_.string();
  auto live = std::make_shared<LiveTable>("events", EventSchema(), opts);
  Catalog catalog;
  catalog.AddDynamic(live);

  DbOptions one;
  one.workers = 1;
  DbOptions four;
  four.workers = 4;
  Db db1(&catalog, one);
  Db db4(&catalog, four);
  auto sub = db1.Subscribe(StandingPlan());

  auto expect_identity = [&](const char* stage) {
    sub->Refresh();
    SubscriptionState cur = sub->Current();
    ASSERT_NE(cur.frame, nullptr) << stage;
    for (Db* db : {&db1, &db4}) {
      for (QueryEngine engine : {QueryEngine::kExact, QueryEngine::kOla}) {
        RunOptions run;
        run.engine = engine;
        DataFrame fresh = db->Prepare(StandingPlan()).Execute(run);
        EXPECT_EQ(WireBytes(*cur.frame), WireBytes(fresh))
            << stage << " engine=" << static_cast<int>(engine)
            << " workers=" << db->options().workers;
      }
    }
  };

  // Hot-only: everything below the seal threshold.
  live->Append(MakeRows(0, 100));
  live->Append(MakeRows(100, 60));
  expect_identity("hot-only");

  // Mixed: a sealed (flushed, lazy) tablet plus a fresh hot tail.
  live->Append(MakeRows(160, 200));  // crosses 256: seals all hot rows
  live->Append(MakeRows(360, 90));
  ASSERT_EQ(live->stats().cold_tablets, 1u);
  ASSERT_EQ(live->stats().hot_rows, 90u);
  expect_identity("mixed");

  // Cold-only: force-seal the tail.
  live->SealHot();
  ASSERT_EQ(live->stats().hot_rows, 0u);
  expect_identity("cold-only");

  // And again after more rounds of growth (multiple incremental folds).
  live->Append(MakeRows(450, 300));
  live->Append(MakeRows(750, 40));
  expect_identity("mixed-second-round");
}

// A refresh reads only the chunks past its watermark: after each of
// several appends into one hot segment, and with the watermark inside the
// second block of a flushed tablet. Every state must stay byte-identical
// to a from-scratch exact query.
TEST_F(LiveTableTest, RefreshesFoldOnlyTheirDelta) {
  spill_ = FreshDir("wake_live_delta");
  LiveTableOptions opts;
  opts.seal_rows = 6000;  // a flushed tablet spans two 4096-row blocks
  opts.spill_dir = spill_.string();
  auto live = std::make_shared<LiveTable>("events", EventSchema(), opts);
  Catalog catalog;
  catalog.AddDynamic(live);
  Db db(&catalog);
  auto sub = db.Subscribe(StandingPlan());

  int64_t rows = 0;
  auto append_and_check = [&](int64_t n) {
    live->Append(MakeRows(rows, n));
    rows += n;
    sub->Refresh();
    SubscriptionState cur = sub->Current();
    ASSERT_NE(cur.frame, nullptr) << rows;
    EXPECT_EQ(cur.rows_covered, static_cast<uint64_t>(rows));
    RunOptions run;
    run.engine = QueryEngine::kExact;
    EXPECT_EQ(WireBytes(*cur.frame),
              WireBytes(db.Prepare(StandingPlan()).Execute(run)))
        << "after " << rows << " rows";
  };

  // One hot segment of many chunks; each refresh skips the folded ones.
  for (int64_t n : {100, 37, 1, 900, 3962}) append_and_check(n);
  ASSERT_EQ(live->stats().cold_tablets, 0u);
  ASSERT_EQ(rows, 5000);

  // This append seals all 6500 hot rows into a flushed tablet whose
  // second block, rows [4096, 6500), holds the watermark at 5000.
  append_and_check(1500);
  ASSERT_EQ(live->stats().cold_tablets, 1u);
  ASSERT_EQ(live->stats().hot_rows, 0u);

  // More hot chunks, then a seal that leaves the watermark inside the
  // first block of a second flushed tablet.
  append_and_check(300);
  append_and_check(20);
  append_and_check(6000);
  ASSERT_EQ(live->stats().cold_tablets, 2u);

  // A refresh that finds a whole flushed tablet past the watermark,
  // followed by a fresh hot segment.
  live->Append(MakeRows(rows, 6000));
  rows += 6000;
  append_and_check(10);
  ASSERT_EQ(live->stats().cold_tablets, 3u);
}

// A subscription folds each row exactly once even when appends race the
// refresh loop, and converges to the from-scratch answer.
TEST_F(LiveTableTest, ConcurrentAppendsAndRefreshesConverge) {
  spill_ = FreshDir("wake_live_race");
  LiveTableOptions opts;
  opts.seal_rows = 128;
  opts.spill_dir = spill_.string();
  auto live = std::make_shared<LiveTable>("events", EventSchema(), opts);
  Catalog catalog;
  catalog.AddDynamic(live);
  Db db(&catalog);
  auto sub = db.Subscribe(StandingPlan());

  constexpr int64_t kTotal = 4000;
  std::thread appender([&] {
    for (int64_t at = 0; at < kTotal; at += 100) {
      live->Append(MakeRows(at, 100));
    }
  });
  uint64_t covered = 0;
  while (covered < static_cast<uint64_t>(kTotal)) {
    sub->Refresh();
    uint64_t now = sub->Current().rows_covered;
    EXPECT_GE(now, covered);  // watermark never regresses
    covered = now;
  }
  appender.join();
  sub->Refresh();

  RunOptions run;
  run.engine = QueryEngine::kExact;
  DataFrame fresh = db.Prepare(StandingPlan()).Execute(run);
  EXPECT_EQ(WireBytes(*sub->Current().frame), WireBytes(fresh));
}

// A standing query subscribed by SQL text: every refresh equals the same
// SQL run from scratch on kExact, at hot-only, mixed and cold-only
// tablet states.
TEST_F(LiveTableTest, SqlSubscriptionRefreshesEqualExact) {
  const char* kSql =
      "SELECT k, SUM(v * 2.0) AS s, AVG(v) AS a, COUNT(*) AS c "
      "FROM events WHERE v > 3.0 GROUP BY k ORDER BY k";
  spill_ = FreshDir("wake_live_sql");
  LiveTableOptions opts;
  opts.seal_rows = 256;
  opts.spill_dir = spill_.string();
  auto live = std::make_shared<LiveTable>("events", EventSchema(), opts);
  Catalog catalog;
  catalog.AddDynamic(live);
  Db db(&catalog);
  auto sub = db.Subscribe(kSql);
  PreparedQuery fresh = db.Prepare(kSql);
  ASSERT_EQ(sub->schema().num_fields(), fresh.schema().num_fields());
  for (size_t i = 0; i < fresh.schema().num_fields(); ++i) {
    EXPECT_EQ(sub->schema().field(i), fresh.schema().field(i)) << i;
  }

  auto expect_exact = [&](const char* stage) {
    std::optional<SubscriptionState> state = sub->Refresh();
    ASSERT_TRUE(state.has_value()) << stage;
    RunOptions run;
    run.engine = QueryEngine::kExact;
    EXPECT_EQ(WireBytes(*state->frame), WireBytes(fresh.Execute(run)))
        << stage;
  };
  live->Append(MakeRows(0, 100));
  expect_exact("hot-only");
  live->Append(MakeRows(100, 300));  // crosses 256: seals the hot rows
  live->Append(MakeRows(400, 50));
  ASSERT_EQ(live->stats().cold_tablets, 1u);
  expect_exact("mixed");
  live->SealHot();
  expect_exact("cold-only");
}

TEST_F(LiveTableTest, RefreshWithoutNewRowsReturnsNullopt) {
  spill_ = FreshDir("wake_live_nullopt");
  LiveTableOptions opts;
  opts.seal_rows = 1 << 20;
  opts.spill_dir = spill_.string();
  auto live = std::make_shared<LiveTable>("events", EventSchema(), opts);
  Catalog catalog;
  catalog.AddDynamic(live);
  Db db(&catalog);
  auto sub = db.Subscribe(StandingPlan());

  // First refresh emits (an empty state), even with no data.
  auto first = sub->Refresh();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->frame->num_rows(), 0u);
  EXPECT_FALSE(sub->Refresh().has_value());

  live->Append(MakeRows(0, 50));
  auto second = sub->Refresh();
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(second->frame->num_rows(), 0u);
  EXPECT_FALSE(sub->Refresh().has_value());
}

TEST_F(LiveTableTest, UnsupportedSubscriptionsRejectedAtPlanTime) {
  spill_ = FreshDir("wake_live_reject");
  auto live = std::make_shared<LiveTable>("events", EventSchema(),
                                          LiveTableOptions{});
  Catalog catalog;
  catalog.AddDynamic(live);
  // A static table next to the live one.
  catalog.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("fixed", MakeRows(0, 10), 2)));
  Db db(&catalog);

  // No aggregate.
  EXPECT_THROW(db.Subscribe(Plan::Scan("events")), Error);
  // Aggregate over a static table.
  EXPECT_THROW(db.Subscribe(Plan::Scan("fixed").Aggregate({}, {Count("c")})),
               Error);
  try {
    db.Subscribe(Plan::Scan("fixed").Aggregate({}, {Count("c")}));
    FAIL() << "expected kPlan";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kPlan);
  }
}

TEST_F(LiveTableTest, RetentionEvictionHonorsSnapshotLeases) {
  spill_ = FreshDir("wake_live_retention");
  LiveTableOptions opts;
  opts.seal_rows = 32;
  opts.retain_tablets = 2;
  opts.spill_dir = spill_.string();
  LiveTable live("events", EventSchema(), opts);

  live.Append(MakeRows(0, 32));   // tablet 0
  live.Append(MakeRows(32, 32));  // tablet 1
  LiveSnapshot old_snap = live.SnapshotInfo();
  EXPECT_EQ(old_snap.table->total_rows(), 64u);

  live.Append(MakeRows(64, 32));  // tablet 2: evicts tablet 0
  live.Append(MakeRows(96, 32));  // tablet 3: evicts tablet 1
  LiveTableStats st = live.stats();
  EXPECT_EQ(st.cold_tablets, 2u);
  EXPECT_EQ(st.rows_evicted, 64u);

  LiveSnapshot now = live.SnapshotInfo();
  EXPECT_EQ(now.start_row, 64u);
  EXPECT_EQ(now.table->total_rows(), 64u);
  EXPECT_EQ(WireBytes(now.table->Materialize()), WireBytes(MakeRows(64, 64)));

  // The pre-eviction snapshot still reads its full row set: the lease
  // keeps the evicted tablets (and their directories) alive.
  EXPECT_EQ(WireBytes(old_snap.table->Materialize()),
            WireBytes(MakeRows(0, 64)));
  EXPECT_TRUE(fs::exists(spill_ / "t00000000"));

  // Releasing the last lease deletes the evicted tablets' directories.
  old_snap = LiveSnapshot{};
  EXPECT_FALSE(fs::exists(spill_ / "t00000000"));
  EXPECT_FALSE(fs::exists(spill_ / "t00000001"));
  EXPECT_TRUE(fs::exists(spill_ / "t00000002"));
}

TEST_F(LiveTableTest, SubscriptionOutrunByRetentionFailsLoudly) {
  spill_ = FreshDir("wake_live_outrun");
  LiveTableOptions opts;
  opts.seal_rows = 32;
  opts.retain_tablets = 1;
  opts.spill_dir = spill_.string();
  auto live = std::make_shared<LiveTable>("events", EventSchema(), opts);
  Catalog catalog;
  catalog.AddDynamic(live);
  Db db(&catalog);
  auto sub = db.Subscribe(StandingPlan());

  live->Append(MakeRows(0, 32));
  sub->Refresh();  // watermark 32
  // Two more tablets: the second eviction drops rows [32, 64) that the
  // subscription never folded — it must fail, not silently skip rows.
  live->Append(MakeRows(32, 32));
  live->Append(MakeRows(64, 32));
  try {
    sub->Refresh();
    FAIL() << "expected kResourceExhausted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kResourceExhausted);
  }
}

TEST_F(LiveTableTest, RecoveryReopensPublishedTablets) {
  spill_ = FreshDir("wake_live_recover");
  LiveTableOptions opts;
  opts.seal_rows = 48;
  opts.spill_dir = spill_.string();
  {
    LiveTable live("events", EventSchema(), opts);
    live.Append(MakeRows(0, 48));
    live.Append(MakeRows(48, 48));
    live.Append(MakeRows(96, 20));  // hot tail: lost on "crash" (never acked
                                    // as durable — only sealed tablets are)
    ASSERT_EQ(live.stats().tablets_flushed, 2u);
  }
  // Staging debris from a crash mid-flush must be discarded on recovery.
  fs::create_directories(spill_ / ".staging_t00000007" / "events");
  std::ofstream(spill_ / ".staging_t00000007" / "events" / "junk.col")
      << "partial";

  LiveTable recovered("events", EventSchema(), opts);
  LiveTableStats st = recovered.stats();
  EXPECT_EQ(st.tablets_recovered, 2u);
  EXPECT_EQ(st.tablets_quarantined, 0u);
  EXPECT_EQ(WireBytes(recovered.Snapshot()->Materialize()),
            WireBytes(MakeRows(0, 96)));
  EXPECT_FALSE(fs::exists(spill_ / ".staging_t00000007"));

  // New appends continue the sequence after the recovered tablets.
  recovered.Append(MakeRows(96, 48));
  EXPECT_EQ(recovered.stats().cold_tablets, 3u);
  EXPECT_TRUE(fs::exists(spill_ / "t00000002"));

  // Recovery under a different schema is a loud configuration error.
  EXPECT_THROW(LiveTable("events",
                         Schema({{"other", ValueType::kInt64}}), opts),
               Error);
}

// The crash-safety satellite: truncate a flushed tablet at EVERY byte
// length (every file) and prove recovery quarantines it — torn writes
// are detected via CRC/extent validation and never served.
TEST_F(LiveTableTest, TornTabletsQuarantinedAtEveryTruncationPoint) {
  spill_ = FreshDir("wake_live_torn");
  LiveTableOptions opts;
  opts.seal_rows = 16;
  opts.spill_dir = spill_.string();
  {
    LiveTable live("events", EventSchema(), opts);
    live.Append(MakeRows(0, 16));
    ASSERT_EQ(live.stats().tablets_flushed, 1u);
  }
  const fs::path tablet = spill_ / "t00000000";
  ASSERT_TRUE(fs::exists(tablet));

  // Pristine copy of every file in the tablet.
  std::map<fs::path, std::string> pristine;
  for (const auto& entry : fs::recursive_directory_iterator(tablet)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    pristine[entry.path()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GE(pristine.size(), 4u);  // table.meta + three .col files

  auto restore = [&] {
    fs::remove_all(spill_ / "quarantine");
    fs::create_directories(tablet / "events");
    for (const auto& [path, bytes] : pristine) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
  };
  auto expect_quarantined = [&](const std::string& what) {
    LiveTable rec("events", EventSchema(), opts);
    LiveTableStats st = rec.stats();
    EXPECT_EQ(st.tablets_quarantined, 1u) << what;
    EXPECT_EQ(st.tablets_recovered, 0u) << what;
    EXPECT_EQ(rec.Snapshot()->total_rows(), 0u) << what;
    EXPECT_FALSE(fs::exists(tablet)) << what;
    EXPECT_TRUE(fs::exists(spill_ / "quarantine" / "t00000000")) << what;
  };

  size_t cases = 0;
  for (const auto& [path, bytes] : pristine) {
    for (size_t len = 0; len < bytes.size(); ++len) {
      restore();
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
      out.close();
      expect_quarantined(path.filename().string() + " truncated to " +
                         std::to_string(len));
      ++cases;
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "stopping after first failing truncation (" << cases
               << " cases ran)";
      }
    }
    // Deleting the file outright must quarantine too.
    restore();
    fs::remove(path);
    expect_quarantined(path.filename().string() + " missing");
  }

  // Sanity: the pristine tablet still recovers after all that.
  restore();
  LiveTable rec("events", EventSchema(), opts);
  EXPECT_EQ(rec.stats().tablets_recovered, 1u);
  EXPECT_EQ(WireBytes(rec.Snapshot()->Materialize()),
            WireBytes(MakeRows(0, 16)));
}

}  // namespace
}  // namespace wake
