// The kIngest/kIngestAck wire path: codec roundtrips, end-to-end remote
// appends through Server::HandleIngest + Client::Ingest (with the
// appended rows visible to remote queries, byte-identical to local
// execution), server-side rejections keeping their error category, and
// drain refusing new appends.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "api/db.h"
#include "client/client.h"
#include "common/error.h"
#include "ingest/live_table.h"
#include "server/protocol.h"
#include "server/server.h"

namespace wake {
namespace {

namespace fs = std::filesystem;
using protocol::FrameType;

Schema EventSchema() {
  return Schema({{"k", ValueType::kString},
                 {"v", ValueType::kFloat64},
                 {"id", ValueType::kInt64}});
}

DataFrame MakeRows(int64_t start, int64_t n) {
  DataFrame df(EventSchema());
  for (int64_t i = start; i < start + n; ++i) {
    df.mutable_column(0)->AppendString("g" + std::to_string(i % 5));
    df.mutable_column(1)->AppendDouble(static_cast<double>(i) * 0.5);
    df.mutable_column(2)->AppendInt(i);
  }
  return df;
}

std::string WireBytes(const DataFrame& df) {
  wire::WireWriter w;
  protocol::EncodeDataFrame(df, &w);
  return w.Take();
}

ServerOptions FastServer() {
  ServerOptions options;
  options.heartbeat_interval_ms = 100;
  options.heartbeat_timeout_ms = 2000;
  options.write_timeout_ms = 2000;
  return options;
}

ClientOptions FastClient(uint16_t port) {
  ClientOptions options;
  options.port = port;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 5000;
  options.heartbeat_interval_ms = 100;
  options.heartbeat_timeout_ms = 2000;
  options.backoff.initial_ms = 20;
  options.backoff.max_ms = 250;
  options.backoff.max_attempts = 6;
  return options;
}

TEST(IngestCodec, IngestRoundtrip) {
  protocol::Ingest msg;
  msg.ingest_id = 42;
  msg.table = "events";
  msg.rows = std::make_shared<DataFrame>(MakeRows(7, 13));

  protocol::Ingest back = protocol::DecodeIngest(protocol::Encode(msg));
  EXPECT_EQ(back.ingest_id, 42u);
  EXPECT_EQ(back.table, "events");
  ASSERT_NE(back.rows, nullptr);
  EXPECT_EQ(WireBytes(*back.rows), WireBytes(*msg.rows));
}

TEST(IngestCodec, IngestAckRoundtrip) {
  protocol::IngestAck ack;
  ack.ingest_id = 9;
  ack.ok = false;
  ack.epoch = 17;
  ack.total_rows = 1234;
  ack.category = ErrorCategory::kResourceExhausted;
  ack.message = "tablet retention dropped rows";

  protocol::IngestAck back = protocol::DecodeIngestAck(protocol::Encode(ack));
  EXPECT_EQ(back.ingest_id, 9u);
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.epoch, 17u);
  EXPECT_EQ(back.total_rows, 1234u);
  EXPECT_EQ(back.category, ErrorCategory::kResourceExhausted);
  EXPECT_EQ(back.message, "tablet retention dropped rows");
}

TEST(IngestCodec, UnknownAckCategoryDecodesAsExecution) {
  protocol::IngestAck ack;
  ack.ingest_id = 1;
  ack.ok = false;
  ack.category = ErrorCategory::kPlan;
  ack.message = "x";
  std::string payload = protocol::Encode(ack);
  // The category byte sits right after ingest_id(8) + ok(1) + epoch(8) +
  // total_rows(8); a future category from a newer peer must not crash an
  // older decoder.
  payload[8 + 1 + 8 + 8] = static_cast<char>(0xEE);
  EXPECT_EQ(protocol::DecodeIngestAck(payload).category,
            ErrorCategory::kExecution);
}

class IngestEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    live_ = std::make_shared<LiveTable>("events", EventSchema(),
                                        LiveTableOptions{});
    catalog_.AddDynamic(live_);
    catalog_.Add(std::make_shared<PartitionedTable>(
        PartitionedTable::FromDataFrame("fixed", MakeRows(0, 8), 2)));
  }

  std::shared_ptr<LiveTable> live_;
  Catalog catalog_;
};

TEST_F(IngestEndToEndTest, RemoteAppendsVisibleToRemoteQueries) {
  Db db(&catalog_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));

  IngestResult first = client.Ingest("events", MakeRows(0, 100));
  EXPECT_EQ(first.total_rows, 100u);
  EXPECT_GE(first.epoch, 1u);
  IngestResult second = client.Ingest("events", MakeRows(100, 50));
  EXPECT_EQ(second.total_rows, 150u);
  EXPECT_GT(second.epoch, first.epoch);
  EXPECT_EQ(client.stats().ingests_acked, 2u);
  EXPECT_EQ(live_->stats().rows_appended, 150u);

  const std::string sql =
      "SELECT k, SUM(v) AS s, COUNT(*) AS c FROM events "
      "GROUP BY k ORDER BY k";
  QueryResult remote = client.Execute(sql);
  ASSERT_NE(remote.frame, nullptr);
  DataFrame local = db.Prepare(sql).Execute();
  EXPECT_EQ(WireBytes(*remote.frame), WireBytes(local));
  EXPECT_EQ(remote.frame->num_rows(), 5u);  // five distinct keys

  client.Close();
  EXPECT_TRUE(server.Shutdown(1000));
}

TEST_F(IngestEndToEndTest, RejectionsKeepTheirErrorCategory) {
  Db db(&catalog_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));

  // Unknown table and static table are plan errors, not retryable.
  for (const char* table : {"nope", "fixed"}) {
    try {
      client.Ingest(table, MakeRows(0, 4));
      FAIL() << "expected kPlan for table " << table;
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kPlan) << table;
      EXPECT_FALSE(e.retryable()) << table;
    }
  }
  // Schema-mismatched rows are rejected server-side, connection intact.
  DataFrame bad(Schema({{"x", ValueType::kInt64}}));
  bad.mutable_column(0)->AppendInt(1);
  EXPECT_THROW(client.Ingest("events", bad), Error);
  EXPECT_EQ(live_->stats().rows_appended, 0u);

  // The connection survives rejected appends: a good one still lands.
  EXPECT_EQ(client.Ingest("events", MakeRows(0, 4)).total_rows, 4u);

  client.Close();
  EXPECT_TRUE(server.Shutdown(1000));
}

TEST_F(IngestEndToEndTest, DrainingServerRefusesAppends) {
  Db db(&catalog_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  ASSERT_EQ(client.Ingest("events", MakeRows(0, 4)).total_rows, 4u);

  std::thread drainer([&] { server.Shutdown(2000); });
  bool refused = false;
  // The drain announcement races the appends; whichever way each one
  // lands, no append may be silently dropped: each either acks (rows
  // counted) or throws. Append until one is refused — however long the
  // drainer takes to start — bounded by a deadline, not an attempt count.
  uint64_t acked_rows = 4;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!refused && std::chrono::steady_clock::now() < deadline) {
    try {
      IngestResult r = client.Ingest("events", MakeRows(0, 1));
      acked_rows += 1;
      EXPECT_EQ(r.total_rows, acked_rows);
    } catch (const Error&) {
      refused = true;
    }
  }
  drainer.join();
  EXPECT_TRUE(refused) << "shutdown never refused an append";
  EXPECT_EQ(live_->stats().rows_appended, acked_rows);
  client.Close();
}

}  // namespace
}  // namespace wake
