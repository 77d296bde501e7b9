// End-to-end wake::Server <-> wake::Client over loopback: byte-identical
// results, multiplexed streams, admission rejections with retry hints,
// cancellation, heartbeat kills, slow consumers, reconnect after restart,
// and graceful drain. Runs in every CI configuration (no failpoints
// needed; the network-fault sweeps live in tests/chaos/net_chaos_test.cc).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/db.h"
#include "client/client.h"
#include "common/error.h"
#include "common/socket.h"
#include "engine/tpch_fixture.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tpch/queries_sql.h"

namespace wake {
namespace {

using protocol::FrameType;

/// Heavy enough to be mid-flight when the test acts (the cancel,
/// disconnect and drain tests).
constexpr int kHeavyQuery = 9;

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

/// Polls `pred` for up to `budget_ms`; true when it held.
bool EventuallyMs(int64_t budget_ms, const std::function<bool()>& pred) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

class ServerClientTest : public ::testing::Test {
 protected:
  const Catalog& cat_ = testing::SharedTpch();
};

TEST_F(ServerClientTest, RemoteResultIsByteIdenticalToLocal) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  for (int q : {1, 3, 6}) {
    DataFrame local = db.Prepare(tpch::QuerySql(q)).Execute();
    QueryResult remote = client.Execute(tpch::QuerySql(q));
    ASSERT_TRUE(remote.frame != nullptr) << "q" << q;
    EXPECT_EQ(remote.status, ResultStatus::kFinal);
    std::string diff;
    EXPECT_TRUE(remote.frame->ApproxEquals(local, 0.0, &diff))
        << "q" << q << ": " << diff;
  }
  client.Close();
  EXPECT_TRUE(server.Shutdown(1000));
}

TEST_F(ServerClientTest, IllTypedQueryIsAPlanErrorAndTheServerKeepsServing) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  try {
    client.Execute("SELECT COUNT(*) AS n FROM lineitem WHERE l_comment < 5");
    FAIL() << "expected a plan error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kPlan) << e.what();
    EXPECT_FALSE(e.retryable());
  }
  // The same client, on the same server, still runs Q6 to its final state.
  DataFrame local = db.Prepare(tpch::QuerySql(6)).Execute();
  QueryResult remote = client.Execute(tpch::QuerySql(6));
  ASSERT_TRUE(remote.frame != nullptr);
  EXPECT_EQ(remote.status, ResultStatus::kFinal);
  std::string diff;
  EXPECT_TRUE(remote.frame->ApproxEquals(local, 0.0, &diff)) << diff;
  client.Close();
  EXPECT_TRUE(server.Shutdown(1000));
}

TEST_F(ServerClientTest,
       OutOfRangeLiteralIsAParseErrorAndTheServerKeepsServing) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  try {
    client.Execute("SELECT 99999999999999999999 AS x FROM nation");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kParse) << e.what();
    EXPECT_FALSE(e.retryable());
  }
  // The same client, on the same server, still runs Q6 to its final state.
  DataFrame local = db.Prepare(tpch::QuerySql(6)).Execute();
  QueryResult remote = client.Execute(tpch::QuerySql(6));
  ASSERT_TRUE(remote.frame != nullptr);
  EXPECT_EQ(remote.status, ResultStatus::kFinal);
  std::string diff;
  EXPECT_TRUE(remote.frame->ApproxEquals(local, 0.0, &diff)) << diff;
  client.Close();
  EXPECT_TRUE(server.Shutdown(1000));
}

TEST_F(ServerClientTest, StreamingSnapshotsConvergeToFinal) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  DataFrame local = db.Prepare(tpch::QuerySql(1)).Execute();

  RemoteQuery handle = client.Submit(tpch::QuerySql(1));
  size_t snapshots = 0;
  double last_progress = -1.0;
  bool saw_final = false;
  while (auto s = handle.Next()) {
    ++snapshots;
    EXPECT_GE(s->progress, last_progress) << "progress went backwards";
    last_progress = s->progress;
    saw_final = s->is_final;
    ASSERT_TRUE(s->frame != nullptr);
  }
  EXPECT_GE(snapshots, 1u);
  EXPECT_TRUE(saw_final) << "stream ended without a final snapshot";
  QueryResult result = handle.Result();
  std::string diff;
  EXPECT_TRUE(result.frame->ApproxEquals(local, 0.0, &diff)) << diff;
  server.Stop();
}

TEST_F(ServerClientTest, MultiplexedQueriesShareOneConnection) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));

  const std::vector<int> queries = {6, 12, 14, 19};
  std::vector<RemoteQuery> handles;
  for (int q : queries) handles.push_back(client.Submit(tpch::QuerySql(q)));
  for (size_t i = 0; i < handles.size(); ++i) {
    QueryResult remote = handles[i].Result();
    DataFrame local = db.Prepare(tpch::QuerySql(queries[i])).Execute();
    std::string diff;
    EXPECT_TRUE(remote.frame->ApproxEquals(local, 0.0, &diff))
        << "q" << queries[i] << ": " << diff;
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.queries_started, 4u);
  server.Stop();
}

TEST_F(ServerClientTest, ExactEngineRunsRemotely) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  RemoteRunOptions run;
  run.engine = QueryEngine::kExact;
  QueryResult remote = client.Execute(tpch::QuerySql(6), run);
  DataFrame local = db.Prepare(tpch::QuerySql(6)).Execute();
  std::string diff;
  EXPECT_TRUE(remote.frame->ApproxEquals(local, 0.0, &diff)) << diff;
  server.Stop();
}

TEST_F(ServerClientTest, QueueFullSurfacesRetryableWithHint) {
  DbOptions gated;
  gated.max_concurrent_queries = 1;
  gated.max_queued = 0;
  Db db(&cat_, gated);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));

  // An in-process run holds the only slot until the test opens the
  // latch: its state callback blocks the thread that runs the query.
  std::promise<void> unopened;
  std::shared_future<void> opened = unopened.get_future().share();
  RunOptions blocked;
  blocked.on_state = [opened](const OlaState&) { opened.wait(); };
  QueryHandle holder = db.Prepare(tpch::QuerySql(6)).Run(blocked);
  // Declared after `holder`, so an early exit destroys the promise first,
  // which opens the latch (broken promise) before ~QueryHandle joins.
  std::promise<void> latch = std::move(unopened);
  // The slot is taken and the queue is zero-depth: this submit must be
  // rejected with the retryable category and a backoff hint.
  RemoteQuery rejected = client.Submit(tpch::QuerySql(6));
  try {
    rejected.Result();
    ADD_FAILURE() << "expected kQueueFull";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kQueueFull);
    EXPECT_TRUE(e.retryable());
    EXPECT_GT(e.retry_after_ms(), 0);
  }
  latch.set_value();
  EXPECT_EQ(holder.Result().status, ResultStatus::kFinal);
  // Once the slot frees, Execute()'s retry loop recovers on its own.
  EXPECT_TRUE(EventuallyMs(5000, [&] {
    return server.stats().active_queries == 0;
  }));
  QueryResult ok = client.Execute(tpch::QuerySql(6));
  EXPECT_EQ(ok.status, ResultStatus::kFinal);
  server.Stop();
}

TEST_F(ServerClientTest, CancelPropagatesToServer) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  RemoteQuery handle = client.Submit(tpch::QuerySql(kHeavyQuery));
  ASSERT_TRUE(handle.Next().has_value());
  handle.Cancel();
  // Either the cancel landed (kCancelled) or it raced completion.
  try {
    QueryResult result = handle.Result();
    EXPECT_TRUE(result.frame != nullptr);
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
  }
  EXPECT_TRUE(EventuallyMs(5000, [&] {
    return server.stats().active_queries == 0;
  })) << "server leaked a cancelled query";
  server.Stop();
}

TEST_F(ServerClientTest, DisconnectCancelsInFlightQueries) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  {
    Client client(FastClient(server.port()));
    RemoteQuery handle = client.Submit(tpch::QuerySql(kHeavyQuery));
    ASSERT_TRUE(handle.Next().has_value());
    client.Close();  // vanishing consumer
  }
  EXPECT_TRUE(EventuallyMs(5000, [&] {
    ServerStats stats = server.stats();
    return stats.active_queries == 0 && stats.active_connections == 0;
  })) << "disconnected client left a query running";
  server.Stop();
}

TEST_F(ServerClientTest, SlowConsumerStillGetsFinalSnapshot) {
  Db db(&cat_);
  ServerOptions options = FastServer();
  options.max_snapshot_backlog = 2;  // tight: drops intermediates readily
  Server server(&db, options);
  server.Start();
  Client client(FastClient(server.port()));
  DataFrame local = db.Prepare(tpch::QuerySql(1)).Execute();

  RemoteQuery handle = client.Submit(tpch::QuerySql(1));
  bool saw_final = false;
  size_t snapshots = 0;
  while (auto s = handle.Next()) {
    ++snapshots;
    saw_final = s->is_final;
    std::this_thread::sleep_for(std::chrono::milliseconds(40));  // lag
  }
  EXPECT_TRUE(saw_final)
      << "slow consumer lost the final snapshot (" << snapshots << " seen)";
  QueryResult result = handle.Result();
  std::string diff;
  EXPECT_TRUE(result.frame->ApproxEquals(local, 0.0, &diff)) << diff;
  server.Stop();
}

// A capped handle keeps at most its cap of unread snapshots and drops the
// oldest, so a caller that reads only after the query finished holds two
// states, not one per partial, and the last of them is the final.
TEST_F(ServerClientTest, CappedHandleReadAfterTheEndHoldsTheNewestStates) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  RemoteRunOptions options;
  options.max_buffered_states = 2;
  RemoteQuery handle = client.Submit(tpch::QuerySql(1), options);
  handle.Wait();
  std::vector<OlaState> states;
  while (auto s = handle.Next()) states.push_back(std::move(*s));
  ASSERT_FALSE(states.empty());
  EXPECT_LE(states.size(), 2u);
  EXPECT_TRUE(states.back().is_final);
  server.Stop();
}

TEST_F(ServerClientTest, HeartbeatKillsSilentConnection) {
  Db db(&cat_);
  ServerOptions options = FastServer();
  options.heartbeat_interval_ms = 50;
  options.heartbeat_timeout_ms = 250;
  Server server(&db, options);
  server.Start();

  // A raw socket that handshakes, then goes silent (no pongs, no reads
  // from our side are required — the server just hears nothing).
  net::Socket raw = net::Connect("127.0.0.1", server.port(), 2000);
  protocol::Hello hello;
  hello.client_name = "zombie";
  protocol::SendFrame(raw, FrameType::kHello, protocol::Encode(hello), 2000,
                      1u << 20);
  protocol::RecvResult welcome = protocol::RecvFrame(raw, 2000, 2000, 1u << 20);
  ASSERT_EQ(welcome.status, protocol::RecvResult::Status::kFrame);
  ASSERT_EQ(welcome.type, FrameType::kWelcome);

  EXPECT_TRUE(EventuallyMs(5000, [&] {
    return server.stats().heartbeat_kills >= 1;
  })) << "silent connection was never killed";
  EXPECT_TRUE(EventuallyMs(2000, [&] {
    return server.stats().active_connections == 0;
  }));
  server.Stop();
}

TEST_F(ServerClientTest, ConnectionCapRejectsWithRetryableError) {
  Db db(&cat_);
  ServerOptions options = FastServer();
  options.max_connections = 1;
  Server server(&db, options);
  server.Start();

  Client first(FastClient(server.port()));
  first.Connect();
  ClientOptions second_options = FastClient(server.port());
  second_options.backoff.max_attempts = 2;
  Client second(second_options);
  try {
    second.Connect();
    FAIL() << "expected rejection at connection capacity";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUnavailable);
    EXPECT_TRUE(e.retryable());
  }
  EXPECT_GE(server.stats().connections_rejected, 1u);
  // Capacity frees with the first client; the second can now connect.
  first.Close();
  EXPECT_TRUE(EventuallyMs(3000, [&] {
    try {
      second.Connect();
      return true;
    } catch (const Error&) {
      return false;
    }
  }));
  server.Stop();
}

TEST_F(ServerClientTest, ClientReconnectsAfterServerRestart) {
  Db db(&cat_);
  auto server1 = std::make_unique<Server>(&db, FastServer());
  server1->Start();
  uint16_t port = server1->port();

  Client client(FastClient(port));
  QueryResult before = client.Execute(tpch::QuerySql(6));
  EXPECT_EQ(before.status, ResultStatus::kFinal);

  server1->Shutdown(1000);
  server1.reset();
  ServerOptions takeover = FastServer();
  takeover.port = port;
  Server server2(&db, takeover);
  server2.Start();

  // Execute() transparently reconnects (retryable error path) and the
  // result is still byte-identical.
  QueryResult after = client.Execute(tpch::QuerySql(6));
  std::string diff;
  EXPECT_TRUE(after.frame->ApproxEquals(*before.frame, 0.0, &diff)) << diff;
  EXPECT_GE(client.stats().reconnects, 1u);
  server2.Stop();
}

TEST_F(ServerClientTest, GracefulDrainLetsInFlightQueriesFinish) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));

  RemoteQuery handle = client.Submit(tpch::QuerySql(kHeavyQuery));
  ASSERT_TRUE(handle.Next().has_value());
  // Drain with a generous budget: the in-flight query must finish
  // naturally and the client must still receive every terminal frame.
  std::thread consumer([&] {
    while (handle.Next()) {
    }
  });
  bool clean = server.Shutdown(60000);
  consumer.join();
  EXPECT_TRUE(clean);
  QueryResult result = handle.Result();
  EXPECT_EQ(result.status, ResultStatus::kFinal);
  EXPECT_TRUE(client.server_draining());
}

TEST_F(ServerClientTest, ZeroDrainCancelsStragglersWithTerminalError) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));

  RemoteQuery handle = client.Submit(tpch::QuerySql(kHeavyQuery));
  ASSERT_TRUE(handle.Next().has_value());
  bool clean = server.Shutdown(0);
  // Whether the query is still mid-flight when the zero-budget drain
  // lands is a race. The invariants: the client always gets a terminal
  // (never a hang), and a query the drain cut down is never reported as
  // a clean shutdown.
  try {
    QueryResult result = handle.Result();
    EXPECT_EQ(result.status, ResultStatus::kFinal)
        << "query finished just before the cancel landed";
  } catch (const Error& e) {
    EXPECT_FALSE(clean) << "a cancelled straggler cannot be a clean drain";
    EXPECT_TRUE(e.category() == ErrorCategory::kCancelled ||
                e.category() == ErrorCategory::kNetwork ||
                e.category() == ErrorCategory::kUnavailable)
        << ErrorCategoryName(e.category());
  }
}

TEST_F(ServerClientTest, PartialIoReassemblyStaysByteIdentical) {
  Db db(&cat_);
  Server server(&db, FastServer());
  server.Start();
  Client client(FastClient(server.port()));
  DataFrame local = db.Prepare(tpch::QuerySql(6)).Execute();
  net::TestSetIoChunk(7);  // every syscall moves at most 7 bytes
  QueryResult remote = client.Execute(tpch::QuerySql(6));
  net::TestSetIoChunk(0);
  std::string diff;
  EXPECT_TRUE(remote.frame->ApproxEquals(local, 0.0, &diff)) << diff;
  server.Stop();
}

}  // namespace
}  // namespace wake
