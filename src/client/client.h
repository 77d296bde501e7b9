// wake::Client — the fault-tolerant remote session over a wake server.
//
// Mirrors the wake::Db session shape (api/db.h) across a socket: Submit()
// returns a RemoteQuery streaming the same converging OlaStates a local
// QueryHandle yields, and results are byte-identical to in-process
// execution (tests/server/server_tpch_test.cc holds that line for all 22
// TPC-H queries).
//
// Robustness contract:
//  - Connect() dials + handshakes under exponential backoff with jitter
//    (BackoffPolicy); retryable failures — refused/reset connections,
//    handshake EOF, server-at-capacity kGoodbye — are retried, protocol
//    violations are not.
//  - On connection loss, queries the server never acknowledged (no
//    kAccepted yet) are resubmitted automatically after reconnect: not
//    yet admitted means not running, so resubmission cannot duplicate
//    work. Acknowledged queries fail with a retryable
//    wake::Error(kNetwork) instead — the server MAY still be running
//    them, so the decision to re-run belongs to the caller.
//  - Execute() is that caller: a blocking submit-and-wait that re-runs
//    the whole (read-only, hence idempotent) query while the error is
//    retryable(), honoring retry_after_ms hints over its own backoff.
//  - The reader thread answers server pings, so a client blocked in a
//    long Next() never trips the server's heartbeat kill; a server
//    silent past heartbeat_timeout_ms is declared dead client-side.
//
// Threading: Client is safe to share across threads. Each RemoteQuery
// follows the QueryHandle contract — one consumer thread for
// Next()/Wait()/Result(), Cancel() from anywhere. Client must outlive
// its RemoteQuerys.
#ifndef WAKE_CLIENT_CLIENT_H_
#define WAKE_CLIENT_CLIENT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/db.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/socket.h"

namespace wake {

class Client;

/// Exponential backoff with multiplicative jitter: attempt k sleeps
/// min(max_ms, initial_ms * multiplier^k) * U[1-jitter, 1+jitter].
struct BackoffPolicy {
  int64_t initial_ms = 100;
  int64_t max_ms = 5000;
  double multiplier = 2.0;
  double jitter = 0.25;
  /// Connection attempts per Connect() cycle; also Execute()'s cap on
  /// full-query retries.
  int max_attempts = 8;
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string client_name = "wake-client";
  int64_t connect_timeout_ms = 5000;
  /// Budget for mid-frame reads and whole-frame writes.
  int64_t io_timeout_ms = 5000;
  /// Cadence of the reader's liveness tick (answer pings, detect silence).
  int64_t heartbeat_interval_ms = 500;
  /// A server silent for this long while queries are in flight is
  /// declared dead and the connection recycled.
  int64_t heartbeat_timeout_ms = 5000;
  size_t max_frame_bytes = 64u << 20;
  BackoffPolicy backoff;
  /// Seed for backoff jitter (deterministic by default so chaos tests
  /// replay exactly).
  uint64_t jitter_seed = 0x5EEDB0FFULL;
};

/// The remotable subset of RunOptions — everything that travels in a
/// kSubmit frame. on_state has no remote equivalent: pull via Next().
struct RemoteRunOptions {
  QueryEngine engine = QueryEngine::kOla;
  bool with_ci = false;
  OnBreach on_breach = OnBreach::kDegrade;
  uint64_t memory_limit_bytes = 0;
  int64_t timeout_ms = 0;
  uint64_t max_rows_scanned = 0;
  /// Requested snapshot backlog; the server clamps into
  /// [1, ServerOptions::max_snapshot_backlog]. The handle caps its own
  /// unread snapshots at it too, dropping the oldest (never a final), as
  /// RunOptions::max_buffered_states does. 0 = the server's backlog and
  /// no cap on the handle.
  uint64_t max_buffered_states = 0;
  int64_t admission_timeout_ms = 0;
};

struct ClientStats {
  uint64_t reconnects = 0;      // successful connections after the first
  uint64_t resubmissions = 0;   // un-acked queries resent after reconnect
  uint64_t execute_retries = 0; // full-query re-runs by Execute()
  uint64_t snapshots_received = 0;
  uint64_t ingests_acked = 0;   // successful remote appends
};

/// Server acknowledgment of one Ingest() append.
struct IngestResult {
  /// Live-table epoch that first contains the appended rows.
  uint64_t epoch = 0;
  /// The table's lifetime appended-row count after this append.
  uint64_t total_rows = 0;
};

/// A live remote query. Same consumer contract as QueryHandle; remains
/// usable (drains buffered snapshots, reports its terminal) after the
/// connection drops.
class RemoteQuery {
 public:
  RemoteQuery() = default;
  ~RemoteQuery();  // best-effort Cancel if still running
  RemoteQuery(RemoteQuery&&) noexcept;
  RemoteQuery& operator=(RemoteQuery&&) = delete;

  /// Next snapshot, blocking until one arrives or the stream ends
  /// (std::nullopt). The last snapshot of a successful run has
  /// is_final = true.
  std::optional<OlaState> Next();
  /// Like Next() but waits at most `timeout`; std::nullopt also means
  /// timeout — check done().
  std::optional<OlaState> Next(std::chrono::milliseconds timeout);

  /// Requests cancellation (local mark + best-effort kCancel frame).
  /// Idempotent, any thread.
  void Cancel();
  /// Blocks until the query reached a terminal. Does not throw.
  void Wait();
  /// Wait(), then the terminal result (frame = last received snapshot).
  /// Throws the query's error if it failed — retryable() tells transient
  /// (connection lost, queue full) from deterministic failures.
  QueryResult Result();
  /// Result().frame, dereferenced.
  DataFrame Final();

  bool done() const;

 private:
  friend class Client;
  struct State;
  RemoteQuery(Client* client, std::shared_ptr<State> state);
  Client* client_ = nullptr;
  std::shared_ptr<State> state_;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();  // Close()

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Ensures a live connection, dialing with backoff if needed. Throws
  /// the last attempt's error once the policy is exhausted. Idempotent;
  /// called implicitly by Submit()/Execute().
  void Connect();

  /// Sends Goodbye, closes the socket, fails in-flight queries
  /// (kCancelled). Idempotent; the client is dead afterwards.
  void Close();

  bool connected() const;
  /// True once the server announced kDrain on the current connection.
  bool server_draining() const;
  /// Session id assigned by the server's kWelcome (0 before connect).
  uint64_t session_id() const;

  /// Submits a query and returns its streaming handle. Connects first if
  /// needed (that connect may throw). After submission, connection
  /// failures surface through the handle's Result(), not here.
  RemoteQuery Submit(const std::string& sql,
                     const RemoteRunOptions& options = {});

  /// Blocking submit-and-wait with automatic retry of retryable failures
  /// (reconnect + resubmit included), honoring retry_after_ms hints. Left
  /// at 0, max_buffered_states becomes 1: only the result is read.
  QueryResult Execute(const std::string& sql,
                      const RemoteRunOptions& options = {});

  /// Appends `rows` to live table `table` on the server, blocking until
  /// the server acknowledges. Unlike Execute(), an append is NOT
  /// idempotent, so the client never auto-retries: if the connection is
  /// lost between send and ack the outcome is ambiguous — the rows may
  /// or may not have landed — and Ingest throws a retryable
  /// wake::Error(kNetwork) saying so; re-sending is the caller's call
  /// (it risks duplicate rows). Server-side rejections (unknown table,
  /// schema mismatch, drain) arrive as their original error category.
  IngestResult Ingest(const std::string& table, const DataFrame& rows);

  ClientStats stats() const;

 private:
  friend class RemoteQuery;

  using State = RemoteQuery::State;

  /// One in-flight Ingest() waiting for its kIngestAck.
  struct PendingIngest;

  void ReaderLoop();
  bool TryConnectCycle();
  void RecvLoop();
  void HandleDisconnect(const Error& cause);
  void RouteFrame(uint8_t type, const std::string& payload);
  bool SendOnWire(uint8_t type, const std::string& payload);
  void CancelQuery(const std::shared_ptr<State>& state);
  int64_t BackoffDelayMs(int attempt);
  void FailQuery(const std::shared_ptr<State>& state, const Error& e);

  ClientOptions options_;

  mutable std::mutex mu_;  // sock_ identity, maps, flags (before write_mu_)
  std::mutex write_mu_;    // frame writes on sock_
  net::Socket sock_;
  bool connected_ = false;
  bool stopping_ = false;
  bool want_connect_ = false;
  bool draining_ = false;
  uint64_t session_id_ = 0;
  uint64_t next_query_id_ = 1;
  uint64_t connect_epoch_ = 0;  // bumped when a connect cycle fails
  std::optional<Error> connect_error_;
  std::unordered_map<uint64_t, std::shared_ptr<State>> queries_;
  std::vector<std::shared_ptr<State>> resubmit_;  // un-acked, awaiting retry
  uint64_t next_ingest_id_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<PendingIngest>> ingests_;
  std::condition_variable conn_cv_;   // wakes the reader
  std::condition_variable state_cv_;  // wakes Connect() waiters
  std::thread reader_;
  std::chrono::steady_clock::time_point last_inbound_;
  std::chrono::steady_clock::time_point last_ping_;
  uint64_t ping_nonce_ = 0;

  std::mutex rng_mu_;
  Rng rng_;

  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> resubmissions_{0};
  std::atomic<uint64_t> execute_retries_{0};
  std::atomic<uint64_t> snapshots_received_{0};
  std::atomic<uint64_t> ingests_acked_{0};
  std::atomic<uint64_t> connections_made_{0};
};

}  // namespace wake

#endif  // WAKE_CLIENT_CLIENT_H_
