#include "server/server.h"

#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "ingest/live_table.h"
#include "server/protocol.h"

namespace wake {

using protocol::FrameType;
using Clock = std::chrono::steady_clock;

/// One in-flight query of a connection. The raw pointer handed to the
/// pump thread stays valid for the pump's whole life: the owning
/// unique_ptr is only destroyed after the pump is joined (lazy reap in
/// HandleSubmit or TeardownConnection).
struct Server::ConnQuery {
  uint64_t id;
  QueryHandle handle;
  std::thread pump;
  std::atomic<bool> finished{false};
  ConnQuery(uint64_t id_in, QueryHandle&& handle_in)
      : id(id_in), handle(std::move(handle_in)) {}
};

/// One accepted client connection. Owned jointly (shared_ptr) by the
/// server's connection list, the reader thread, and every pump thread of
/// its queries; `alive` flips false exactly once, at the start of
/// teardown (or on the first failed write), after which writes are
/// refused and the socket is shut down so every blocked thread unwinds.
struct Server::Connection {
  net::Socket sock;
  uint64_t session_id = 0;

  std::mutex write_mu;            // serializes whole frames onto the socket
  std::atomic<bool> alive{true};  // false once the connection is dying
  std::atomic<bool> done{false};  // reader exited, queries cleaned up

  // Liveness bookkeeping, touched only by the reader thread.
  Clock::time_point last_read = Clock::now();
  Clock::time_point last_ping = Clock::now();
  uint64_t ping_nonce = 0;

  std::mutex q_mu;
  std::vector<std::unique_ptr<ConnQuery>> queries;

  std::thread reader;
};

bool Server::WriteFrame(Connection& conn, FrameType type,
                        const std::string& payload, int64_t timeout_ms,
                        size_t max_frame_bytes) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.alive.load(std::memory_order_acquire)) return false;
  try {
    protocol::SendFrame(conn.sock, type, payload, timeout_ms,
                        max_frame_bytes);
    return true;
  } catch (const Error&) {
    // A stalled or reset write condemns the whole connection: snapshots
    // for other queries of this client cannot get through either.
    conn.alive.store(false, std::memory_order_release);
    conn.sock.ShutdownBoth();
    return false;
  }
}

Server::Server(Db* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  CheckArg(db != nullptr, "Server needs a Db");
}

Server::~Server() { Stop(); }

void Server::Start() {
  CheckArg(!running_.load(), "Server::Start called twice");
  listener_ = net::Listen(options_.host, options_.port);
  port_ = net::LocalPort(listener_);
  draining_.store(false);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Server::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    net::Socket sock;
    try {
      sock = net::Accept(listener_, 200);
    } catch (const Error&) {
      break;  // listener torn down
    }
    ReapFinishedConnections();
    if (!sock.valid()) continue;  // poll timeout or transient accept error
    try {
      WAKE_FAILPOINT("net.accept");
    } catch (const Error&) {
      continue;  // injected accept fault: drop this connection
    }
    if (draining_.load(std::memory_order_acquire)) {
      connections_rejected_.fetch_add(1);
      // Mirror the at-capacity path: a categorized goodbye lets the
      // client surface a retryable kUnavailable instead of a bare EOF.
      try {
        protocol::SendFrame(sock, FrameType::kGoodbye,
                            protocol::Encode(protocol::Goodbye{
                                "server is draining"}),
                            options_.write_timeout_ms,
                            options_.max_frame_bytes);
      } catch (const Error&) {
      }
      continue;
    }
    size_t live = 0;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& c : conns_) {
        if (!c->done.load(std::memory_order_acquire)) ++live;
      }
    }
    if (live >= options_.max_connections) {
      connections_rejected_.fetch_add(1);
      // Tell the client why before closing: it reads kGoodbye where it
      // expected kWelcome and surfaces a retryable kUnavailable.
      try {
        protocol::SendFrame(sock, FrameType::kGoodbye,
                            protocol::Encode(protocol::Goodbye{
                                "server at connection capacity"}),
                            options_.write_timeout_ms,
                            options_.max_frame_bytes);
      } catch (const Error&) {
      }
      continue;
    }
    connections_accepted_.fetch_add(1);
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(sock);
    conn->session_id = next_session_id_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void Server::ServeConnection(const std::shared_ptr<Connection>& conn) {
  // Handshake: the first frame must be kHello, within the handshake
  // budget — half-open or garbage-speaking connections die here.
  try {
    protocol::RecvResult r =
        protocol::RecvFrame(conn->sock, options_.handshake_timeout_ms,
                            options_.handshake_timeout_ms,
                            options_.max_frame_bytes);
    bool ok = r.status == protocol::RecvResult::Status::kFrame &&
              r.type == FrameType::kHello;
    if (ok) {
      protocol::Hello hello = protocol::DecodeHello(r.payload);
      ok = hello.protocol_version == wire::kProtocolVersion;
      if (!ok) {
        WriteFrame(*conn, FrameType::kGoodbye,
                   protocol::Encode(protocol::Goodbye{StrFormat(
                       "unsupported protocol version %u",
                       hello.protocol_version)}),
                   options_.write_timeout_ms, options_.max_frame_bytes);
      }
    }
    if (!ok || !WriteFrame(*conn, FrameType::kWelcome,
                           protocol::Encode(protocol::Welcome{
                               wire::kProtocolVersion, "wake",
                               conn->session_id}),
                           options_.write_timeout_ms,
                           options_.max_frame_bytes)) {
      TeardownConnection(conn);
      return;
    }
  } catch (const Error& e) {
    if (e.category() == ErrorCategory::kProtocol) {
      protocol_errors_.fetch_add(1);
    }
    TeardownConnection(conn);
    return;
  }

  conn->last_read = Clock::now();
  conn->last_ping = Clock::now();
  try {
    while (conn->alive.load(std::memory_order_acquire)) {
      protocol::RecvResult r = protocol::RecvFrame(
          conn->sock, options_.heartbeat_interval_ms,
          options_.heartbeat_timeout_ms, options_.max_frame_bytes);
      if (r.status == protocol::RecvResult::Status::kEof) break;
      Clock::time_point now = Clock::now();
      if (r.status == protocol::RecvResult::Status::kIdle) {
        auto silent_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - conn->last_read)
                .count();
        if (silent_ms > options_.heartbeat_timeout_ms) {
          // Dead or partitioned peer: nothing inbound for a full
          // heartbeat window (pongs included). Cancel its queries.
          heartbeat_kills_.fetch_add(1);
          break;
        }
        auto since_ping =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - conn->last_ping)
                .count();
        if (since_ping >= options_.heartbeat_interval_ms) {
          conn->last_ping = now;
          if (!WriteFrame(*conn, FrameType::kPing,
                          protocol::Encode(
                              protocol::Ping{++conn->ping_nonce}),
                          options_.write_timeout_ms,
                          options_.max_frame_bytes)) {
            break;
          }
        }
        continue;
      }
      conn->last_read = now;
      bool closing = false;
      switch (r.type) {
        case FrameType::kSubmit:
          HandleSubmit(conn, r.payload);
          break;
        case FrameType::kIngest:
          HandleIngest(conn, r.payload);
          break;
        case FrameType::kCancel: {
          protocol::Cancel cancel = protocol::DecodeCancel(r.payload);
          std::lock_guard<std::mutex> lock(conn->q_mu);
          for (auto& q : conn->queries) {
            if (q->id == cancel.query_id) q->handle.Cancel();
          }
          break;
        }
        case FrameType::kPing:
          WriteFrame(*conn, FrameType::kPong,
                     protocol::Encode(protocol::DecodePing(r.payload)),
                     options_.write_timeout_ms, options_.max_frame_bytes);
          break;
        case FrameType::kPong:
          break;  // last_read already refreshed
        case FrameType::kGoodbye:
          closing = true;
          break;
        default:
          throw Error(StrFormat("unexpected %s frame from client",
                                protocol::FrameTypeName(r.type)),
                      ErrorCategory::kProtocol);
      }
      if (closing) break;
    }
  } catch (const Error& e) {
    if (e.category() == ErrorCategory::kProtocol) {
      protocol_errors_.fetch_add(1);
      WriteFrame(*conn, FrameType::kGoodbye,
                 protocol::Encode(protocol::Goodbye{e.what()}),
                 options_.write_timeout_ms, options_.max_frame_bytes);
    }
    // kNetwork: the connection is simply gone; teardown below.
  }
  TeardownConnection(conn);
}

void Server::HandleSubmit(const std::shared_ptr<Connection>& conn,
                          const std::string& payload) {
  protocol::Submit submit = protocol::DecodeSubmit(payload);
  auto reject = [&](const Error& e) {
    int64_t hint = e.retry_after_ms();
    if (hint == 0 && e.retryable()) hint = options_.retry_hint_ms;
    WriteFrame(*conn, FrameType::kQueryError,
               protocol::Encode(protocol::QueryError{
                   submit.query_id, e.category(), hint, e.what()}),
               options_.write_timeout_ms, options_.max_frame_bytes);
  };
  if (draining_.load(std::memory_order_acquire)) {
    reject(Error("server is draining for shutdown",
                 ErrorCategory::kUnavailable));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->q_mu);
    // Lazy reap: joined-and-finished pumps make room before the linear
    // duplicate-id scan.
    conn->queries.erase(
        std::remove_if(conn->queries.begin(), conn->queries.end(),
                       [](const std::unique_ptr<ConnQuery>& q) {
                         if (!q->finished.load(std::memory_order_acquire)) {
                           return false;
                         }
                         if (q->pump.joinable()) q->pump.join();
                         return true;
                       }),
        conn->queries.end());
    for (const auto& q : conn->queries) {
      if (q->id == submit.query_id) {
        reject(Error(StrFormat("duplicate query id %llu on this connection",
                               static_cast<unsigned long long>(
                                   submit.query_id)),
                     ErrorCategory::kProtocol));
        return;
      }
    }
  }
  try {
    PreparedQuery prepared = db_->Prepare(submit.sql);
    RunOptions run;
    run.engine = submit.engine;
    run.with_ci = submit.with_ci;
    run.on_breach = submit.on_breach;
    run.memory_limit_bytes = submit.memory_limit_bytes;
    run.timeout_ms = submit.timeout_ms;
    run.max_rows_scanned = submit.max_rows_scanned;
    run.admission_timeout_ms = submit.admission_timeout_ms;
    // Remote streams are never unbounded: clamp the snapshot backlog into
    // [1, max_snapshot_backlog]. Snapshots are cumulative, so a slow
    // consumer skips ahead over dropped intermediates; the final snapshot
    // is enqueued last and can never be displaced.
    size_t backlog = submit.max_buffered_states == 0
                         ? options_.max_snapshot_backlog
                         : std::min<size_t>(submit.max_buffered_states,
                                            options_.max_snapshot_backlog);
    run.max_buffered_states = std::max<size_t>(1, backlog);
    QueryHandle handle = prepared.Run(run);  // may throw kQueueFull now
    queries_started_.fetch_add(1);
    active_queries_.fetch_add(1);
    std::lock_guard<std::mutex> lock(conn->q_mu);
    auto query =
        std::make_unique<ConnQuery>(submit.query_id, std::move(handle));
    ConnQuery* raw = query.get();
    conn->queries.push_back(std::move(query));
    // Ack before the pump starts so kAccepted precedes every snapshot on
    // the wire; once acked, the client must NOT blindly resubmit (the
    // query is live in the admission system).
    WriteFrame(*conn, FrameType::kAccepted,
               protocol::Encode(protocol::Accepted{submit.query_id}),
               options_.write_timeout_ms, options_.max_frame_bytes);
    // The raw pointer (not the id) goes to the pump: a lookup by id races
    // TeardownConnection swapping conn->queries out, whereas the pointee
    // is guaranteed alive until the pump itself is joined.
    raw->pump = std::thread([this, conn, raw] { PumpQuery(conn, raw); });
  } catch (const Error& e) {
    reject(e);
  }
}

void Server::HandleIngest(const std::shared_ptr<Connection>& conn,
                          const std::string& payload) {
  protocol::Ingest ingest = protocol::DecodeIngest(payload);
  protocol::IngestAck ack;
  ack.ingest_id = ingest.ingest_id;
  try {
    if (draining_.load(std::memory_order_acquire)) {
      throw Error("server is draining for shutdown",
                  ErrorCategory::kUnavailable);
    }
    auto dyn = db_->catalog().GetDynamic(ingest.table);
    if (dyn == nullptr) {
      throw Error("table '" + ingest.table + "' is not a live table",
                  ErrorCategory::kPlan);
    }
    auto live = std::dynamic_pointer_cast<LiveTable>(dyn);
    if (live == nullptr) {
      throw Error("table '" + ingest.table + "' does not accept appends",
                  ErrorCategory::kPlan);
    }
    ack.epoch = live->Append(*ingest.rows);
    ack.total_rows = live->stats().rows_appended;
    ack.ok = true;
  } catch (const Error& e) {
    ack.ok = false;
    ack.category = e.category();
    ack.message = e.what();
  }
  WriteFrame(*conn, FrameType::kIngestAck, protocol::Encode(ack),
             options_.write_timeout_ms, options_.max_frame_bytes);
}

void Server::PumpQuery(const std::shared_ptr<Connection>& conn,
                       ConnQuery* query) {
  const uint64_t query_id = query->id;
  bool conn_ok = true;
  bool sent_terminal = false;
  while (auto state = query->handle.Next()) {
    protocol::Snapshot snap;
    snap.query_id = query_id;
    snap.is_final = state->is_final;
    snap.progress = state->progress;
    snap.elapsed_seconds = state->elapsed_seconds;
    snap.frame = state->frame;
    snap.variances = state->variances;
    std::string payload;
    try {
      WAKE_FAILPOINT("net.serialize");
      payload = protocol::Encode(snap);
    } catch (const Error& e) {
      // Serialization failure (net.serialize failpoint, oversized
      // frame): an intermediate snapshot is skippable — the next one
      // supersedes it — but a lost FINAL snapshot must surface as a
      // terminal error, never as a silent hang.
      if (!state->is_final) continue;
      WriteFrame(*conn, FrameType::kQueryError,
                 protocol::Encode(protocol::QueryError{
                     query_id, ErrorCategory::kExecution, 0,
                     std::string("final snapshot failed to serialize: ") +
                         e.what()}),
                 options_.write_timeout_ms, options_.max_frame_bytes);
      sent_terminal = true;
      break;
    }
    if (!WriteFrame(*conn, FrameType::kSnapshot, payload,
                    options_.write_timeout_ms, options_.max_frame_bytes)) {
      conn_ok = false;
      break;
    }
    snapshots_sent_.fetch_add(1);
  }
  if (!conn_ok) {
    // The client is gone (or hopelessly stalled): a disconnected
    // consumer must not keep a query running.
    query->handle.Cancel();
    query->handle.Wait();
  } else if (!sent_terminal) {
    try {
      QueryResult result = query->handle.Result();
      WriteFrame(*conn, FrameType::kQueryDone,
                 protocol::Encode(protocol::QueryDone{
                     query_id, result.status, result.breach,
                     result.progress}),
                 options_.write_timeout_ms, options_.max_frame_bytes);
    } catch (const Error& e) {
      int64_t hint = e.retry_after_ms();
      if (hint == 0 && e.retryable()) hint = options_.retry_hint_ms;
      WriteFrame(*conn, FrameType::kQueryError,
                 protocol::Encode(protocol::QueryError{
                     query_id, e.category(), hint, e.what()}),
                 options_.write_timeout_ms, options_.max_frame_bytes);
    } catch (const std::exception& e) {
      WriteFrame(*conn, FrameType::kQueryError,
                 protocol::Encode(protocol::QueryError{
                     query_id, ErrorCategory::kExecution, 0, e.what()}),
                 options_.write_timeout_ms, options_.max_frame_bytes);
    }
  }
  query->finished.store(true, std::memory_order_release);
  active_queries_.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
  }
  drain_cv_.notify_all();
}

void Server::TeardownConnection(const std::shared_ptr<Connection>& conn) {
  conn->alive.store(false, std::memory_order_release);
  conn->sock.ShutdownBoth();  // unblock any writer stuck in poll
  std::vector<std::unique_ptr<ConnQuery>> queries;
  {
    std::lock_guard<std::mutex> lock(conn->q_mu);
    queries.swap(conn->queries);
  }
  // Dead connection => no consumer: cancel every in-flight handle, then
  // join the pumps (which unblock because the handles' state streams
  // close and writes fail fast on the shut-down socket).
  for (auto& q : queries) q->handle.Cancel();
  for (auto& q : queries) {
    if (q->pump.joinable()) q->pump.join();
  }
  queries.clear();  // ~QueryHandle joins each query's driver thread
  // The descriptor stays open until ~Socket, after the reader is joined:
  // closing it here would race Shutdown()'s ShutdownBoth on the same
  // socket, which could then hit a reused descriptor number.
  conn->done.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
  }
  drain_cv_.notify_all();
}

void Server::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::shared_ptr<Connection>& c) {
                                if (!c->done.load(
                                        std::memory_order_acquire)) {
                                  return false;
                                }
                                if (c->reader.joinable()) c->reader.join();
                                return true;
                              }),
               conns_.end());
}

bool Server::Shutdown(int64_t drain_timeout_ms) {
  if (!running_.exchange(false)) return true;  // idempotent
  draining_.store(true, std::memory_order_release);

  // Phase 0 — freeze the connection set: stop the accept loop BEFORE
  // snapshotting conns_. A connection accepted after the snapshot would
  // otherwise miss every phase below — never told goodbye, never shut
  // down, its reader never joined — and could outlive the server.
  // ShutdownBoth (not Close) wakes the accept poll instantly without
  // racing fd reuse, so a zero-budget drain stays zero-budget.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  // Phase 1 — announce: existing clients learn no new work is welcome
  // and in-flight queries have `drain_timeout_ms` to finish.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  for (const auto& conn : conns) {
    if (conn->done.load(std::memory_order_acquire)) continue;
    WriteFrame(*conn, FrameType::kDrain,
               protocol::Encode(protocol::Drain{drain_timeout_ms}),
               options_.write_timeout_ms, options_.max_frame_bytes);
  }

  // Phase 2 — drain: wait for every in-flight query to reach its natural
  // terminal (final snapshot + done marker) within the budget.
  bool clean;
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    clean = drain_cv_.wait_for(
        lock, std::chrono::milliseconds(std::max<int64_t>(0,
                                                          drain_timeout_ms)),
        [&] { return active_queries_.load() == 0; });
  }

  // Phase 3 — cooperative cancel of the stragglers; their pumps send
  // kQueryError(kCancelled) so clients still get a categorized terminal.
  if (!clean) {
    for (const auto& conn : conns) {
      std::lock_guard<std::mutex> lock(conn->q_mu);
      for (auto& q : conn->queries) q->handle.Cancel();
    }
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(2000),
                       [&] { return active_queries_.load() == 0; });
  }

  // Phase 4 — close shop: say goodbye, shut every socket down (reader
  // threads unwind on EOF), join everything.
  for (const auto& conn : conns) {
    if (conn->done.load(std::memory_order_acquire)) continue;
    WriteFrame(*conn, FrameType::kGoodbye,
               protocol::Encode(protocol::Goodbye{"server shutting down"}),
               options_.write_timeout_ms, options_.max_frame_bytes);
    conn->sock.ShutdownBoth();
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  return clean;
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_rejected = connections_rejected_.load();
  stats.queries_started = queries_started_.load();
  stats.active_queries = active_queries_.load();
  stats.snapshots_sent = snapshots_sent_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.heartbeat_kills = heartbeat_kills_.load();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& c : conns_) {
    if (!c->done.load(std::memory_order_acquire)) ++stats.active_connections;
  }
  return stats;
}

int Serve(Db& db, ServerOptions options) {
  // Block the shutdown signals BEFORE any thread spawns so every engine /
  // server thread inherits the mask and sigwait below is the one place
  // they are delivered.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  Server server(&db, options);
  server.Start();
  std::fprintf(stderr, "wake server listening on %s:%u\n",
               options.host.c_str(), server.port());
  int sig = 0;
  sigwait(&set, &sig);
  std::fprintf(stderr,
               "signal %d: draining (budget %lld ms) ...\n", sig,
               static_cast<long long>(options.drain_timeout_ms));
  bool clean = server.Shutdown(options.drain_timeout_ms);
  std::fprintf(stderr, "drain %s\n",
               clean ? "complete: all queries finished"
                     : "deadline hit: stragglers cancelled");
  return clean ? 0 : 1;
}

}  // namespace wake
