#include "client/client.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "common/strings.h"
#include "server/protocol.h"

namespace wake {

using protocol::FrameType;
using Clock = std::chrono::steady_clock;

namespace {

int64_t MsSince(Clock::time_point then) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               then)
      .count();
}

}  // namespace

/// Shared between the RemoteQuery handle (consumer side) and the client's
/// reader thread (producer side). Self-contained: once terminal, every
/// handle method works without the Client.
struct RemoteQuery::State {
  uint64_t id = 0;
  std::string sql;
  RemoteRunOptions options;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<OlaState> pending;   // received, not yet pulled via Next()
  std::optional<OlaState> last;   // latest snapshot (Result()'s frame)
  bool accepted = false;          // server sent kAccepted
  bool terminal = false;
  bool cancel_requested = false;
  ResultStatus status = ResultStatus::kFinal;
  BreachReason breach = BreachReason::kNone;
  double progress = 1.0;
  std::optional<Error> error;

  /// The kSubmit payload reproducing this query (used for the initial
  /// send and for safe resubmission after reconnect).
  protocol::Submit ToSubmit() const {
    protocol::Submit submit;
    submit.query_id = id;
    submit.sql = sql;
    submit.engine = options.engine;
    submit.with_ci = options.with_ci;
    submit.on_breach = options.on_breach;
    submit.memory_limit_bytes = options.memory_limit_bytes;
    submit.timeout_ms = options.timeout_ms;
    submit.max_rows_scanned = options.max_rows_scanned;
    submit.max_buffered_states = options.max_buffered_states;
    submit.admission_timeout_ms = options.admission_timeout_ms;
    return submit;
  }
};

// --- RemoteQuery ---------------------------------------------------------

RemoteQuery::RemoteQuery(Client* client, std::shared_ptr<State> state)
    : client_(client), state_(std::move(state)) {}

RemoteQuery::RemoteQuery(RemoteQuery&& other) noexcept
    : client_(other.client_), state_(std::move(other.state_)) {
  other.client_ = nullptr;
}

RemoteQuery::~RemoteQuery() {
  if (!state_ || !client_) return;
  bool live;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    live = !state_->terminal;
  }
  if (live) Cancel();
}

std::optional<OlaState> RemoteQuery::Next() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock,
                  [&] { return !state_->pending.empty() || state_->terminal; });
  if (state_->pending.empty()) return std::nullopt;
  OlaState state = std::move(state_->pending.front());
  state_->pending.pop_front();
  return state;
}

std::optional<OlaState> RemoteQuery::Next(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait_for(lock, timeout, [&] {
    return !state_->pending.empty() || state_->terminal;
  });
  if (state_->pending.empty()) return std::nullopt;
  OlaState state = std::move(state_->pending.front());
  state_->pending.pop_front();
  return state;
}

void RemoteQuery::Cancel() {
  if (!state_) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->terminal || state_->cancel_requested) return;
    state_->cancel_requested = true;
  }
  if (client_) client_->CancelQuery(state_);
}

void RemoteQuery::Wait() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->terminal; });
}

QueryResult RemoteQuery::Result() {
  Wait();
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->error) throw *state_->error;
  QueryResult result;
  if (state_->last) {
    result.frame = state_->last->frame;
    result.variances = state_->last->variances;
  }
  result.status = state_->status;
  result.breach = state_->breach;
  result.progress = state_->progress;
  return result;
}

DataFrame RemoteQuery::Final() {
  QueryResult result = Result();
  CheckArg(result.frame != nullptr, "query finished without a snapshot");
  return *result.frame;
}

bool RemoteQuery::done() const {
  if (!state_) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->terminal;
}

// --- Client --------------------------------------------------------------

Client::Client(ClientOptions options)
    : options_(std::move(options)), rng_(options_.jitter_seed) {
  reader_ = std::thread([this] { ReaderLoop(); });
}

struct Client::PendingIngest {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  protocol::IngestAck ack;
  std::optional<Error> error;

  void Finish(std::optional<Error> e, protocol::IngestAck a = {}) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (done) return;
      done = true;
      error = std::move(e);
      ack = std::move(a);
    }
    cv.notify_all();
  }
};

Client::~Client() { Close(); }

void Client::Connect() {
  std::unique_lock<std::mutex> lock(mu_);
  if (connected_) return;
  if (stopping_) throw Error("client is closed", ErrorCategory::kCancelled);
  uint64_t epoch = connect_epoch_;
  want_connect_ = true;
  conn_cv_.notify_all();
  state_cv_.wait(lock, [&] {
    return connected_ || connect_epoch_ != epoch || stopping_;
  });
  if (connected_) return;
  if (stopping_) throw Error("client is closed", ErrorCategory::kCancelled);
  throw *connect_error_;
}

void Client::Close() {
  bool first;
  {
    std::lock_guard<std::mutex> lock(mu_);
    first = !stopping_;
    stopping_ = true;
    std::lock_guard<std::mutex> wlock(write_mu_);
    if (first && connected_ && sock_.valid()) {
      try {
        protocol::SendFrame(sock_, FrameType::kGoodbye,
                            protocol::Encode(protocol::Goodbye{"client closing"}),
                            100, options_.max_frame_bytes);
      } catch (const Error&) {
      }
    }
    sock_.ShutdownBoth();  // unblock the reader
  }
  conn_cv_.notify_all();
  state_cv_.notify_all();
  if (reader_.joinable()) reader_.join();
  std::unordered_map<uint64_t, std::shared_ptr<State>> leftover;
  std::vector<std::shared_ptr<State>> orphans;
  std::unordered_map<uint64_t, std::shared_ptr<PendingIngest>> waiting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queries_);
    orphans.swap(resubmit_);
    waiting.swap(ingests_);
    std::lock_guard<std::mutex> wlock(write_mu_);
    sock_.Close();
    connected_ = false;
  }
  Error closed("client closed", ErrorCategory::kCancelled);
  for (auto& entry : leftover) FailQuery(entry.second, closed);
  for (auto& state : orphans) FailQuery(state, closed);
  for (auto& entry : waiting) entry.second->Finish(closed);
}

bool Client::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connected_;
}

bool Client::server_draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

uint64_t Client::session_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_id_;
}

RemoteQuery Client::Submit(const std::string& sql,
                           const RemoteRunOptions& options) {
  Connect();
  auto state = std::make_shared<State>();
  state->sql = sql;
  state->options = options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw Error("client is closed", ErrorCategory::kCancelled);
    state->id = next_query_id_++;
    queries_[state->id] = state;
  }
  // A failed send must never strand the query: if the disconnect was
  // ALREADY processed between Connect() returning and the queries_
  // insert above, the reader has no EOF left to observe, so nothing
  // would ever collect this query and Result() would block forever.
  while (!SendOnWire(static_cast<uint8_t>(FrameType::kSubmit),
                     protocol::Encode(state->ToSubmit()))) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queries_.count(state->id) == 0) break;  // failed/collected already
      if (!connected_) {
        // HandleDisconnect (which flips connected_ and queues un-acked
        // queries under this same lock) either already queued it, or ran
        // before the insert and never saw it — queue it ourselves then.
        if (std::find(resubmit_.begin(), resubmit_.end(), state) ==
            resubmit_.end()) {
          resubmit_.push_back(state);
          conn_cv_.notify_all();
        }
        break;
      }
    }
    // Still (or again) connected: either a reconnect raced the failed
    // send — retry on the new socket — or the reader has not yet turned
    // our shutdown into a disconnect; it will, momentarily.
    std::this_thread::yield();
  }
  return RemoteQuery(this, state);
}

IngestResult Client::Ingest(const std::string& table, const DataFrame& rows) {
  Connect();
  auto pending = std::make_shared<PendingIngest>();
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw Error("client is closed", ErrorCategory::kCancelled);
    id = next_ingest_id_++;
    ingests_[id] = pending;
  }
  protocol::Ingest msg;
  msg.ingest_id = id;
  msg.table = table;
  msg.rows = std::make_shared<DataFrame>(rows);
  // Once any byte of the frame may have reached the server, the append
  // is ambiguous on failure — the whole frame could have been applied
  // even though our write errored. No silent retry, ever.
  Error ambiguous(
      "ingest outcome unknown: connection lost before acknowledgment "
      "(the rows may or may not have been appended)",
      ErrorCategory::kNetwork);
  if (!SendOnWire(static_cast<uint8_t>(FrameType::kIngest),
                  protocol::Encode(msg))) {
    std::lock_guard<std::mutex> lock(mu_);
    ingests_.erase(id);
    throw ambiguous;
  }
  std::unique_lock<std::mutex> plock(pending->mu);
  pending->cv.wait(plock, [&] { return pending->done; });
  if (pending->error) throw *pending->error;
  ingests_acked_.fetch_add(1);
  return IngestResult{pending->ack.epoch, pending->ack.total_rows};
}

QueryResult Client::Execute(const std::string& sql,
                            const RemoteRunOptions& options) {
  // Only the result is read: one snapshot buffered, here and on the server.
  RemoteRunOptions run = options;
  if (run.max_buffered_states == 0) run.max_buffered_states = 1;
  int attempts = std::max(1, options_.backoff.max_attempts);
  for (int attempt = 0;; ++attempt) {
    try {
      RemoteQuery query = Submit(sql, run);
      return query.Result();
    } catch (const Error& e) {
      if (!e.retryable() || attempt + 1 >= attempts) throw;
      execute_retries_.fetch_add(1);
      int64_t delay = std::max(BackoffDelayMs(attempt), e.retry_after_ms());
      std::unique_lock<std::mutex> lock(mu_);
      state_cv_.wait_for(lock, std::chrono::milliseconds(delay),
                         [&] { return stopping_; });
      if (stopping_) {
        throw Error("client is closed", ErrorCategory::kCancelled);
      }
    }
  }
}

ClientStats Client::stats() const {
  ClientStats stats;
  stats.reconnects = reconnects_.load();
  stats.resubmissions = resubmissions_.load();
  stats.execute_retries = execute_retries_.load();
  stats.snapshots_received = snapshots_received_.load();
  stats.ingests_acked = ingests_acked_.load();
  return stats;
}

void Client::ReaderLoop() {
  for (;;) {
    bool do_connect = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      conn_cv_.wait(lock, [&] {
        return stopping_ || connected_ || want_connect_ || !resubmit_.empty();
      });
      if (stopping_) return;
      do_connect = !connected_;
    }
    if (do_connect) {
      TryConnectCycle();
      continue;
    }
    RecvLoop();
  }
}

bool Client::TryConnectCycle() {
  Error last("connect never attempted", ErrorCategory::kNetwork);
  int attempts = std::max(1, options_.backoff.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      int64_t delay =
          std::max(BackoffDelayMs(attempt - 1), last.retry_after_ms());
      std::unique_lock<std::mutex> lock(mu_);
      conn_cv_.wait_for(lock, std::chrono::milliseconds(delay),
                        [&] { return stopping_; });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return false;
    }
    try {
      net::Socket sock = net::Connect(options_.host, options_.port,
                                      options_.connect_timeout_ms);
      protocol::Hello hello;
      hello.client_name = options_.client_name;
      protocol::SendFrame(sock, FrameType::kHello, protocol::Encode(hello),
                          options_.io_timeout_ms, options_.max_frame_bytes);
      protocol::RecvResult r =
          protocol::RecvFrame(sock, options_.connect_timeout_ms,
                              options_.io_timeout_ms, options_.max_frame_bytes);
      if (r.status != protocol::RecvResult::Status::kFrame) {
        throw Error("server closed the connection during handshake",
                    ErrorCategory::kNetwork);
      }
      if (r.type == FrameType::kGoodbye) {
        protocol::Goodbye bye = protocol::DecodeGoodbye(r.payload);
        throw Error("server refused connection: " + bye.reason,
                    ErrorCategory::kUnavailable);
      }
      if (r.type != FrameType::kWelcome) {
        throw Error(StrFormat("expected kWelcome, got %s",
                              protocol::FrameTypeName(r.type)),
                    ErrorCategory::kProtocol);
      }
      protocol::Welcome welcome = protocol::DecodeWelcome(r.payload);
      if (welcome.protocol_version != wire::kProtocolVersion) {
        throw Error(StrFormat("server speaks protocol version %u, not %u",
                              welcome.protocol_version,
                              wire::kProtocolVersion),
                    ErrorCategory::kProtocol);
      }
      std::vector<std::shared_ptr<State>> to_resubmit;
      {
        std::lock_guard<std::mutex> lock(mu_);
        std::lock_guard<std::mutex> wlock(write_mu_);
        sock_ = std::move(sock);
        connected_ = true;
        draining_ = false;
        want_connect_ = false;
        session_id_ = welcome.session_id;
        to_resubmit.swap(resubmit_);
        if (connections_made_.fetch_add(1) > 0) reconnects_.fetch_add(1);
      }
      last_inbound_ = Clock::now();
      last_ping_ = last_inbound_;
      for (const auto& state : to_resubmit) {
        bool cancelled;
        {
          std::lock_guard<std::mutex> slock(state->mu);
          cancelled = state->cancel_requested;
        }
        if (cancelled) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            queries_.erase(state->id);
          }
          FailQuery(state,
                    Error("query cancelled", ErrorCategory::kCancelled));
          continue;
        }
        // Never admitted => never ran: resubmission cannot duplicate work.
        if (SendOnWire(static_cast<uint8_t>(FrameType::kSubmit),
                       protocol::Encode(state->ToSubmit()))) {
          resubmissions_.fetch_add(1);
        }
        // On failure the socket is down again; the recv loop EOFs at once
        // and recollects this still-un-acked query for the next cycle.
      }
      state_cv_.notify_all();
      return true;
    } catch (const Error& e) {
      last = e;
      if (e.category() == ErrorCategory::kProtocol) break;  // hopeless
    }
  }
  // Exhausted: report to Connect() waiters and fail the queries that were
  // waiting on this reconnect.
  std::vector<std::shared_ptr<State>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connect_error_ = last;
    ++connect_epoch_;
    want_connect_ = false;
    orphans.swap(resubmit_);
    for (const auto& state : orphans) queries_.erase(state->id);
  }
  for (const auto& state : orphans) FailQuery(state, last);
  state_cv_.notify_all();
  return false;
}

void Client::RecvLoop() {
  try {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) return;
      }
      protocol::RecvResult r = protocol::RecvFrame(
          sock_, options_.heartbeat_interval_ms, options_.io_timeout_ms,
          options_.max_frame_bytes);
      if (r.status == protocol::RecvResult::Status::kEof) {
        throw Error("server closed the connection", ErrorCategory::kNetwork);
      }
      Clock::time_point now = Clock::now();
      if (r.status == protocol::RecvResult::Status::kIdle) {
        bool in_flight;
        {
          std::lock_guard<std::mutex> lock(mu_);
          in_flight = !queries_.empty();
        }
        int64_t silent_ms = MsSince(last_inbound_);
        if (in_flight && silent_ms > options_.heartbeat_timeout_ms) {
          throw Error(StrFormat("server unresponsive for %lld ms",
                                static_cast<long long>(silent_ms)),
                      ErrorCategory::kNetwork);
        }
        if (MsSince(last_ping_) >= options_.heartbeat_interval_ms) {
          last_ping_ = now;
          protocol::Ping ping;
          ping.nonce = ++ping_nonce_;
          SendOnWire(static_cast<uint8_t>(FrameType::kPing),
                     protocol::Encode(ping));
        }
        continue;
      }
      last_inbound_ = now;
      if (r.type == FrameType::kGoodbye) {
        protocol::Goodbye bye = protocol::DecodeGoodbye(r.payload);
        throw Error("server closed the session: " +
                        (bye.reason.empty() ? "goodbye" : bye.reason),
                    ErrorCategory::kUnavailable);
      }
      RouteFrame(static_cast<uint8_t>(r.type), r.payload);
    }
  } catch (const Error& e) {
    // Whatever broke the read loop is, from a query's perspective, a
    // transport disconnection: re-categorize anything that is neither
    // already retryable nor a protocol violation (kProtocol stays fatal —
    // a corrupt peer is not fixed by reconnecting) as kNetwork so the
    // retry/backoff machinery engages. Injected faults (net.read) land
    // here as kExecution and must not poison acked queries as
    // non-retryable.
    if (e.retryable() || e.category() == ErrorCategory::kProtocol) {
      HandleDisconnect(e);
    } else {
      HandleDisconnect(Error(std::string("connection lost: ") + e.what(),
                             ErrorCategory::kNetwork));
    }
  }
}

void Client::RouteFrame(uint8_t raw_type, const std::string& payload) {
  auto lookup = [&](uint64_t id, bool take) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) return std::shared_ptr<State>();
    std::shared_ptr<State> state = it->second;
    if (take) queries_.erase(it);
    return state;
  };
  switch (static_cast<FrameType>(raw_type)) {
    case FrameType::kPing:
      SendOnWire(static_cast<uint8_t>(FrameType::kPong),
                 protocol::Encode(protocol::DecodePing(payload)));
      return;
    case FrameType::kPong:
      return;
    case FrameType::kDrain: {
      std::lock_guard<std::mutex> lock(mu_);
      draining_ = true;
      return;
    }
    case FrameType::kAccepted: {
      protocol::Accepted accepted = protocol::DecodeAccepted(payload);
      std::shared_ptr<State> state = lookup(accepted.query_id, false);
      if (!state) return;
      std::lock_guard<std::mutex> lock(state->mu);
      state->accepted = true;
      return;
    }
    case FrameType::kSnapshot: {
      protocol::Snapshot snap = protocol::DecodeSnapshot(payload);
      std::shared_ptr<State> state = lookup(snap.query_id, false);
      if (!state) return;  // released or cancelled handle; drop silently
      snapshots_received_.fetch_add(1);
      OlaState ola;
      ola.frame = snap.frame;
      ola.progress = snap.progress;
      ola.is_final = snap.is_final;
      ola.elapsed_seconds = snap.elapsed_seconds;
      ola.variances = snap.variances;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->last = ola;
        // Snapshots are cumulative, so past the cap the oldest unread one
        // goes, as in QueryHandle; a final is never dropped.
        size_t cap = state->options.max_buffered_states;
        while (cap > 0 && state->pending.size() >= cap &&
               !state->pending.front().is_final) {
          state->pending.pop_front();
        }
        state->pending.push_back(std::move(ola));
      }
      state->cv.notify_all();
      return;
    }
    case FrameType::kQueryDone: {
      protocol::QueryDone done = protocol::DecodeQueryDone(payload);
      std::shared_ptr<State> state = lookup(done.query_id, true);
      if (!state) return;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->status = done.status;
        state->breach = done.breach;
        state->progress = done.progress;
        state->terminal = true;
      }
      state->cv.notify_all();
      return;
    }
    case FrameType::kQueryError: {
      protocol::QueryError err = protocol::DecodeQueryError(payload);
      std::shared_ptr<State> state = lookup(err.query_id, true);
      if (!state) return;
      FailQuery(state, protocol::ToError(err));
      return;
    }
    case FrameType::kIngestAck: {
      protocol::IngestAck ack = protocol::DecodeIngestAck(payload);
      std::shared_ptr<PendingIngest> pending;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = ingests_.find(ack.ingest_id);
        if (it == ingests_.end()) return;  // abandoned waiter; drop
        pending = it->second;
        ingests_.erase(it);
      }
      if (ack.ok) {
        pending->Finish(std::nullopt, std::move(ack));
      } else {
        pending->Finish(Error(ack.message, ack.category));
      }
      return;
    }
    default:
      throw Error(StrFormat("unexpected %s frame from server",
                            protocol::FrameTypeName(
                                static_cast<FrameType>(raw_type))),
                  ErrorCategory::kProtocol);
  }
}

void Client::HandleDisconnect(const Error& cause) {
  std::vector<std::shared_ptr<State>> acked;
  std::vector<std::shared_ptr<PendingIngest>> lost_ingests;
  bool have_resubmits = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::lock_guard<std::mutex> wlock(write_mu_);
    sock_.Close();
    // Every in-flight append is now ambiguous: the frame may have been
    // applied before the connection died. Never auto-resent.
    for (auto& entry : ingests_) lost_ingests.push_back(entry.second);
    ingests_.clear();
    connected_ = false;
    session_id_ = 0;
    for (auto it = queries_.begin(); it != queries_.end();) {
      std::shared_ptr<State>& state = it->second;
      bool is_acked;
      {
        std::lock_guard<std::mutex> slock(state->mu);
        is_acked = state->accepted || state->terminal;
      }
      if (is_acked) {
        // The server may still be running this query; whether to re-run
        // is the caller's call (Execute() retries, Submit() callers see a
        // retryable error).
        acked.push_back(state);
        it = queries_.erase(it);
      } else {
        // Never admitted: queue for automatic, safe resubmission. Stays
        // in queries_ under the same id so frames route after reconnect.
        resubmit_.push_back(state);
        have_resubmits = true;
        ++it;
      }
    }
  }
  Error error = cause;
  if (error.retryable() && error.retry_after_ms() == 0) {
    error.set_retry_after_ms(options_.backoff.initial_ms);
  }
  for (const auto& state : acked) FailQuery(state, error);
  for (const auto& pending : lost_ingests) {
    pending->Finish(
        Error("ingest outcome unknown: connection lost before "
              "acknowledgment (the rows may or may not have been "
              "appended): " +
                  std::string(cause.what()),
              ErrorCategory::kNetwork));
  }
  if (have_resubmits) conn_cv_.notify_all();
}

bool Client::SendOnWire(uint8_t type, const std::string& payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!sock_.valid()) return false;
  try {
    protocol::SendFrame(sock_, static_cast<FrameType>(type), payload,
                        options_.io_timeout_ms, options_.max_frame_bytes);
    return true;
  } catch (const Error&) {
    sock_.ShutdownBoth();  // reader observes EOF and recycles
    return false;
  }
}

void Client::CancelQuery(const std::shared_ptr<State>& state) {
  bool send;
  {
    std::lock_guard<std::mutex> lock(mu_);
    send = connected_;
    if (!send) {
      resubmit_.erase(std::remove(resubmit_.begin(), resubmit_.end(), state),
                      resubmit_.end());
      queries_.erase(state->id);
    }
  }
  if (send) {
    // Best-effort: the server answers with kQueryError(kCancelled).
    SendOnWire(static_cast<uint8_t>(FrameType::kCancel),
               protocol::Encode(protocol::Cancel{state->id}));
  } else {
    FailQuery(state, Error("query cancelled", ErrorCategory::kCancelled));
  }
}

int64_t Client::BackoffDelayMs(int attempt) {
  double base = static_cast<double>(options_.backoff.initial_ms);
  double cap = static_cast<double>(std::max<int64_t>(options_.backoff.max_ms,
                                                     options_.backoff.initial_ms));
  for (int i = 0; i < attempt && base < cap; ++i) {
    base *= options_.backoff.multiplier;
  }
  base = std::min(base, cap);
  double factor = 1.0;
  double jitter = std::min(std::max(options_.backoff.jitter, 0.0), 1.0);
  if (jitter > 0.0) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    factor = rng_.UniformDouble(1.0 - jitter, 1.0 + jitter);
  }
  return std::max<int64_t>(1, std::llround(base * factor));
}

void Client::FailQuery(const std::shared_ptr<State>& state, const Error& e) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->terminal) return;
    state->error = e;
    state->terminal = true;
  }
  state->cv.notify_all();
}

}  // namespace wake
