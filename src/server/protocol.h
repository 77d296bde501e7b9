// Message layer of the wake query-serving protocol.
//
// One frame (common/wire.h) carries one message. The conversation:
//
//   client                           server
//   ------                           ------
//   kHello            ->
//                     <-             kWelcome
//   kSubmit(id, sql)  ->
//                     <-             kAccepted(id)        admission ack
//                     <-             kSnapshot(id, ...)*  converging OLA
//                     <-             kSnapshot(id, final)
//                     <-             kQueryDone(id) | kQueryError(id)
//   kCancel(id)       ->                                  (any time)
//   kIngest(id, rows) ->                                  live-table append
//                     <-             kIngestAck(id)
//   kPing/kPong       <->                                 liveness
//                     <-             kDrain               server shutdown
//   kGoodbye          <->                                 orderly close
//
// Submit ids are client-assigned and scoped to the connection; several
// queries stream interleaved over one socket. kQueryError carries the
// wake::Error category plus a retry-after hint so a client can tell
// transient rejections (queue full, admission timeout, drain) from
// deterministic failures (parse, plan, execution).
//
// Every Decode* function is total over arbitrary bytes: malformed input
// throws wake::Error(kProtocol), never crashes — the fuzz-style table in
// tests/server/wire_protocol_test.cc holds this line.
#ifndef WAKE_SERVER_PROTOCOL_H_
#define WAKE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/db.h"
#include "common/socket.h"
#include "common/wire.h"
#include "core/engine.h"
#include "frame/data_frame.h"

namespace wake {
namespace protocol {

/// One frame type per message (the u8 in the frame header).
enum class FrameType : uint8_t {
  kHello = 1,
  kWelcome = 2,
  kSubmit = 3,
  kAccepted = 4,
  kSnapshot = 5,
  kQueryDone = 6,
  kQueryError = 7,
  kCancel = 8,
  kPing = 9,
  kPong = 10,
  kDrain = 11,
  kGoodbye = 12,
  kIngest = 13,
  kIngestAck = 14,
};

const char* FrameTypeName(FrameType type);

struct Hello {
  uint32_t protocol_version = wire::kProtocolVersion;
  std::string client_name;
};

struct Welcome {
  uint32_t protocol_version = wire::kProtocolVersion;
  std::string server_name;
  uint64_t session_id = 0;
};

/// Query submission: sql + the remotable subset of RunOptions (budgets,
/// engine, CI, backpressure bound — everything except the local-only
/// on_state callback).
struct Submit {
  uint64_t query_id = 0;
  std::string sql;
  QueryEngine engine = QueryEngine::kOla;
  bool with_ci = false;
  OnBreach on_breach = OnBreach::kDegrade;
  uint64_t memory_limit_bytes = 0;
  int64_t timeout_ms = 0;
  uint64_t max_rows_scanned = 0;
  /// Client-requested snapshot backlog; the server clamps it into
  /// [1, ServerOptions::max_snapshot_backlog] — a remote stream is never
  /// unbounded (that is the slow-consumer backpressure contract).
  uint64_t max_buffered_states = 0;
  int64_t admission_timeout_ms = 0;
};

struct Accepted {
  uint64_t query_id = 0;
};

/// One OLA snapshot of one query (intermediate or final).
struct Snapshot {
  uint64_t query_id = 0;
  bool is_final = false;
  double progress = 0.0;
  double elapsed_seconds = 0.0;
  DataFramePtr frame;
  std::shared_ptr<const VarianceMap> variances;
};

/// Terminal marker after the last snapshot of a successful run.
struct QueryDone {
  uint64_t query_id = 0;
  ResultStatus status = ResultStatus::kFinal;
  BreachReason breach = BreachReason::kNone;
  double progress = 1.0;
};

/// Terminal marker for a failed (or cancelled) run.
struct QueryError {
  uint64_t query_id = 0;
  ErrorCategory category = ErrorCategory::kExecution;
  int64_t retry_after_ms = 0;
  std::string message;
};

struct Cancel {
  uint64_t query_id = 0;
};

struct Ping {
  uint64_t nonce = 0;
};

/// Server is shutting down: no new submits on this connection; in-flight
/// queries run to completion until `deadline_ms` from now, then are
/// cooperatively cancelled.
struct Drain {
  int64_t deadline_ms = 0;
};

struct Goodbye {
  std::string reason;
};

/// Appends rows to a live (dynamic) table. `ingest_id` is
/// client-assigned and scoped to the connection, like submit ids; the
/// server answers every Ingest with exactly one IngestAck carrying the
/// same id.
struct Ingest {
  uint64_t ingest_id = 0;
  std::string table;
  DataFramePtr rows;
};

/// Outcome of one Ingest. Appends are not idempotent, so a client whose
/// connection dies between Ingest and IngestAck must treat the append
/// as *ambiguous* — the client surfaces that instead of retrying.
struct IngestAck {
  uint64_t ingest_id = 0;
  bool ok = false;
  /// On success: the live-table epoch that first contains the rows, and
  /// the table's lifetime appended-row count after this append.
  uint64_t epoch = 0;
  uint64_t total_rows = 0;
  /// On failure: the server-side error.
  ErrorCategory category = ErrorCategory::kExecution;
  std::string message;
};

// --- payload codecs ------------------------------------------------------

std::string Encode(const Hello& msg);
std::string Encode(const Welcome& msg);
std::string Encode(const Submit& msg);
std::string Encode(const Accepted& msg);
std::string Encode(const Snapshot& msg);
std::string Encode(const QueryDone& msg);
std::string Encode(const QueryError& msg);
std::string Encode(const Cancel& msg);
std::string Encode(const Ping& msg);  // payload shared by kPing and kPong
std::string Encode(const Drain& msg);
std::string Encode(const Goodbye& msg);
std::string Encode(const Ingest& msg);
std::string Encode(const IngestAck& msg);

Hello DecodeHello(const std::string& payload);
Welcome DecodeWelcome(const std::string& payload);
Submit DecodeSubmit(const std::string& payload);
Accepted DecodeAccepted(const std::string& payload);
Snapshot DecodeSnapshot(const std::string& payload);
QueryDone DecodeQueryDone(const std::string& payload);
QueryError DecodeQueryError(const std::string& payload);
Cancel DecodeCancel(const std::string& payload);
Ping DecodePing(const std::string& payload);
Drain DecodeDrain(const std::string& payload);
Goodbye DecodeGoodbye(const std::string& payload);
Ingest DecodeIngest(const std::string& payload);
IngestAck DecodeIngestAck(const std::string& payload);

/// Rebuilds the wake::Error a QueryError frame describes (category,
/// retry-after hint preserved; unknown category bytes decode as
/// kExecution, i.e. fatal).
Error ToError(const QueryError& msg);

/// DataFrame <-> bytes. Values survive bit-for-bit (doubles are raw IEEE
/// bit patterns); strings travel as bytes and decode interned into a
/// fresh dict per column, so the sender's codes never matter. Decode is
/// bounds-checked against the payload, so forged row counts fail with
/// kProtocol before any allocation.
void EncodeDataFrame(const DataFrame& df, wire::WireWriter* writer);
DataFrame DecodeDataFrame(wire::WireReader* reader);

void EncodeSchema(const Schema& schema, wire::WireWriter* writer);
Schema DecodeSchema(wire::WireReader* reader);

// --- frame I/O -----------------------------------------------------------

/// Writes one frame (header + CRC + payload) within `timeout_ms`.
/// Throws wake::Error(kNetwork) on stall/reset, kProtocol if the payload
/// exceeds max_frame_bytes.
void SendFrame(const net::Socket& sock, FrameType type,
               const std::string& payload, int64_t timeout_ms,
               size_t max_frame_bytes);

struct RecvResult {
  enum class Status : uint8_t { kFrame, kIdle, kEof };
  Status status = Status::kIdle;
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Reads one frame. Waits at most `idle_timeout_ms` for the first byte
/// (kIdle / kEof are normal outcomes there: heartbeat poll / clean
/// close); once a frame has started, the header and payload must land
/// within `io_timeout_ms` or the read fails (kNetwork). Header
/// validation and CRC mismatches throw kProtocol.
RecvResult RecvFrame(const net::Socket& sock, int64_t idle_timeout_ms,
                     int64_t io_timeout_ms, size_t max_frame_bytes);

}  // namespace protocol
}  // namespace wake

#endif  // WAKE_SERVER_PROTOCOL_H_
