#include "server/protocol.h"

#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"

namespace wake {
namespace protocol {

namespace {

/// Enum bytes are validated on decode: a byte outside the enum's range is
/// a protocol error (enums never round-trip to garbage values).
uint8_t CheckRange(uint8_t v, uint8_t max, const char* what) {
  if (v > max) {
    throw Error(StrFormat("bad %s value %u on the wire", what, v),
                ErrorCategory::kProtocol);
  }
  return v;
}

void EncodeVariances(const std::shared_ptr<const VarianceMap>& variances,
                     wire::WireWriter* w) {
  if (variances == nullptr) {
    w->U32(0);
    return;
  }
  w->U32(static_cast<uint32_t>(variances->size()));
  for (const auto& entry : *variances) {
    w->Str(entry.first);
    w->U32(static_cast<uint32_t>(entry.second.size()));
    for (double v : entry.second) w->F64(v);
  }
}

std::shared_ptr<const VarianceMap> DecodeVariances(wire::WireReader* r) {
  uint32_t n = r->U32();
  if (n == 0) return nullptr;
  auto map = std::make_shared<VarianceMap>();
  for (uint32_t i = 0; i < n; ++i) {
    std::string name = r->Str();
    uint32_t len = r->U32();
    r->Require(static_cast<size_t>(len) * 8, "variance vector");
    std::vector<double>& vec = (*map)[std::move(name)];
    vec.reserve(len);
    for (uint32_t k = 0; k < len; ++k) vec.push_back(r->F64());
  }
  return map;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kSubmit: return "submit";
    case FrameType::kAccepted: return "accepted";
    case FrameType::kSnapshot: return "snapshot";
    case FrameType::kQueryDone: return "query-done";
    case FrameType::kQueryError: return "query-error";
    case FrameType::kCancel: return "cancel";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kDrain: return "drain";
    case FrameType::kGoodbye: return "goodbye";
    case FrameType::kIngest: return "ingest";
    case FrameType::kIngestAck: return "ingest-ack";
  }
  return "unknown";
}

// --- schema / frame ------------------------------------------------------

void EncodeSchema(const Schema& schema, wire::WireWriter* w) {
  w->U16(static_cast<uint16_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    w->Str(f.name);
    w->U8(static_cast<uint8_t>(f.type));
    w->U8(f.mutable_attr ? 1 : 0);
  }
  auto names = [&w](const std::vector<std::string>& list) {
    w->U16(static_cast<uint16_t>(list.size()));
    for (const auto& n : list) w->Str(n);
  };
  names(schema.primary_key());
  names(schema.clustering_key());
}

Schema DecodeSchema(wire::WireReader* r) {
  uint16_t nfields = r->U16();
  std::vector<Field> fields;
  fields.reserve(nfields);
  for (uint16_t i = 0; i < nfields; ++i) {
    Field f;
    f.name = r->Str();
    f.type = static_cast<ValueType>(
        CheckRange(r->U8(), static_cast<uint8_t>(ValueType::kBool),
                   "value type"));
    f.mutable_attr = r->U8() != 0;
    fields.push_back(std::move(f));
  }
  Schema schema(std::move(fields));
  auto names = [&r]() {
    uint16_t n = r->U16();
    std::vector<std::string> list;
    list.reserve(n);
    for (uint16_t i = 0; i < n; ++i) list.push_back(r->Str());
    return list;
  };
  schema.set_primary_key(names());
  schema.set_clustering_key(names());
  return schema;
}

void EncodeDataFrame(const DataFrame& df, wire::WireWriter* w) {
  WAKE_FAILPOINT("net.serialize");
  EncodeSchema(df.schema(), w);
  uint64_t rows = df.num_rows();
  w->U64(rows);
  for (size_t c = 0; c < df.num_columns(); ++c) {
    const Column& col = df.column(c);
    bool has_validity = col.has_nulls();
    w->U8(has_validity ? 1 : 0);
    if (has_validity) {
      // Wire format keeps one 0/1 byte per row; expand from the bitmap.
      std::vector<uint8_t> validity(rows);
      col.validity().ToBoolBytes(validity.data());
      w->Bytes(validity.data(), rows);
    }
    if (col.type() == ValueType::kString) {
      for (uint64_t i = 0; i < rows; ++i) {
        w->Str(col.IsNull(i) ? std::string() : col.StringAt(i));
      }
    } else if (IsIntPhysical(col.type())) {
      for (uint64_t i = 0; i < rows; ++i) w->I64(col.ints()[i]);
    } else {
      for (uint64_t i = 0; i < rows; ++i) w->F64(col.doubles()[i]);
    }
  }
}

DataFrame DecodeDataFrame(wire::WireReader* r) {
  Schema schema = DecodeSchema(r);
  DataFrame df(schema);
  uint64_t rows = r->U64();
  // Every row costs at least one payload byte per column (validity or
  // data), so an honest frame satisfies this before any allocation.
  if (schema.num_fields() > 0) r->Require(rows, "rows");
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    Column* col = df.mutable_column(c);
    bool has_validity = r->U8() != 0;
    std::vector<uint8_t> validity;
    if (has_validity) {
      r->Require(rows, "validity mask");
      validity.resize(rows);
      r->Bytes(validity.data(), rows);
    }
    if (col->type() == ValueType::kString) {
      // Each string costs at least its u32 length prefix; without this
      // bound a forged row count would amplify a small frame into a
      // code-per-row reserve before the first StrView() throws. Rows intern
      // into a fresh dict per column; null rows hold kNullCode.
      r->Require(rows * 4, "string column");
      col->Reserve(rows);
      for (uint64_t i = 0; i < rows; ++i) {
        std::string_view s = r->StrView();
        if (has_validity && validity[i] == 0) {
          col->AppendNull();
        } else {
          col->AppendString(s);
        }
      }
    } else if (IsIntPhysical(col->type())) {
      r->Require(rows * 8, "int column");
      auto* ints = col->mutable_ints();
      ints->reserve(rows);
      for (uint64_t i = 0; i < rows; ++i) ints->push_back(r->I64());
    } else {
      r->Require(rows * 8, "float column");
      auto* doubles = col->mutable_doubles();
      doubles->reserve(rows);
      for (uint64_t i = 0; i < rows; ++i) doubles->push_back(r->F64());
    }
    if (has_validity) col->set_validity(std::move(validity));
  }
  return df;
}

// --- message payloads ----------------------------------------------------

std::string Encode(const Hello& msg) {
  wire::WireWriter w;
  w.U32(msg.protocol_version);
  w.Str(msg.client_name);
  return w.Take();
}

Hello DecodeHello(const std::string& payload) {
  wire::WireReader r(payload);
  Hello msg;
  msg.protocol_version = r.U32();
  msg.client_name = r.Str();
  return msg;
}

std::string Encode(const Welcome& msg) {
  wire::WireWriter w;
  w.U32(msg.protocol_version);
  w.Str(msg.server_name);
  w.U64(msg.session_id);
  return w.Take();
}

Welcome DecodeWelcome(const std::string& payload) {
  wire::WireReader r(payload);
  Welcome msg;
  msg.protocol_version = r.U32();
  msg.server_name = r.Str();
  msg.session_id = r.U64();
  return msg;
}

std::string Encode(const Submit& msg) {
  wire::WireWriter w;
  w.U64(msg.query_id);
  w.Str(msg.sql);
  w.U8(static_cast<uint8_t>(msg.engine));
  w.U8(msg.with_ci ? 1 : 0);
  w.U8(static_cast<uint8_t>(msg.on_breach));
  w.U64(msg.memory_limit_bytes);
  w.I64(msg.timeout_ms);
  w.U64(msg.max_rows_scanned);
  w.U64(msg.max_buffered_states);
  w.I64(msg.admission_timeout_ms);
  return w.Take();
}

Submit DecodeSubmit(const std::string& payload) {
  wire::WireReader r(payload);
  Submit msg;
  msg.query_id = r.U64();
  msg.sql = r.Str();
  msg.engine = static_cast<QueryEngine>(
      CheckRange(r.U8(), static_cast<uint8_t>(QueryEngine::kProgressive),
                 "query engine"));
  msg.with_ci = r.U8() != 0;
  msg.on_breach = static_cast<OnBreach>(
      CheckRange(r.U8(), static_cast<uint8_t>(OnBreach::kFail),
                 "breach policy"));
  msg.memory_limit_bytes = r.U64();
  msg.timeout_ms = r.I64();
  msg.max_rows_scanned = r.U64();
  msg.max_buffered_states = r.U64();
  msg.admission_timeout_ms = r.I64();
  return msg;
}

std::string Encode(const Accepted& msg) {
  wire::WireWriter w;
  w.U64(msg.query_id);
  return w.Take();
}

Accepted DecodeAccepted(const std::string& payload) {
  wire::WireReader r(payload);
  Accepted msg;
  msg.query_id = r.U64();
  return msg;
}

std::string Encode(const Snapshot& msg) {
  wire::WireWriter w;
  w.U64(msg.query_id);
  w.U8(msg.is_final ? 1 : 0);
  w.F64(msg.progress);
  w.F64(msg.elapsed_seconds);
  EncodeVariances(msg.variances, &w);
  CheckArg(msg.frame != nullptr, "snapshot without frame");
  EncodeDataFrame(*msg.frame, &w);
  return w.Take();
}

Snapshot DecodeSnapshot(const std::string& payload) {
  wire::WireReader r(payload);
  Snapshot msg;
  msg.query_id = r.U64();
  msg.is_final = r.U8() != 0;
  msg.progress = r.F64();
  msg.elapsed_seconds = r.F64();
  msg.variances = DecodeVariances(&r);
  msg.frame = std::make_shared<DataFrame>(DecodeDataFrame(&r));
  return msg;
}

std::string Encode(const QueryDone& msg) {
  wire::WireWriter w;
  w.U64(msg.query_id);
  w.U8(static_cast<uint8_t>(msg.status));
  w.U8(static_cast<uint8_t>(msg.breach));
  w.F64(msg.progress);
  return w.Take();
}

QueryDone DecodeQueryDone(const std::string& payload) {
  wire::WireReader r(payload);
  QueryDone msg;
  msg.query_id = r.U64();
  msg.status = static_cast<ResultStatus>(
      CheckRange(r.U8(), static_cast<uint8_t>(ResultStatus::kPartialBudget),
                 "result status"));
  msg.breach = static_cast<BreachReason>(
      CheckRange(r.U8(), static_cast<uint8_t>(BreachReason::kSessionMemory),
                 "breach reason"));
  msg.progress = r.F64();
  return msg;
}

std::string Encode(const QueryError& msg) {
  wire::WireWriter w;
  w.U64(msg.query_id);
  w.U8(static_cast<uint8_t>(msg.category));
  w.I64(msg.retry_after_ms);
  w.Str(msg.message);
  return w.Take();
}

QueryError DecodeQueryError(const std::string& payload) {
  wire::WireReader r(payload);
  QueryError msg;
  msg.query_id = r.U64();
  // Unknown categories (a newer peer) decode as kExecution: fatal is the
  // safe default for an error we cannot classify.
  uint8_t raw = r.U8();
  msg.category = raw > static_cast<uint8_t>(ErrorCategory::kUnavailable)
                     ? ErrorCategory::kExecution
                     : static_cast<ErrorCategory>(raw);
  msg.retry_after_ms = r.I64();
  msg.message = r.Str();
  return msg;
}

Error ToError(const QueryError& msg) {
  Error e(msg.message, msg.category);
  e.set_retry_after_ms(msg.retry_after_ms);
  return e;
}

std::string Encode(const Cancel& msg) {
  wire::WireWriter w;
  w.U64(msg.query_id);
  return w.Take();
}

Cancel DecodeCancel(const std::string& payload) {
  wire::WireReader r(payload);
  Cancel msg;
  msg.query_id = r.U64();
  return msg;
}

std::string Encode(const Ping& msg) {
  wire::WireWriter w;
  w.U64(msg.nonce);
  return w.Take();
}

Ping DecodePing(const std::string& payload) {
  wire::WireReader r(payload);
  Ping msg;
  msg.nonce = r.U64();
  return msg;
}

std::string Encode(const Drain& msg) {
  wire::WireWriter w;
  w.I64(msg.deadline_ms);
  return w.Take();
}

Drain DecodeDrain(const std::string& payload) {
  wire::WireReader r(payload);
  Drain msg;
  msg.deadline_ms = r.I64();
  return msg;
}

std::string Encode(const Goodbye& msg) {
  wire::WireWriter w;
  w.Str(msg.reason);
  return w.Take();
}

Goodbye DecodeGoodbye(const std::string& payload) {
  wire::WireReader r(payload);
  Goodbye msg;
  msg.reason = r.Str();
  return msg;
}

std::string Encode(const Ingest& msg) {
  wire::WireWriter w;
  w.U64(msg.ingest_id);
  w.Str(msg.table);
  EncodeDataFrame(msg.rows != nullptr ? *msg.rows : DataFrame(), &w);
  return w.Take();
}

Ingest DecodeIngest(const std::string& payload) {
  wire::WireReader r(payload);
  Ingest msg;
  msg.ingest_id = r.U64();
  msg.table = r.Str();
  msg.rows = std::make_shared<DataFrame>(DecodeDataFrame(&r));
  return msg;
}

std::string Encode(const IngestAck& msg) {
  wire::WireWriter w;
  w.U64(msg.ingest_id);
  w.U8(msg.ok ? 1 : 0);
  w.U64(msg.epoch);
  w.U64(msg.total_rows);
  w.U8(static_cast<uint8_t>(msg.category));
  w.Str(msg.message);
  return w.Take();
}

IngestAck DecodeIngestAck(const std::string& payload) {
  wire::WireReader r(payload);
  IngestAck msg;
  msg.ingest_id = r.U64();
  msg.ok = r.U8() != 0;
  msg.epoch = r.U64();
  msg.total_rows = r.U64();
  // Same policy as QueryError: unknown category bytes mean a newer
  // peer; classify as fatal.
  uint8_t raw = r.U8();
  msg.category = raw > static_cast<uint8_t>(ErrorCategory::kUnavailable)
                     ? ErrorCategory::kExecution
                     : static_cast<ErrorCategory>(raw);
  msg.message = r.Str();
  return msg;
}

// --- frame I/O -----------------------------------------------------------

void SendFrame(const net::Socket& sock, FrameType type,
               const std::string& payload, int64_t timeout_ms,
               size_t max_frame_bytes) {
  if (payload.size() > max_frame_bytes) {
    throw Error(StrFormat("refusing to send oversized %s frame: %zu bytes "
                          "(limit %zu)",
                          FrameTypeName(type), payload.size(),
                          max_frame_bytes),
                ErrorCategory::kProtocol);
  }
  wire::FrameHeader header;
  header.type = static_cast<uint8_t>(type);
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.crc = wire::Crc32(payload.data(), payload.size());
  // One contiguous buffer, one SendAll: a frame is either fully queued to
  // the kernel or the connection is declared dead — no interleaving with
  // frames written by other threads (callers serialize on a write mutex).
  std::string buf;
  buf.resize(wire::kFrameHeaderBytes);
  wire::EncodeFrameHeader(header, reinterpret_cast<uint8_t*>(&buf[0]));
  buf.append(payload);
  net::SendAll(sock, buf.data(), buf.size(), timeout_ms);
}

RecvResult RecvFrame(const net::Socket& sock, int64_t idle_timeout_ms,
                     int64_t io_timeout_ms, size_t max_frame_bytes) {
  RecvResult result;
  uint8_t header_bytes[wire::kFrameHeaderBytes];
  switch (net::RecvAll(sock, header_bytes, sizeof(header_bytes),
                       idle_timeout_ms, io_timeout_ms)) {
    case net::RecvStatus::kIdle:
      result.status = RecvResult::Status::kIdle;
      return result;
    case net::RecvStatus::kEof:
      result.status = RecvResult::Status::kEof;
      return result;
    case net::RecvStatus::kOk:
      break;
  }
  wire::FrameHeader header =
      wire::DecodeFrameHeader(header_bytes, max_frame_bytes);
  result.payload.resize(header.payload_len);
  if (header.payload_len > 0) {
    // The payload belongs to a frame already in flight: EOF here is a
    // truncated frame (protocol violation), not a clean close.
    switch (net::RecvAll(sock, &result.payload[0], header.payload_len,
                         io_timeout_ms, io_timeout_ms)) {
      case net::RecvStatus::kOk:
        break;
      case net::RecvStatus::kEof:
        throw Error("truncated frame: peer closed mid-payload",
                    ErrorCategory::kProtocol);
      case net::RecvStatus::kIdle:
        throw Error("frame payload timed out", ErrorCategory::kNetwork);
    }
  }
  uint32_t crc = wire::Crc32(result.payload.data(), result.payload.size());
  if (crc != header.crc) {
    throw Error(StrFormat("frame CRC mismatch: got 0x%08x want 0x%08x "
                          "(corrupt stream)",
                          crc, header.crc),
                ErrorCategory::kProtocol);
  }
  if (header.type < static_cast<uint8_t>(FrameType::kHello) ||
      header.type > static_cast<uint8_t>(FrameType::kIngestAck)) {
    throw Error(StrFormat("unknown frame type %u", header.type),
                ErrorCategory::kProtocol);
  }
  result.status = RecvResult::Status::kFrame;
  result.type = static_cast<FrameType>(header.type);
  return result;
}

}  // namespace protocol
}  // namespace wake
