// Wire + message codec robustness: every message type survives a
// round trip bit-for-bit, and every malformed input — truncated,
// corrupted, oversized, out-of-range — fails with a categorized
// wake::Error(kProtocol), never a crash or an over-allocation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/socket.h"
#include "common/wire.h"
#include "frame/data_frame.h"
#include "server/protocol.h"

namespace wake {
namespace {

using protocol::FrameType;

DataFrame MakeFrame() {
  Schema schema({{"k", ValueType::kInt64},
                 {"v", ValueType::kFloat64},
                 {"s", ValueType::kString}});
  DataFrame df(schema);
  *df.mutable_column(0) = Column::FromInts({3, 1, 2, 1});
  *df.mutable_column(1) =
      Column::FromDoubles({30.5, 1.0 / 3.0, -0.0, 6.02214076e23});
  *df.mutable_column(2) = Column::FromStrings({"c", "", "b", "a"});
  df.mutable_column(1)->SetNull(2);
  df.mutable_column(2)->SetNull(1);
  return df;
}

// Both CRC-32 paths: Crc32 as this CPU runs it (carry-less-multiply
// folding where the CPU has it) and the slice-by-8 table path.
struct CrcPath {
  const char* name;
  uint32_t (*crc)(const void*, size_t);
};
const CrcPath kCrcPaths[] = {{"Crc32", wire::Crc32},
                             {"Crc32Table", wire::internal::Crc32Table}};

// CRC-32 of every prefix of p[0, n), one bit at a time over the reflected
// IEEE polynomial: the definition both paths must reproduce.
std::vector<uint32_t> BitwisePrefixCrcs(const uint8_t* p, size_t n) {
  std::vector<uint32_t> out(n + 1);
  uint32_t c = 0xFFFFFFFFu;
  out[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    out[i + 1] = ~c;
  }
  return out;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(WireTest, Crc32KnownVector) {
  // The IEEE CRC-32 check value, and values checked against Python's
  // zlib.crc32.
  const std::vector<uint8_t> zeros(32, 0x00);
  const std::vector<uint8_t> ones(32, 0xFF);
  for (const CrcPath& path : kCrcPaths) {
    SCOPED_TRACE(path.name);
    EXPECT_EQ(path.crc("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(path.crc("", 0), 0u);
    EXPECT_EQ(path.crc(zeros.data(), zeros.size()), 0x190A55ADu);
    EXPECT_EQ(path.crc(ones.data(), ones.size()), 0xFF6CAB0Bu);
  }
}

TEST(WireTest, Crc32MatchesBitwiseAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> bytes = RandomBytes(1024 + 16, 7);
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint8_t* p = bytes.data() + offset;
    const std::vector<uint32_t> want = BitwisePrefixCrcs(p, 1024);
    for (const CrcPath& path : kCrcPaths) {
      for (size_t n = 0; n <= 1024; ++n) {
        ASSERT_EQ(path.crc(p, n), want[n])
            << path.name << " offset " << offset << " length " << n;
      }
    }
  }
}

TEST(WireTest, Crc32MatchesBitwiseAroundFoldBoundaries) {
  // The folding path takes 64-byte steps, then 16-byte steps, then
  // leaves the last 0-15 bytes to the table: probe each seam.
  const size_t max = 64 * 1024;
  const std::vector<uint8_t> bytes = RandomBytes(max + 16, 11);
  const std::vector<uint32_t> want = BitwisePrefixCrcs(bytes.data(), max + 16);
  for (size_t k = 1; k * 64 <= max; ++k) {
    for (size_t n : {k * 64 - 1, k * 64, k * 64 + 1, k * 64 + 15,
                     k * 64 + 16}) {
      for (const CrcPath& path : kCrcPaths) {
        ASSERT_EQ(path.crc(bytes.data(), n), want[n])
            << path.name << " length " << n;
      }
    }
  }
}

TEST(WireTest, FrameHeaderRoundTrip) {
  wire::FrameHeader header;
  header.type = 5;
  header.payload_len = 1234;
  header.crc = 0xDEADBEEF;
  uint8_t buf[wire::kFrameHeaderBytes];
  wire::EncodeFrameHeader(header, buf);
  wire::FrameHeader back = wire::DecodeFrameHeader(buf, 1u << 20);
  EXPECT_EQ(back.version, wire::kProtocolVersion);
  EXPECT_EQ(back.type, 5);
  EXPECT_EQ(back.payload_len, 1234u);
  EXPECT_EQ(back.crc, 0xDEADBEEFu);
}

TEST(WireTest, FrameHeaderRejectsGarbage) {
  wire::FrameHeader header;
  header.type = 1;
  header.payload_len = 16;
  uint8_t good[wire::kFrameHeaderBytes];
  wire::EncodeFrameHeader(header, good);

  struct Case {
    const char* name;
    void (*corrupt)(uint8_t*);
    size_t max_payload;
  };
  const Case cases[] = {
      {"bad magic", [](uint8_t* b) { b[0] ^= 0xFF; }, 1u << 20},
      {"bad version", [](uint8_t* b) { b[4] = 99; }, 1u << 20},
      {"reserved bits set", [](uint8_t* b) { b[6] = 1; }, 1u << 20},
      {"oversized payload", [](uint8_t*) {}, 8},  // 16 > max_payload 8
  };
  for (const Case& c : cases) {
    uint8_t buf[wire::kFrameHeaderBytes];
    std::memcpy(buf, good, sizeof(buf));
    c.corrupt(buf);
    try {
      wire::DecodeFrameHeader(buf, c.max_payload);
      FAIL() << c.name << ": expected kProtocol";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kProtocol) << c.name;
      EXPECT_FALSE(e.retryable()) << c.name;
    }
  }
}

TEST(WireTest, ReaderBoundsChecked) {
  wire::WireWriter w;
  w.U32(7);
  std::string buf = w.Take();
  wire::WireReader r(buf.data(), buf.size());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_THROW(r.U8(), Error);
  try {
    wire::WireReader r2(buf.data(), buf.size());
    r2.U64();
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kProtocol);
  }
}

TEST(ProtocolTest, ControlMessagesRoundTrip) {
  protocol::Hello hello;
  hello.client_name = "dashboard-7";
  protocol::Hello hello2 = protocol::DecodeHello(protocol::Encode(hello));
  EXPECT_EQ(hello2.protocol_version, wire::kProtocolVersion);
  EXPECT_EQ(hello2.client_name, "dashboard-7");

  protocol::Welcome welcome;
  welcome.server_name = "wake";
  welcome.session_id = 42;
  protocol::Welcome welcome2 =
      protocol::DecodeWelcome(protocol::Encode(welcome));
  EXPECT_EQ(welcome2.server_name, "wake");
  EXPECT_EQ(welcome2.session_id, 42u);

  protocol::Accepted accepted;
  accepted.query_id = 9;
  EXPECT_EQ(protocol::DecodeAccepted(protocol::Encode(accepted)).query_id, 9u);

  protocol::Cancel cancel;
  cancel.query_id = 11;
  EXPECT_EQ(protocol::DecodeCancel(protocol::Encode(cancel)).query_id, 11u);

  protocol::Ping ping;
  ping.nonce = 77;
  EXPECT_EQ(protocol::DecodePing(protocol::Encode(ping)).nonce, 77u);

  protocol::Drain drain;
  drain.deadline_ms = 2500;
  EXPECT_EQ(protocol::DecodeDrain(protocol::Encode(drain)).deadline_ms, 2500);

  protocol::Goodbye goodbye;
  goodbye.reason = "drained";
  EXPECT_EQ(protocol::DecodeGoodbye(protocol::Encode(goodbye)).reason,
            "drained");
}

TEST(ProtocolTest, SubmitRoundTrip) {
  protocol::Submit submit;
  submit.query_id = 3;
  submit.sql = "SELECT COUNT(*) FROM lineitem";
  submit.engine = QueryEngine::kExact;
  submit.with_ci = true;
  submit.on_breach = OnBreach::kFail;
  submit.memory_limit_bytes = 1 << 20;
  submit.timeout_ms = 1500;
  submit.max_rows_scanned = 123456;
  submit.max_buffered_states = 3;
  submit.admission_timeout_ms = 250;
  protocol::Submit back = protocol::DecodeSubmit(protocol::Encode(submit));
  EXPECT_EQ(back.query_id, 3u);
  EXPECT_EQ(back.sql, submit.sql);
  EXPECT_EQ(back.engine, QueryEngine::kExact);
  EXPECT_TRUE(back.with_ci);
  EXPECT_EQ(back.on_breach, OnBreach::kFail);
  EXPECT_EQ(back.memory_limit_bytes, submit.memory_limit_bytes);
  EXPECT_EQ(back.timeout_ms, 1500);
  EXPECT_EQ(back.max_rows_scanned, 123456u);
  EXPECT_EQ(back.max_buffered_states, 3u);
  EXPECT_EQ(back.admission_timeout_ms, 250);
}

TEST(ProtocolTest, SnapshotRoundTripBitIdentical) {
  protocol::Snapshot snap;
  snap.query_id = 8;
  snap.is_final = true;
  snap.progress = 0.625;
  snap.elapsed_seconds = 1.5;
  DataFrame frame = MakeFrame();
  frame.Append(MakeFrame().Slice(0, 1));  // repeats "c"
  snap.frame = std::make_shared<const DataFrame>(std::move(frame));
  auto variances = std::make_shared<VarianceMap>();
  (*variances)["v"] = {0.5, 0.25, 1.0 / 7.0, 0.0};
  snap.variances = variances;

  const std::string bytes = protocol::Encode(snap);
  protocol::Snapshot back = protocol::DecodeSnapshot(bytes);
  EXPECT_EQ(back.query_id, 8u);
  EXPECT_TRUE(back.is_final);
  EXPECT_EQ(back.progress, 0.625);
  EXPECT_EQ(back.elapsed_seconds, 1.5);
  std::string diff;
  ASSERT_TRUE(back.frame != nullptr);
  EXPECT_TRUE(back.frame->ApproxEquals(*snap.frame, 0.0, &diff)) << diff;
  EXPECT_TRUE(back.frame->column(1).IsNull(2));
  EXPECT_TRUE(back.frame->column(2).IsNull(1));
  ASSERT_TRUE(back.variances != nullptr);
  ASSERT_EQ(back.variances->count("v"), 1u);
  EXPECT_EQ(back.variances->at("v"), variances->at("v"));
  // Strings decode interned: one dict entry per distinct non-null value,
  // and the null row holds the null code.
  const Column& s = back.frame->column(2);
  ASSERT_TRUE(s.is_dict());
  EXPECT_EQ(s.dict()->size(), 3u);  // "c", "b", "a"
  EXPECT_EQ(s.codes()[0], s.codes()[4]);
  EXPECT_EQ(s.codes()[1], Column::kNullCode);
  // Re-encoding the decoded snapshot gives the same bytes.
  EXPECT_EQ(protocol::Encode(back), bytes);
}

TEST(ProtocolTest, TerminalMessagesRoundTrip) {
  protocol::QueryDone done;
  done.query_id = 4;
  done.status = ResultStatus::kPartialBudget;
  done.breach = BreachReason::kDeadline;
  done.progress = 0.375;
  protocol::QueryDone done2 = protocol::DecodeQueryDone(protocol::Encode(done));
  EXPECT_EQ(done2.status, ResultStatus::kPartialBudget);
  EXPECT_EQ(done2.breach, BreachReason::kDeadline);
  EXPECT_EQ(done2.progress, 0.375);

  protocol::QueryError err;
  err.query_id = 4;
  err.category = ErrorCategory::kQueueFull;
  err.retry_after_ms = 150;
  err.message = "admission queue full";
  protocol::QueryError err2 =
      protocol::DecodeQueryError(protocol::Encode(err));
  Error rebuilt = protocol::ToError(err2);
  EXPECT_EQ(rebuilt.category(), ErrorCategory::kQueueFull);
  EXPECT_TRUE(rebuilt.retryable());
  EXPECT_EQ(rebuilt.retry_after_ms(), 150);
  EXPECT_STREQ(rebuilt.what(), "admission queue full");
}

// The fuzz-style table: systematically malformed payloads must all throw
// kProtocol. Every prefix of a valid payload is a truncation case; a few
// targeted corruptions cover out-of-range enums and forged sizes.
TEST(ProtocolTest, MalformedPayloadTable) {
  protocol::Submit submit;
  submit.query_id = 1;
  submit.sql = "SELECT 1";
  std::string valid_submit = protocol::Encode(submit);

  protocol::Snapshot snap;
  snap.query_id = 2;
  snap.frame = std::make_shared<const DataFrame>(MakeFrame());
  std::string valid_snapshot = protocol::Encode(snap);

  // Truncations: every strict prefix must be rejected, never crash.
  for (size_t n = 0; n < valid_submit.size(); ++n) {
    try {
      protocol::DecodeSubmit(valid_submit.substr(0, n));
      FAIL() << "submit truncated to " << n << " bytes decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kProtocol) << "at " << n;
    }
  }
  for (size_t n = 0; n < valid_snapshot.size(); n += 3) {
    try {
      protocol::DecodeSnapshot(valid_snapshot.substr(0, n));
      FAIL() << "snapshot truncated to " << n << " bytes decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kProtocol) << "at " << n;
    }
  }

  // Out-of-range enum byte: Submit's engine is the u8 right after
  // query_id (u64) + sql (u32 len + bytes).
  {
    std::string bad = valid_submit;
    size_t engine_off = 8 + 4 + submit.sql.size();
    ASSERT_LT(engine_off, bad.size());
    bad[engine_off] = static_cast<char>(0x7F);
    EXPECT_THROW(protocol::DecodeSubmit(bad), Error);
    try {
      protocol::DecodeSubmit(bad);
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kProtocol);
    }
  }

  // A forged row count must fail the bounds check BEFORE allocating.
  {
    wire::WireWriter w;
    protocol::EncodeSchema(snap.frame->schema(), &w);
    w.U64(0xFFFFFFFFFFFFull);  // claims ~280 trillion rows
    std::string forged = w.Take();
    wire::WireReader r(forged.data(), forged.size());
    try {
      protocol::DecodeDataFrame(&r);
      FAIL() << "forged row count decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kProtocol);
    }
  }

  // Unknown error category byte decodes as kExecution (fatal), not UB.
  {
    protocol::QueryError err;
    err.category = ErrorCategory::kExecution;
    std::string payload = protocol::Encode(err);
    payload[8] = static_cast<char>(0xEE);  // category byte after query_id
    protocol::QueryError back = protocol::DecodeQueryError(payload);
    EXPECT_EQ(back.category, ErrorCategory::kExecution);
    EXPECT_FALSE(protocol::ToError(back).retryable());
  }
}

// Frame I/O over a real loopback socket: CRC corruption, truncation and
// oversize must surface as categorized errors on the receiving side.
class FrameIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    listener_ = net::Listen("127.0.0.1", 0);
    uint16_t port = net::LocalPort(listener_);
    client_ = net::Connect("127.0.0.1", port, 2000);
    server_ = net::Accept(listener_, 2000);
    ASSERT_TRUE(server_.valid());
  }
  void TearDown() override { net::TestSetIoChunk(0); }

  net::Socket listener_, client_, server_;
};

TEST_F(FrameIoTest, SendRecvRoundTrip) {
  protocol::Ping ping;
  ping.nonce = 123;
  protocol::SendFrame(client_, FrameType::kPing, protocol::Encode(ping), 2000,
                      1u << 20);
  protocol::RecvResult r = protocol::RecvFrame(server_, 2000, 2000, 1u << 20);
  ASSERT_EQ(r.status, protocol::RecvResult::Status::kFrame);
  EXPECT_EQ(r.type, FrameType::kPing);
  EXPECT_EQ(protocol::DecodePing(r.payload).nonce, 123u);
}

TEST_F(FrameIoTest, RoundTripSurvivesPartialIo) {
  // Force every send/recv syscall to move at most 3 bytes: headers and
  // payloads arrive torn and must be reassembled.
  net::TestSetIoChunk(3);
  protocol::Snapshot snap;
  snap.query_id = 5;
  snap.frame = std::make_shared<const DataFrame>(MakeFrame());
  std::string payload = protocol::Encode(snap);
  std::thread sender([&] {
    protocol::SendFrame(client_, FrameType::kSnapshot, payload, 5000,
                        1u << 20);
  });
  protocol::RecvResult r = protocol::RecvFrame(server_, 5000, 5000, 1u << 20);
  sender.join();
  ASSERT_EQ(r.status, protocol::RecvResult::Status::kFrame);
  protocol::Snapshot back = protocol::DecodeSnapshot(r.payload);
  std::string diff;
  EXPECT_TRUE(back.frame->ApproxEquals(*snap.frame, 0.0, &diff)) << diff;
}

TEST_F(FrameIoTest, IdleAndEofAreNormalOutcomes) {
  protocol::RecvResult idle = protocol::RecvFrame(server_, 50, 2000, 1u << 20);
  EXPECT_EQ(idle.status, protocol::RecvResult::Status::kIdle);
  client_.Close();
  protocol::RecvResult eof = protocol::RecvFrame(server_, 2000, 2000, 1u << 20);
  EXPECT_EQ(eof.status, protocol::RecvResult::Status::kEof);
}

TEST_F(FrameIoTest, CorruptCrcRejected) {
  protocol::Ping ping;
  ping.nonce = 1;
  std::string payload = protocol::Encode(ping);
  wire::FrameHeader header;
  header.type = static_cast<uint8_t>(FrameType::kPing);
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.crc = wire::Crc32(payload.data(), payload.size()) ^ 0x1;  // flip
  uint8_t hdr[wire::kFrameHeaderBytes];
  wire::EncodeFrameHeader(header, hdr);
  net::SendAll(client_, hdr, sizeof(hdr), 2000);
  net::SendAll(client_, payload.data(), payload.size(), 2000);
  try {
    protocol::RecvFrame(server_, 2000, 2000, 1u << 20);
    FAIL() << "corrupt CRC accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kProtocol);
  }
}

TEST_F(FrameIoTest, TruncatedFrameRejected) {
  // A header promising 100 payload bytes, then the peer closes without
  // sending any of them: a frame already in flight was cut off — that
  // is a protocol violation, never a clean EOF.
  wire::FrameHeader header;
  header.type = static_cast<uint8_t>(FrameType::kGoodbye);
  header.payload_len = 100;
  header.crc = 0;
  uint8_t hdr[wire::kFrameHeaderBytes];
  wire::EncodeFrameHeader(header, hdr);
  net::SendAll(client_, hdr, sizeof(hdr), 2000);
  client_.Close();
  try {
    protocol::RecvFrame(server_, 2000, 2000, 1u << 20);
    FAIL() << "truncated frame accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kProtocol);
  }
}

TEST_F(FrameIoTest, TornPayloadRejected) {
  // Same truncation but mid-payload (10 of 100 bytes land): surfaces as
  // a torn read — kNetwork, the retryable transport category — and is
  // never accepted as a frame.
  wire::FrameHeader header;
  header.type = static_cast<uint8_t>(FrameType::kGoodbye);
  header.payload_len = 100;
  header.crc = 0;
  uint8_t hdr[wire::kFrameHeaderBytes];
  wire::EncodeFrameHeader(header, hdr);
  net::SendAll(client_, hdr, sizeof(hdr), 2000);
  net::SendAll(client_, "0123456789", 10, 2000);
  client_.Close();
  try {
    protocol::RecvFrame(server_, 2000, 2000, 1u << 20);
    FAIL() << "torn frame accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kNetwork);
  }
}

TEST_F(FrameIoTest, OversizedFrameRejectedBothSides) {
  std::string big(256, 'x');
  EXPECT_THROW(
      protocol::SendFrame(client_, FrameType::kGoodbye, big, 2000, 64),
      Error);
  // Hand-roll the oversized header to test the receiving side too.
  wire::FrameHeader header;
  header.type = static_cast<uint8_t>(FrameType::kGoodbye);
  header.payload_len = 1u << 30;
  header.crc = 0;
  uint8_t hdr[wire::kFrameHeaderBytes];
  wire::EncodeFrameHeader(header, hdr);
  net::SendAll(client_, hdr, sizeof(hdr), 2000);
  try {
    protocol::RecvFrame(server_, 2000, 2000, 1u << 20);
    FAIL() << "oversized frame accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kProtocol);
  }
}

TEST_F(FrameIoTest, UnknownFrameTypeRejected) {
  std::string payload = "??";
  wire::FrameHeader header;
  header.type = 200;  // no such FrameType
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.crc = wire::Crc32(payload.data(), payload.size());
  uint8_t hdr[wire::kFrameHeaderBytes];
  wire::EncodeFrameHeader(header, hdr);
  net::SendAll(client_, hdr, sizeof(hdr), 2000);
  net::SendAll(client_, payload.data(), payload.size(), 2000);
  try {
    protocol::RecvFrame(server_, 2000, 2000, 1u << 20);
    FAIL() << "unknown frame type accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kProtocol);
  }
}

}  // namespace
}  // namespace wake
