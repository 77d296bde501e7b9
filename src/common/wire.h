// Wire codec: the byte-level half of wake's query-serving protocol.
//
// Everything a frame carries is encoded little-endian through WireWriter
// and decoded through the bounds-checked WireReader; a reader that runs
// off the end of its buffer throws wake::Error(kProtocol) instead of
// reading garbage, which is what lets the server treat arbitrary
// malformed input as a categorized error rather than undefined behavior.
//
// Frame layout (header is kFrameHeaderBytes = 16 bytes, then payload):
//
//   offset  size  field
//        0     4  magic 0x57414B45 ("WAKE")
//        4     1  protocol version (kProtocolVersion)
//        5     1  frame type (server/protocol.h's FrameType)
//        6     2  reserved, must be zero
//        8     4  payload length in bytes
//       12     4  CRC32 (IEEE) of the payload bytes
//
// The CRC turns torn or corrupted TCP streams into kProtocol errors at
// the frame boundary; the length field is validated against a
// per-endpoint max_frame_bytes before any allocation, so an adversarial
// length cannot balloon memory. Message-level encode/decode lives in
// src/server/protocol.h; this header knows nothing about queries.
#ifndef WAKE_COMMON_WIRE_H_
#define WAKE_COMMON_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/error.h"

namespace wake {
namespace wire {

constexpr uint32_t kMagic = 0x57414B45;  // "WAKE"
constexpr uint8_t kProtocolVersion = 1;
constexpr size_t kFrameHeaderBytes = 16;

/// CRC32 (IEEE 802.3 polynomial, reflected) of `n` bytes. Folds with
/// carry-less multiply where the CPU has it (chosen once, at run time),
/// else uses slice-by-8 tables; both give the same value.
uint32_t Crc32(const void* data, size_t n);

namespace internal {
/// Crc32 on the slice-by-8 table path alone, whatever the CPU: the
/// reference that tests and benchmarks hold the folding path against.
uint32_t Crc32Table(const void* data, size_t n);
}  // namespace internal

/// Parsed frame header.
struct FrameHeader {
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
};

/// Renders a header into `out` (must hold kFrameHeaderBytes).
void EncodeFrameHeader(const FrameHeader& header, uint8_t* out);

/// Parses and validates a header: magic, version, reserved bytes, and
/// payload_len <= max_payload. Throws wake::Error(kProtocol) on any
/// violation. Does NOT check the CRC (the payload has not been read yet);
/// callers verify it against the payload with Crc32.
FrameHeader DecodeFrameHeader(const uint8_t* data, size_t max_payload);

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  /// Raw IEEE-754 bit pattern: decode returns the identical double, so
  /// results survive the wire bit-for-bit.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendLe(bits);
  }
  /// Length-prefixed (u32) byte string.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer. Every
/// read validates the remaining length first and throws
/// wake::Error(kProtocol, "truncated ...") on underrun — malformed frames
/// become categorized errors, never out-of-bounds reads.
class WireReader {
 public:
  WireReader(const void* data, size_t n)
      : data_(static_cast<const uint8_t*>(data)), size_(n) {}
  explicit WireReader(const std::string& s) : WireReader(s.data(), s.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Throws kProtocol unless at least `n` bytes remain. Decoders call
  /// this before bulk reserve/resize so a forged length field cannot
  /// trigger a huge allocation.
  void Require(size_t n, const char* what) const {
    if (remaining() < n) {
      throw Error(std::string("truncated frame: need ") + what,
                  ErrorCategory::kProtocol);
    }
  }

  uint8_t U8() {
    Require(1, "u8");
    return data_[pos_++];
  }
  uint16_t U16() { return ReadLe<uint16_t>("u16"); }
  uint32_t U32() { return ReadLe<uint32_t>("u32"); }
  uint64_t U64() { return ReadLe<uint64_t>("u64"); }
  int64_t I64() { return static_cast<int64_t>(ReadLe<uint64_t>("i64")); }
  double F64() {
    uint64_t bits = ReadLe<uint64_t>("f64");
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() { return std::string(StrView()); }
  /// Str() as a view into the borrowed buffer (valid while it lives).
  std::string_view StrView() {
    uint32_t n = U32();
    Require(n, "string body");
    std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void Bytes(void* out, size_t n) {
    Require(n, "bytes");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

 private:
  template <typename T>
  T ReadLe(const char* what) {
    Require(sizeof(T), what);
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace wire
}  // namespace wake

#endif  // WAKE_COMMON_WIRE_H_
