#include "common/wire.h"

#include "common/strings.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace wake {
namespace wire {

namespace {

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[k][b] extends a CRC whose input still has k more zero bytes
// coming, so eight lookups advance the state by eight input bytes with no
// inter-lookup dependency chain (~8x the bytewise rate). Crc32 uses them
// on CPUs without carry-less multiply, for inputs under 64 bytes, and for
// the last 0-15 bytes after the folding loop.
struct CrcTable {
  uint32_t entries[8][256];
  CrcTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = entries[0][i];
      for (int t = 1; t < 8; ++t) {
        c = entries[0][c & 0xff] ^ (c >> 8);
        entries[t][i] = c;
      }
    }
  }
};

const CrcTable& Table() {
  static const CrcTable table;
  return table;
}

// Advances the pre-inverted CRC state `c` over n bytes, eight at a time.
uint32_t TableUpdate(uint32_t c, const uint8_t* p, size_t n) {
  const CrcTable& table = Table();
  while (n >= 8) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = table.entries[7][c & 0xff] ^ table.entries[6][(c >> 8) & 0xff] ^
        table.entries[5][(c >> 16) & 0xff] ^ table.entries[4][c >> 24] ^
        table.entries[3][p[4]] ^ table.entries[2][p[5]] ^
        table.entries[1][p[6]] ^ table.entries[0][p[7]];
    p += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i) {
    c = table.entries[0][(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), the
// method zlib and the Linux kernel use for this polynomial. Four 128-bit
// lanes each absorb 16 bytes per 64-byte step; folding a lane forward
// multiplies its two halves by x^(512±32) mod P, so the steps carry no
// dependency across lanes. The lanes are then folded into one, that one
// to 64 bits, and a Barrett reduction yields the 32-bit remainder. All
// constants are bit-reflected, for the reflected polynomial 0xEDB88320,
// so the result is bit-identical to the table path's.

__m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds the 128-bit lane x forward over the constant pair k (low half
// times k's low word, high half times its high word) into `next`.
__attribute__((target("pclmul"))) __m128i Fold(__m128i x, __m128i k,
                                               __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Advances the pre-inverted state `c` over n bytes; n >= 64 and n % 16
// == 0. The target attributes enable the instructions for these
// functions alone: callers reach them only when the CPU reports both
// extensions.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldUpdate(
    uint32_t c, const uint8_t* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
    p += 64;
    n -= 64;
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  while (n >= 16) {
    x1 = Fold(x1, k3k4, Load128(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits, then 64 -> 32 bits by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool CpuFolds() {
  static const bool folds = __builtin_cpu_supports("pclmul") &&
                            __builtin_cpu_supports("sse4.1");
  return folds;
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (n >= 64 && CpuFolds()) {
    const size_t folded = n & ~size_t{15};
    c = FoldUpdate(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return TableUpdate(c, p, n) ^ 0xFFFFFFFFu;
}

namespace internal {

uint32_t Crc32Table(const void* data, size_t n) {
  return TableUpdate(0xFFFFFFFFu, static_cast<const uint8_t*>(data), n) ^
         0xFFFFFFFFu;
}

}  // namespace internal

void EncodeFrameHeader(const FrameHeader& header, uint8_t* out) {
  auto le32 = [](uint8_t* p, uint32_t v) {
    p[0] = v & 0xff;
    p[1] = (v >> 8) & 0xff;
    p[2] = (v >> 16) & 0xff;
    p[3] = (v >> 24) & 0xff;
  };
  le32(out, kMagic);
  out[4] = header.version;
  out[5] = header.type;
  out[6] = 0;
  out[7] = 0;
  le32(out + 8, header.payload_len);
  le32(out + 12, header.crc);
}

FrameHeader DecodeFrameHeader(const uint8_t* data, size_t max_payload) {
  auto le32 = [](const uint8_t* p) {
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
  };
  uint32_t magic = le32(data);
  if (magic != kMagic) {
    throw Error(StrFormat("bad frame magic 0x%08x (stream out of sync?)",
                          magic),
                ErrorCategory::kProtocol);
  }
  FrameHeader header;
  header.version = data[4];
  if (header.version != kProtocolVersion) {
    throw Error(StrFormat("unsupported protocol version %u (want %u)",
                          header.version, kProtocolVersion),
                ErrorCategory::kProtocol);
  }
  if (data[6] != 0 || data[7] != 0) {
    throw Error("nonzero reserved bytes in frame header",
                ErrorCategory::kProtocol);
  }
  header.type = data[5];
  header.payload_len = le32(data + 8);
  header.crc = le32(data + 12);
  if (header.payload_len > max_payload) {
    throw Error(StrFormat("oversized frame: %u bytes (limit %zu)",
                          header.payload_len, max_payload),
                ErrorCategory::kProtocol);
  }
  return header;
}

}  // namespace wire
}  // namespace wake
