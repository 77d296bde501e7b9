// ValidityBitmap: bit-packed null mask, one bit per row, 64 rows per word.
//
// Replaces the byte-per-row `std::vector<uint8_t>` validity vector: 8×
// smaller, and — more importantly — null propagation, null counting, and
// filter/selection kernels become word-at-a-time bitwise loops (64 rows
// per AND/OR/popcount) instead of per-row byte branches.
//
// Contracts (every consumer relies on these):
//   - Lazy allocation: an EMPTY bitmap (no words) means "all rows valid".
//     The common non-null path never allocates or touches mask memory.
//   - Bit i lives at words()[i >> 6], bit position (i & 63) — LSB-first
//     within the word. This matches the wakeblock on-disk packed layout
//     (bits[r/8] >> (r%8)) when words are viewed as little-endian bytes.
//   - Set bit (1) == valid, clear bit (0) == null.
//   - Padding invariant: when allocated, all bits past `bits()` in the
//     last word are 1. This makes AllValid() a plain all-words == ~0
//     scan, CountNulls() a popcount sum with no tail masking, and word
//     iteration in kernels safe without per-call boundary handling.
//     Every mutator here maintains it; code writing words directly
//     (parallel gathers) must write full 64-row ranges or re-normalize.
#ifndef WAKE_FRAME_VALIDITY_H_
#define WAKE_FRAME_VALIDITY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace wake {

#if defined(_MSC_VER)
#include <intrin.h>
#endif

// PackBits loads eight 0/1 bytes as one little-endian word.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "truth-word packing assumes a little-endian host");

/// Packs `pred(i)` for rows [0, n) into truth words, bit i of out[i >> 6]
/// at position (i & 63) like the validity words; bits past n are zero.
/// `out` holds ValidityBitmap::WordsFor(n) words. Each 64-row block
/// writes its booleans to a byte array (a loop the compiler vectorizes)
/// and gathers them into a register word, eight bytes per multiply: with
/// every byte 0 or 1 the partial products never carry into each other.
/// Each word is stored once.
template <typename Pred>
void PackBits(size_t n, Pred pred, uint64_t* out) {
  uint8_t b[64];
  auto pack = [&b] {
    uint64_t word = 0;
    for (size_t k = 0; k < 8; ++k) {
      uint64_t x;
      std::memcpy(&x, b + 8 * k, sizeof(x));
      word |= ((x * 0x0102040810204080ULL) >> 56) << (8 * k);
    }
    return word;
  };
  const size_t full = n >> 6;
  for (size_t w = 0; w < full; ++w) {
    const size_t base = w << 6;
    for (size_t j = 0; j < 64; ++j) b[j] = pred(base + j) ? 1 : 0;
    out[w] = pack();
  }
  const size_t base = full << 6;
  if (base < n) {
    std::memset(b, 0, sizeof(b));
    for (size_t j = 0; base + j < n; ++j) b[j] = pred(base + j) ? 1 : 0;
    out[full] = pack();
  }
}

inline int PopCount64(uint64_t x) {
#if defined(_MSC_VER)
  return static_cast<int>(__popcnt64(x));
#else
  return __builtin_popcountll(x);
#endif
}

inline int CountTrailingZeros64(uint64_t x) {
#if defined(_MSC_VER)
  unsigned long idx;
  _BitScanForward64(&idx, x);
  return static_cast<int>(idx);
#else
  return __builtin_ctzll(x);
#endif
}

class ValidityBitmap {
 public:
  ValidityBitmap() = default;

  /// Allocated mask of n rows, all valid (all bits 1, padding included).
  static ValidityBitmap AllValid(size_t n) {
    ValidityBitmap v;
    v.bits_ = n;
    v.words_.assign(WordsFor(n), ~0ULL);
    return v;
  }

  static size_t WordsFor(size_t n) { return (n + 63) / 64; }

  /// True when unallocated — all rows implicitly valid.
  bool empty() const { return words_.empty(); }
  size_t bits() const { return bits_; }
  size_t num_words() const { return words_.size(); }

  /// Bit for row i; caller must check !empty() first (Column::IsValid
  /// folds the empty check into its own fast path).
  bool Get(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }
  void SetValid(size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }
  void SetNull(size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }

  void Clear() {
    words_.clear();
    bits_ = 0;
  }

  /// Reinterprets the map as n all-valid rows (allocating). Used before
  /// the first SetNull on a column that so far had no mask.
  void AssignAllValid(size_t n) {
    bits_ = n;
    words_.assign(WordsFor(n), ~0ULL);
  }

  /// Appends one bit. Padding bits are pre-set to 1, so appending a valid
  /// row into a fresh word is just the push_back.
  void Append(bool valid) {
    if ((bits_ & 63) == 0) words_.push_back(~0ULL);
    if (!valid) words_.back() &= ~(1ULL << (bits_ & 63));
    ++bits_;
  }

  /// Extends by n valid rows (padding bits already 1 — only the word
  /// count changes).
  void AppendAllValid(size_t n) {
    bits_ += n;
    words_.resize(WordsFor(bits_), ~0ULL);
  }

  /// Appends all bits of `other` (cross-word shift merge).
  void AppendBitmap(const ValidityBitmap& other) {
    if (other.bits_ == 0) return;
    size_t shift = bits_ & 63;
    size_t old_words = words_.size();
    bits_ += other.bits_;
    words_.resize(WordsFor(bits_), ~0ULL);
    if (shift == 0) {
      for (size_t w = 0; w < other.words_.size(); ++w) {
        words_[old_words + w] = other.words_[w];
      }
    } else {
      // Low `shift` bits of the boundary word belong to the old content;
      // splice each source word across two destination words.
      size_t dst = old_words - 1;
      uint64_t keep_mask = (1ULL << shift) - 1;
      words_[dst] &= keep_mask;
      words_[dst] |= other.words_[0] << shift;
      for (size_t w = 1; w < other.words_.size(); ++w) {
        words_[dst + w] = (other.words_[w - 1] >> (64 - shift)) |
                          (other.words_[w] << shift);
      }
      size_t last = dst + other.words_.size();
      if (last < words_.size()) {
        words_[last] = other.words_.back() >> (64 - shift);
      }
    }
    NormalizePadding();
  }

  /// Bits [begin, end) as a new bitmap (handles unaligned begin).
  ValidityBitmap Slice(size_t begin, size_t end) const {
    ValidityBitmap out;
    size_t n = end - begin;
    out.bits_ = n;
    out.words_.assign(WordsFor(n), ~0ULL);
    size_t shift = begin & 63;
    size_t src = begin >> 6;
    if (shift == 0) {
      for (size_t w = 0; w < out.words_.size(); ++w) {
        out.words_[w] = words_[src + w];
      }
    } else {
      for (size_t w = 0; w < out.words_.size(); ++w) {
        uint64_t lo = words_[src + w] >> shift;
        uint64_t hi = (src + w + 1 < words_.size())
                          ? words_[src + w + 1] << (64 - shift)
                          : ~0ULL << (64 - shift);
        out.words_[w] = lo | hi;
      }
    }
    out.NormalizePadding();
    return out;
  }

  size_t CountNulls() const {
    // Padding bits are 1, so no tail masking is needed.
    size_t set = 0;
    for (uint64_t w : words_) set += static_cast<size_t>(PopCount64(w));
    return bits_ - (set - (words_.size() * 64 - bits_));
  }

  /// True when every logical bit is set (padding invariant makes this a
  /// plain word scan). An empty bitmap is trivially all-valid.
  bool AllValid() const {
    for (uint64_t w : words_) {
      if (w != ~0ULL) return false;
    }
    return true;
  }

  /// Forces padding bits in the last word to 1 (call after writing words
  /// directly from external data).
  void NormalizePadding() {
    size_t tail = bits_ & 63;
    if (tail != 0 && !words_.empty()) words_.back() |= ~0ULL << tail;
  }

  /// --- boundary conversions ---

  /// From LSB-first packed bytes (wakeblock layout: bit r = bytes[r/8]
  /// >> (r%8) & 1). Forged trailing bits in the source are normalized
  /// away, keeping the padding invariant even on corrupt input.
  static ValidityBitmap FromPackedBytes(const uint8_t* bytes, size_t n) {
    ValidityBitmap v;
    v.bits_ = n;
    v.words_.assign(WordsFor(n), ~0ULL);
    size_t nbytes = (n + 7) / 8;
    for (size_t b = 0; b < nbytes; ++b) {
      size_t w = b >> 3;
      size_t sh = (b & 7) * 8;
      v.words_[w] = (v.words_[w] & ~(0xFFULL << sh)) |
                    (static_cast<uint64_t>(bytes[b]) << sh);
    }
    v.NormalizePadding();
    return v;
  }

  /// Into LSB-first packed bytes; `out` must hold (bits()+7)/8 bytes.
  /// Trailing padding bits within the last byte are emitted as 0 so the
  /// packed form is canonical (wakeblock writes it to disk).
  void ToPackedBytes(uint8_t* out) const {
    size_t nbytes = (bits_ + 7) / 8;
    for (size_t b = 0; b < nbytes; ++b) {
      out[b] = static_cast<uint8_t>(words_[b >> 3] >> ((b & 7) * 8));
    }
    size_t tail = bits_ & 7;
    if (tail != 0 && nbytes > 0) {
      out[nbytes - 1] &= static_cast<uint8_t>((1u << tail) - 1);
    }
  }

  /// From one 0/1 byte per row (the wire protocol's layout).
  static ValidityBitmap FromBoolBytes(const uint8_t* bytes, size_t n) {
    ValidityBitmap v;
    v.bits_ = n;
    v.words_.assign(WordsFor(n), ~0ULL);
    for (size_t i = 0; i < n; ++i) {
      if (bytes[i] == 0) v.words_[i >> 6] &= ~(1ULL << (i & 63));
    }
    return v;
  }

  /// Into one 0/1 byte per row; `out` must hold bits() bytes.
  void ToBoolBytes(uint8_t* out) const {
    for (size_t i = 0; i < bits_; ++i) {
      out[i] = static_cast<uint8_t>((words_[i >> 6] >> (i & 63)) & 1);
    }
  }

  /// Heap footprint (capacity-based, matching Column::ByteSize).
  size_t CapacityBytes() const { return words_.capacity() * sizeof(uint64_t); }

  bool operator==(const ValidityBitmap& o) const {
    return bits_ == o.bits_ && words_ == o.words_;
  }

 private:
  std::vector<uint64_t> words_;
  size_t bits_ = 0;
};

}  // namespace wake

#endif  // WAKE_FRAME_VALIDITY_H_
