// StringDict: an append-only interned string pool backing every string
// column (a string column stores one code per row into a dict).
//
// Each distinct string is stored once and addressed by a dense int32 code
// (its insertion index). Alongside every entry the pool keeps the entry's
// seed-free FNV-1a hash, so hashing a row is one array load + one MixHash
// instead of a byte loop. The hash depends only on the bytes, so equal
// strings hash equally across dicts (see common/hash.h).
//
// Sharing contract: dicts are shared between columns via shared_ptr
// (slices, gathers, and appends of same-dict columns just alias the
// pointer). A dict that is visible to more than one Column is treated as
// immutable; Column's append paths copy-on-write before interning into a
// shared dict, so concurrent readers of published columns never observe
// mutation.
#ifndef WAKE_COMMON_STRING_DICT_H_
#define WAKE_COMMON_STRING_DICT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/hash.h"

namespace wake {

class StringDict {
 public:
  /// Code returned by Find for strings not in the pool.
  static constexpr int32_t kNotFound = -1;

  StringDict() : id_(NextId()) {}
  /// Deep copy (entries, hashes, and lookup index); codes are preserved,
  /// so columns can swap a shared dict for a private clone in place. The
  /// clone gets a fresh id: caches keyed on it never confuse a clone (or
  /// a recycled allocation) with the original.
  StringDict(const StringDict& other)
      : entries_(other.entries_),
        hashes_(other.hashes_),
        index_(other.index_),
        string_bytes_(other.string_bytes_),
        id_(NextId()) {}
  StringDict& operator=(const StringDict& other) {
    entries_ = other.entries_;
    hashes_ = other.hashes_;
    index_ = other.index_;
    string_bytes_ = other.string_bytes_;
    id_ = NextId();
    return *this;
  }

  /// Process-unique identity for translation/memo caches. Unlike the
  /// address, ids are never reused, so a cache entry keyed on one cannot
  /// alias a dict that died and had its allocation recycled.
  uint64_t id() const { return id_; }

  /// Number of distinct entries.
  size_t size() const { return entries_.size(); }

  /// Code of `s`, interning it if absent.
  int32_t Intern(std::string_view s) {
    return Intern(s, FnvHash64(s.data(), s.size()));
  }

  /// Intern with `h` == FnvHash64(s) already known (say, another dict's
  /// HashAt), so the bytes are not hashed again.
  int32_t Intern(std::string_view s, uint64_t h) {
    int32_t code = FindHashed(s, h);
    if (code != kNotFound) return code;
    code = static_cast<int32_t>(entries_.size());
    entries_.emplace_back(s);
    static const size_t kInlineCapacity = std::string().capacity();
    if (entries_.back().capacity() > kInlineCapacity) {
      string_bytes_ += entries_.back().capacity();
    }
    hashes_.push_back(h);
    index_.Insert(h, static_cast<uint32_t>(code));
    return code;
  }

  /// Code of `s`, or kNotFound.
  int32_t Find(std::string_view s) const {
    return FindHashed(s, FnvHash64(s.data(), s.size()));
  }

  /// Entry for `code` (must be a valid code).
  const std::string& At(int32_t code) const {
    return entries_[static_cast<size_t>(code)];
  }

  /// Pre-computed FnvHash64 of entry `code`.
  uint64_t HashAt(int32_t code) const {
    return hashes_[static_cast<size_t>(code)];
  }

  /// Raw pre-hash array (size() entries) for tight per-row hash loops.
  const uint64_t* hash_data() const { return hashes_.data(); }

  void Reserve(size_t entries) {
    entries_.reserve(entries);
    hashes_.reserve(entries);
    index_.Reserve(entries);
  }

  /// Approximate heap footprint in bytes, in O(1): the entry, hash and
  /// index arrays plus a running total of the entries' own buffers.
  size_t ByteSize() const {
    return entries_.capacity() * sizeof(std::string) +
           hashes_.capacity() * sizeof(uint64_t) + index_.ByteSize() +
           string_bytes_;
  }

  /// The part of ByteSize charged to a column of `rows` codes into this
  /// dict: rows × the mean entry size, capped at the whole dict. Every
  /// slice, gather and same-dict append of a column shares its dict, so
  /// charging each of them the whole dict would count it once per
  /// partial (a 4,096-row block of a table-wide dict of a million
  /// comments would weigh as much as the table's comments).
  size_t ShareBytes(size_t rows) const {
    const size_t total = ByteSize();
    const size_t n = entries_.size();
    if (rows >= n) return total;
    return total / n * rows + total % n * rows / n;  // rows < n < 2^31
  }

 private:
  static uint64_t NextId() {
    static std::atomic<uint64_t> next{0};
    return ++next;
  }

  int32_t FindHashed(std::string_view s, uint64_t h) const {
    // Chains hold every code whose FNV hash collided; compare bytes.
    for (uint32_t cand = index_.Find(h); cand != FlatHashIndex::kNil;
         cand = index_.Next(cand)) {
      if (entries_[cand] == s) return static_cast<int32_t>(cand);
    }
    return kNotFound;
  }

  std::vector<std::string> entries_;  // code -> string
  std::vector<uint64_t> hashes_;      // code -> FnvHash64(string)
  FlatHashIndex index_;               // FnvHash64 -> code chains
  size_t string_bytes_ = 0;           // heap buffers of entries_
  uint64_t id_;
};

using StringDictPtr = std::shared_ptr<StringDict>;

}  // namespace wake

#endif  // WAKE_COMMON_STRING_DICT_H_
