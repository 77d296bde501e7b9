// Column: typed, nullable, contiguous vector of values.
//
// Physical storage is selected by the logical type; kDate and kBool share
// int64 storage. String columns have one encoding: one int32 code per row
// (codes_) into a shared, append-only StringDict (common/string_dict.h)
// holding each distinct string once alongside its pre-computed hash. So
// the join and aggregation hot paths hash, compare, and gather dense codes
// instead of whole strings. A string column has a dict from its first row
// on: the first append adopts the source's dict or starts a fresh one, and
// producers of new strings (wire decode, SUBSTR, literals) intern. Equal
// strings hash equally across dicts, so columns over different dicts can
// always probe each other.
//
// The null mask is a bit-packed ValidityBitmap (frame/validity.h), one
// bit per row, allocated lazily — an empty bitmap means all rows are
// valid, which keeps the common non-null path branch-free, and lets the
// batch kernels (null propagation, hashing, filtering) run 64 rows per
// word op instead of a byte per row.
#ifndef WAKE_FRAME_COLUMN_H_
#define WAKE_FRAME_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_dict.h"
#include "frame/validity.h"
#include "frame/value.h"

namespace wake {

/// A single column of a DataFrame.
class Column {
 public:
  /// Code stored for rows appended as null into string columns (never
  /// dereferenced; the validity mask is checked first).
  static constexpr int32_t kNullCode = -1;

  Column() : type_(ValueType::kInt64) {}
  explicit Column(ValueType type) : type_(type) {}

  /// Convenience constructors for tests and generators.
  static Column FromInts(std::vector<int64_t> data,
                         ValueType type = ValueType::kInt64);
  static Column FromDoubles(std::vector<double> data);
  /// String column holding `data`, interned into a fresh dict.
  static Column FromStrings(const std::vector<std::string>& data);

  ValueType type() const { return type_; }
  void set_type(ValueType t) { type_ = t; }
  size_t size() const;

  /// --- typed access (caller must respect the type) ---
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  std::vector<int64_t>* mutable_ints() { return &ints_; }
  std::vector<double>* mutable_doubles() { return &doubles_; }

  /// --- string rows: codes into dict() ---
  /// False only for non-string columns and for empty string columns that
  /// have not been given a dict yet.
  bool is_dict() const { return dict_ != nullptr; }
  const std::vector<int32_t>& codes() const { return codes_; }
  std::vector<int32_t>* mutable_codes() { return &codes_; }
  const StringDictPtr& dict() const { return dict_; }
  /// String column over an existing (shared) dict: row i holds
  /// `codes[i]` (kNullCode rows must be masked via `valid`). Used by the
  /// probe-side dict unification of cross-dict string joins and by
  /// parallel gathers that assemble codes off-column.
  static Column DictFromCodes(StringDictPtr dict, std::vector<int32_t> codes,
                              ValidityBitmap valid = {});
  /// If this is an empty string column without a dict, shares `dict`
  /// (no-op otherwise). Accumulating consumers call this before their
  /// first append so comparators see codes from row one.
  void AdoptDict(const StringDictPtr& dict) {
    if (type_ == ValueType::kString && dict_ == nullptr && size() == 0) {
      dict_ = dict;
    }
  }

  /// Numeric value of row i promoted to double (0.0 for null).
  double DoubleAt(size_t i) const {
    return IsIntPhysical(type_) ? static_cast<double>(ints_[i]) : doubles_[i];
  }
  int64_t IntAt(size_t i) const { return ints_[i]; }
  /// String value of row i (empty for rows holding kNullCode).
  const std::string& StringAt(size_t i) const {
    int32_t code = codes_[i];
    return code < 0 ? kEmptyString : dict_->At(code);
  }

  /// --- nulls ---
  bool has_nulls() const { return !valid_.empty(); }
  bool IsNull(size_t i) const { return !valid_.empty() && !valid_.Get(i); }
  bool IsValid(size_t i) const { return valid_.empty() || valid_.Get(i); }
  /// Marks row i null (allocates the mask on first use).
  void SetNull(size_t i);
  const ValidityBitmap& validity() const { return valid_; }
  ValidityBitmap* mutable_validity() { return &valid_; }
  void set_validity(ValidityBitmap v) { valid_ = std::move(v); }
  /// Byte-per-row compatibility overload (wire/disk decoders).
  void set_validity(std::vector<uint8_t> v) {
    valid_ = ValidityBitmap::FromBoolBytes(v.data(), v.size());
    CompactValidity();
  }
  /// Drops the mask if every row is valid.
  void CompactValidity();

  /// --- row-wise ---
  Value GetValue(size_t i) const;
  void AppendValue(const Value& v);
  void AppendNull();
  void AppendInt(int64_t x) { ints_.push_back(x); ExtendValidity(); }
  void AppendDouble(double x) { doubles_.push_back(x); ExtendValidity(); }
  void AppendString(std::string_view x);
  /// Appends row `i` of `src` (same logical type). For strings, an empty
  /// column without a dict adopts `src`'s dict, same-dict appends copy the
  /// code, and cross-dict appends intern.
  void AppendFrom(const Column& src, size_t i);

  void Reserve(size_t n);
  void Clear();

  /// New column containing rows at `indices` (gather).
  Column Take(const std::vector<uint32_t>& indices) const;

  /// New column containing rows where mask[i] != 0.
  Column FilterBy(const std::vector<uint8_t>& mask) const;

  /// Appends all rows of `other` (must have same type). Dict handling: an
  /// empty destination without a dict adopts `other`'s dict; same-dict
  /// appends concatenate codes; cross-dict appends remap through this
  /// column's dict (copy-on-write if the dict is shared).
  void AppendColumn(const Column& other);

  /// New column of rows [begin, end).
  Column Slice(size_t begin, size_t end) const;

  /// Three-way comparison of rows (this[i] vs other[j]); nulls sort first.
  int CompareRows(size_t i, const Column& other, size_t j) const;

  /// 64-bit hash of row i mixed into `seed` (used for join/group keys).
  /// String rows mix their dict entry's pre-computed FNV hash, so equal
  /// strings hash equally across dicts.
  uint64_t HashRow(size_t i, uint64_t seed) const;

  /// Column-at-a-time hashing: mixes row i's hash into hashes[i] for the
  /// first n rows (one type dispatch per column instead of per row).
  /// Produces exactly HashRow(i, hashes[i]) for every row.
  void HashInto(uint64_t* hashes, size_t n) const {
    HashIntoRange(hashes, 0, n);
  }

  /// Ranged form for morsel-parallel kernels: mixes row r's hash into
  /// hashes[r - begin] for r in [begin, end).
  void HashIntoRange(uint64_t* hashes, size_t begin, size_t end) const;

  /// Approximate heap footprint in bytes (peak-memory accounting, §8.2).
  /// String columns count their codes plus their rows' share of the dict
  /// pool (StringDict::ShareBytes), so the partials that share one dict
  /// are not each charged all of it.
  size_t ByteSize() const;

  /// Truth words of `pred` (bool/int64 storage): bit i is set iff row i is
  /// valid and non-zero; bits past the last row are zero (see PackBits).
  static std::vector<uint64_t> TruthWords(const Column& pred);

  /// Selection vector of truth words: the indices of the set bits in
  /// ascending order. A popcount sizes the output, then ctz iteration
  /// emits indices, skipping all-zero words.
  static std::vector<uint32_t> SelectionFromTruth(
      const std::vector<uint64_t>& truth);

  /// Selection-vector filter: rows where `pred` is valid and non-zero,
  /// i.e. SelectionFromTruth(TruthWords(pred)).
  static std::vector<uint32_t> SelectionFrom(const Column& pred) {
    return SelectionFromTruth(TruthWords(pred));
  }

 private:
  void ExtendValidity() {
    if (!valid_.empty()) valid_.Append(true);
  }

  /// Dict pointer safe to intern into: starts a fresh dict for the first
  /// row, and clones the pool first if any other column shares it
  /// (published dicts stay immutable).
  StringDict* MutableDict();

  static const std::string kEmptyString;

  ValueType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;  // string rows: codes into dict_
  StringDictPtr dict_;          // null only while the column is empty
  ValidityBitmap valid_;  // empty == all valid
};

}  // namespace wake

#endif  // WAKE_FRAME_COLUMN_H_
