// DataFrame: a schema plus equal-length columns.
//
// This is the unit of data flowing between execution nodes: readers emit
// one DataFrame per partition (a "partial", §4.2), operators transform
// DataFrames, and edf states expose them to the user.
#ifndef WAKE_FRAME_DATA_FRAME_H_
#define WAKE_FRAME_DATA_FRAME_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "frame/column.h"
#include "frame/schema.h"

namespace wake {

/// Sort specification for one column.
struct SortKey {
  std::string column;
  bool descending = false;
};

/// 2-D structured data: one Schema, N equal-length Columns.
class DataFrame {
 public:
  DataFrame() = default;
  explicit DataFrame(Schema schema);

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column* mutable_column(size_t i) { return &columns_[i]; }
  /// Column by name; throws wake::Error if absent.
  const Column& ColumnByName(const std::string& name) const;

  /// Appends a column (must match current row count if non-first).
  void AddColumn(Field field, Column column);

  /// Returns indices of the named columns; throws on unknown names.
  std::vector<size_t> ColumnIndices(
      const std::vector<std::string>& names) const;

  /// --- row-set transforms (all return new frames) ---
  DataFrame Take(const std::vector<uint32_t>& indices) const;
  DataFrame FilterBy(const std::vector<uint8_t>& mask) const;
  /// Selection-kernel filter: keeps rows where `pred` (a bool column of
  /// matching length) is valid and non-zero. Builds a popcount-sized
  /// selection vector word-at-a-time, then gathers — no per-row byte
  /// mask materialization.
  DataFrame FilterBy(const Column& pred) const;
  DataFrame Slice(size_t begin, size_t end) const;
  DataFrame Head(size_t n) const { return Slice(0, std::min(n, num_rows())); }
  /// Keeps only the named columns, in the given order.
  DataFrame Select(const std::vector<std::string>& names) const;

  /// Appends all rows of `other` (schemas must have identical fields).
  void Append(const DataFrame& other);

  /// Stable sort by the given keys; nulls first on ascending, strings in
  /// byte order, -0.0 equal to 0.0, and NaN above +inf and equal to every
  /// NaN (see README.md "Sorting").
  DataFrame SortBy(const std::vector<SortKey>& keys) const;

  /// Row order SortBy would gather, truncated to the first `limit` rows
  /// when a limit is given (0 = no rows). The order is total (sort keys,
  /// then row index as tie-break), so a top-k partial sort yields exactly
  /// the stable sort's first k rows.
  std::vector<uint32_t> SortedIndices(
      const std::vector<SortKey>& keys,
      std::optional<size_t> limit = std::nullopt) const;

  /// Hash of the key columns `key_cols` for row `row`.
  uint64_t HashRowKeys(const std::vector<size_t>& key_cols, size_t row) const;

  /// Hashes of the key columns for every row, computed column-at-a-time.
  /// hashes[r] == HashRowKeys(key_cols, r) for all r.
  std::vector<uint64_t> HashRowsBatch(
      const std::vector<size_t>& key_cols) const;

  /// As above, writing into `out` (kernels reuse scratch buffers to avoid
  /// re-faulting multi-MB allocations on every partial).
  void HashRowsBatch(const std::vector<size_t>& key_cols,
                     std::vector<uint64_t>* out) const;

  /// Ranged form for morsel-parallel kernels: out gets end - begin
  /// entries, (*out)[r - begin] == HashRowKeys(key_cols, r).
  void HashRowsBatchRange(const std::vector<size_t>& key_cols, size_t begin,
                          size_t end, std::vector<uint64_t>* out) const;

  /// Whole-frame equality with tolerance for floats (testing aid).
  bool ApproxEquals(const DataFrame& other, double rel_tol = 1e-9,
                    std::string* diff = nullptr) const;

  /// Pretty table; at most `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

  /// Approximate heap footprint in bytes.
  size_t ByteSize() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

using DataFramePtr = std::shared_ptr<const DataFrame>;

/// Typed row-equality over parallel key-column lists, used when verifying
/// hash-index candidates (join probes, group and distinct lookups). Key
/// equality: a null equals a null and nothing else, int/float keys compare
/// promoted to double, and NaNs equal each other (NaN keys group together).
/// The per-pair comparison mode is resolved once at construction: string
/// pairs sharing one dict compare int32 codes, pairs over different dicts
/// compare bytes.
class KeyEq {
 public:
  KeyEq(const DataFrame& left, const std::vector<size_t>& left_cols,
        const DataFrame& right, const std::vector<size_t>& right_cols) {
    cols_.reserve(left_cols.size());
    for (size_t k = 0; k < left_cols.size(); ++k) {
      cols_.push_back(
          MakePair(left.column(left_cols[k]), right.column(right_cols[k])));
    }
  }

  /// Single-pair form for kernels comparing one synthesized key column
  /// (e.g. the cross-dict shadow column of a probe) against a stored one.
  KeyEq(const Column& a, const Column& b) { cols_.push_back(MakePair(a, b)); }

  /// Hints the cache to load right-side row `j` of every key column.
  void PrefetchRight(size_t j) const {
    for (const auto& p : cols_) {
      const Column& b = *p.b;
      if (b.type() == ValueType::kString) {
        __builtin_prefetch(b.codes().data() + j);
      } else if (IsIntPhysical(b.type())) {
        __builtin_prefetch(b.ints().data() + j);
      } else {
        __builtin_prefetch(b.doubles().data() + j);
      }
    }
  }

  bool Equal(size_t i, size_t j) const {
    for (const auto& p : cols_) {
      const Column& a = *p.a;
      const Column& b = *p.b;
      const bool an = a.IsNull(i), bn = b.IsNull(j);
      if (an || bn) {
        if (an != bn) return false;
        continue;
      }
      switch (p.mode) {
        case Mode::kCode:
          if (a.codes()[i] != b.codes()[j]) return false;
          break;
        case Mode::kString:
          if (a.StringAt(i) != b.StringAt(j)) return false;
          break;
        case Mode::kInt:
          if (a.ints()[i] != b.ints()[j]) return false;
          break;
        case Mode::kDouble: {
          double x = a.DoubleAt(i), y = b.DoubleAt(j);
          if (x < y || y < x) return false;
          break;
        }
      }
    }
    return true;
  }

 private:
  enum class Mode : uint8_t { kInt, kDouble, kCode, kString };
  struct ColPair {
    const Column* a;
    const Column* b;
    Mode mode;
  };

  static ColPair MakePair(const Column& a, const Column& b) {
    Mode mode;
    if (a.type() == ValueType::kString) {
      mode = a.dict() == b.dict() ? Mode::kCode : Mode::kString;
    } else if (IsIntPhysical(a.type()) && IsIntPhysical(b.type())) {
      mode = Mode::kInt;
    } else {
      mode = Mode::kDouble;
    }
    return {&a, &b, mode};
  }

  std::vector<ColPair> cols_;
};

}  // namespace wake

#endif  // WAKE_FRAME_DATA_FRAME_H_
