#include "frame/data_frame.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/error.h"
#include "common/strings.h"

namespace wake {

DataFrame::DataFrame(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
}

const Column& DataFrame::ColumnByName(const std::string& name) const {
  return columns_[schema_.FieldIndex(name)];
}

void DataFrame::AddColumn(Field field, Column column) {
  CheckArg(field.type == column.type(), "AddColumn: field/column type mismatch");
  CheckArg(columns_.empty() || column.size() == num_rows(),
           "AddColumn: row count mismatch for '" + field.name + "'");
  schema_.AddField(std::move(field));
  columns_.push_back(std::move(column));
}

std::vector<size_t> DataFrame::ColumnIndices(
    const std::vector<std::string>& names) const {
  std::vector<size_t> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(schema_.FieldIndex(n));
  return out;
}

DataFrame DataFrame::Take(const std::vector<uint32_t>& indices) const {
  DataFrame out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Take(indices));
  return out;
}

DataFrame DataFrame::FilterBy(const std::vector<uint8_t>& mask) const {
  DataFrame out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.FilterBy(mask));
  return out;
}

DataFrame DataFrame::FilterBy(const Column& pred) const {
  CheckArg(pred.size() == num_rows(), "filter predicate length mismatch");
  return Take(Column::SelectionFrom(pred));
}

DataFrame DataFrame::Slice(size_t begin, size_t end) const {
  DataFrame out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const auto& c : columns_) out.columns_.push_back(c.Slice(begin, end));
  return out;
}

DataFrame DataFrame::Select(const std::vector<std::string>& names) const {
  DataFrame out;
  for (const auto& n : names) {
    size_t idx = schema_.FieldIndex(n);
    out.AddColumn(schema_.field(idx), columns_[idx]);
  }
  out.mutable_schema()->set_primary_key(schema_.primary_key());
  out.mutable_schema()->set_clustering_key(schema_.clustering_key());
  return out;
}

void DataFrame::Append(const DataFrame& other) {
  if (columns_.empty()) {
    *this = other;
    return;
  }
  // The message is built only on a mismatch: operators append every
  // partial they buffer.
  if (!schema_.SameFields(other.schema_)) {
    throw Error("Append: schema mismatch " + schema_.ToString() + " vs " +
                other.schema_.ToString());
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendColumn(other.columns_[i]);
  }
}

DataFrame DataFrame::SortBy(const std::vector<SortKey>& keys) const {
  return Take(SortedIndices(keys));
}

namespace {

constexpr uint64_t kSignBit = 1ULL << 63;

int BitWidth(uint64_t x) { return x == 0 ? 0 : 64 - __builtin_clzll(x); }

uint64_t LowMask(int bits) { return bits >= 64 ? ~0ULL : (1ULL << bits) - 1; }

// Unsigned images whose uint64 order is the value order.
uint64_t IntImage(int64_t v) { return static_cast<uint64_t>(v) ^ kSignBit; }

uint64_t DoubleImage(double d) {
  if (std::isnan(d)) return ~0ULL;  // every NaN equal, above +inf
  if (d == 0.0) d = 0.0;            // -0.0 ties with 0.0
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

// Inputs this small sort by insertion: a histogram pass costs more.
constexpr size_t kInsertionSortRows = 32;

// Row order of `keys` under a stable LSD radix sort of their low `bits`
// bits, one byte per pass. One read histograms every pass, and a pass
// whose byte is the same in every key is skipped. Stability makes the
// row index the tie-break.
std::vector<uint32_t> RadixOrder(std::vector<uint64_t> keys, int bits) {
  const size_t n = keys.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const int passes = (bits + 7) / 8;
  if (n < 2 || passes == 0) return order;
  if (n <= kInsertionSortRows) {
    for (size_t i = 1; i < n; ++i) {
      const uint32_t row = order[i];
      size_t j = i;
      for (; j > 0 && keys[order[j - 1]] > keys[row]; --j) {
        order[j] = order[j - 1];
      }
      order[j] = row;
    }
    return order;
  }
  std::vector<uint32_t> counts(static_cast<size_t>(passes) * 256, 0);
  for (uint64_t k : keys) {
    for (int p = 0; p < passes; ++p) {
      ++counts[p * 256 + ((k >> (8 * p)) & 255)];
    }
  }
  std::vector<uint64_t> keys_out(n);
  std::vector<uint32_t> order_out(n);
  for (int p = 0; p < passes; ++p) {
    uint32_t* offset = &counts[p * 256];
    const int shift = 8 * p;
    if (offset[(keys[0] >> shift) & 255] == n) continue;
    uint32_t sum = 0;
    for (int d = 0; d < 256; ++d) {
      const uint32_t c = offset[d];
      offset[d] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t at = offset[(keys[i] >> shift) & 255]++;
      keys_out[at] = keys[i];
      order_out[at] = order[i];
    }
    keys.swap(keys_out);
    order.swap(order_out);
  }
  return order;
}

// The images of one sort key, rebased to the smallest valid image: the
// valid rows' values span `bits` bits, and a column with nulls adds one
// more bit above them (0 for a null row, so nulls sort first ascending).
// Null rows hold value 0.
struct KeyImage {
  const Column* col;
  bool desc;
  bool nulls;
  int bits;
  std::vector<uint64_t> value;

  int width() const { return bits + (nulls ? 1 : 0); }
};

// Byte-order rank of each valid row's string among the strings the
// column holds. Rows are bucketed by code, so only the distinct codes
// present are compared as bytes, never the whole dictionary.
void StringRanks(const Column& col, std::vector<uint64_t>* out) {
  std::vector<uint64_t>& v = *out;
  const int32_t* codes = col.codes().data();
  uint64_t max_code = 0;
  for (size_t r = 0; r < v.size(); ++r) {
    v[r] = col.IsNull(r) ? 0 : static_cast<uint64_t>(codes[r]);
    max_code = std::max(max_code, v[r]);
  }
  // Each valid row's ordinal among the distinct codes, in code order.
  std::vector<int32_t> distinct;
  for (uint32_t r : RadixOrder(v, BitWidth(max_code))) {
    if (col.IsNull(r)) continue;
    if (distinct.empty() || distinct.back() != codes[r]) {
      distinct.push_back(codes[r]);
    }
    v[r] = distinct.size() - 1;
  }
  std::vector<uint32_t> by_bytes(distinct.size());
  std::iota(by_bytes.begin(), by_bytes.end(), 0u);
  std::sort(by_bytes.begin(), by_bytes.end(), [&](uint32_t a, uint32_t b) {
    return col.dict()->At(distinct[a]) < col.dict()->At(distinct[b]);
  });
  std::vector<uint64_t> rank(distinct.size());
  for (size_t j = 0; j < by_bytes.size(); ++j) rank[by_bytes[j]] = j;
  for (size_t r = 0; r < v.size(); ++r) {
    if (!col.IsNull(r)) v[r] = rank[v[r]];
  }
}

KeyImage MakeKeyImage(const Column& col, bool desc) {
  KeyImage key{&col, desc, col.has_nulls(), 0, {}};
  const size_t n = col.size();
  std::vector<uint64_t>& v = key.value;
  v.resize(n);
  switch (col.type()) {
    case ValueType::kString:
      StringRanks(col, &v);
      break;
    case ValueType::kFloat64:
      for (size_t r = 0; r < n; ++r) v[r] = DoubleImage(col.doubles()[r]);
      break;
    default:
      for (size_t r = 0; r < n; ++r) v[r] = IntImage(col.ints()[r]);
      break;
  }
  uint64_t lo = ~0ULL, hi = 0;
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) continue;
    lo = std::min(lo, v[r]);
    hi = std::max(hi, v[r]);
  }
  if (lo > hi) lo = hi = 0;  // no valid row
  for (size_t r = 0; r < n; ++r) v[r] = col.IsNull(r) ? 0 : v[r] - lo;
  key.bits = BitWidth(hi - lo);
  return key;
}

// One word per row: the keys' fields concatenated, first key highest,
// each complemented within its width when descending. Requires the
// widths to sum to at most 64.
std::vector<uint64_t> PackKeys(const std::vector<KeyImage>& keys, size_t n) {
  std::vector<uint64_t> words(n, 0);
  for (const KeyImage& key : keys) {
    const int width = key.width();
    if (width == 0) continue;
    const uint64_t flip = key.desc ? LowMask(width) : 0;
    const uint64_t valid_bit = key.nulls ? 1ULL << key.bits : 0;
    for (size_t r = 0; r < n; ++r) {
      uint64_t field = key.value[r];
      if (key.nulls) field = key.col->IsNull(r) ? 0 : field | valid_bit;
      words[r] = (width == 64 ? 0 : words[r] << width) | (field ^ flip);
    }
  }
  return words;
}

// Row order of [0, n) under the total order `less`, truncated to the
// first `limit` rows when limit < n.
template <typename Less>
std::vector<uint32_t> SortRows(size_t n, std::optional<size_t> limit,
                               Less less) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (limit && *limit < n) {
    std::partial_sort(order.begin(), order.begin() + *limit, order.end(),
                      less);
    order.resize(*limit);
  } else {
    std::sort(order.begin(), order.end(), less);
  }
  return order;
}

}  // namespace

std::vector<uint32_t> DataFrame::SortedIndices(
    const std::vector<SortKey>& keys, std::optional<size_t> limit) const {
  const size_t n = num_rows();
  std::vector<KeyImage> images;
  images.reserve(keys.size());
  int width = 0;
  for (const auto& k : keys) {
    images.push_back(
        MakeKeyImage(columns_[schema_.FieldIndex(k.column)], k.descending));
    width += images.back().width();
  }
  if (width <= 64) {
    std::vector<uint64_t> words = PackKeys(images, n);
    if (!limit || *limit >= n) return RadixOrder(std::move(words), width);
    return SortRows(n, limit, [&](uint32_t a, uint32_t b) {
      return words[a] != words[b] ? words[a] < words[b] : a < b;
    });
  }
  // Wider keys compare field by field, then by row index.
  return SortRows(n, limit, [&](uint32_t a, uint32_t b) {
    for (const KeyImage& key : images) {
      if (key.nulls) {
        const bool na = key.col->IsNull(a), nb = key.col->IsNull(b);
        if (na != nb) return na != key.desc;
        if (na) continue;
      }
      const uint64_t va = key.value[a], vb = key.value[b];
      if (va != vb) return key.desc ? va > vb : va < vb;
    }
    return a < b;
  });
}

namespace {
constexpr uint64_t kRowHashSeed = 0x2545f4914f6cdd1dULL;
}  // namespace

uint64_t DataFrame::HashRowKeys(const std::vector<size_t>& key_cols,
                                size_t row) const {
  uint64_t h = kRowHashSeed;
  for (size_t c : key_cols) h = columns_[c].HashRow(row, h);
  return h;
}

std::vector<uint64_t> DataFrame::HashRowsBatch(
    const std::vector<size_t>& key_cols) const {
  std::vector<uint64_t> hashes;
  HashRowsBatch(key_cols, &hashes);
  return hashes;
}

void DataFrame::HashRowsBatch(const std::vector<size_t>& key_cols,
                              std::vector<uint64_t>* out) const {
  out->assign(num_rows(), kRowHashSeed);
  for (size_t c : key_cols) columns_[c].HashInto(out->data(), out->size());
}

void DataFrame::HashRowsBatchRange(const std::vector<size_t>& key_cols,
                                   size_t begin, size_t end,
                                   std::vector<uint64_t>* out) const {
  out->assign(end - begin, kRowHashSeed);
  for (size_t c : key_cols) {
    columns_[c].HashIntoRange(out->data(), begin, end);
  }
}

bool DataFrame::ApproxEquals(const DataFrame& other, double rel_tol,
                             std::string* diff) const {
  auto fail = [&](const std::string& msg) {
    if (diff) *diff = msg;
    return false;
  };
  if (!schema_.SameFields(other.schema_)) {
    return fail("schema mismatch: " + schema_.ToString() + " vs " +
                other.schema_.ToString());
  }
  if (num_rows() != other.num_rows()) {
    return fail(StrFormat("row count %zu vs %zu", num_rows(),
                          other.num_rows()));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& a = columns_[c];
    const Column& b = other.columns_[c];
    for (size_t r = 0; r < num_rows(); ++r) {
      if (a.IsNull(r) != b.IsNull(r)) {
        return fail(StrFormat("null mismatch at row %zu col %s", r,
                              schema_.field(c).name.c_str()));
      }
      if (a.IsNull(r)) continue;
      bool equal;
      if (a.type() == ValueType::kString) {
        equal = a.StringAt(r) == b.StringAt(r);
      } else if (a.type() == ValueType::kFloat64) {
        double x = a.DoubleAt(r), y = b.DoubleAt(r);
        double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
        equal = std::fabs(x - y) <= rel_tol * scale;
      } else {
        equal = a.IntAt(r) == b.IntAt(r);
      }
      if (!equal) {
        return fail(StrFormat(
            "value mismatch at row %zu col %s: %s vs %s", r,
            schema_.field(c).name.c_str(), a.GetValue(r).ToString().c_str(),
            b.GetValue(r).ToString().c_str()));
      }
    }
  }
  return true;
}

std::string DataFrame::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < schema_.num_fields(); ++i) {
    if (i > 0) out += " | ";
    out += schema_.field(i).name;
  }
  out += "\n";
  size_t n = std::min(max_rows, num_rows());
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      out += columns_[c].GetValue(r).ToString();
    }
    out += "\n";
  }
  if (n < num_rows()) {
    out += StrFormat("... (%zu rows total)\n", num_rows());
  }
  return out;
}

size_t DataFrame::ByteSize() const {
  size_t bytes = 0;
  for (const auto& c : columns_) bytes += c.ByteSize();
  return bytes;
}

}  // namespace wake
