#include "frame/data_frame.h"

#include <algorithm>
#include <cmath>
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
  CheckArg(schema_.SameFields(other.schema_),
           "Append: schema mismatch " + schema_.ToString() + " vs " +
               other.schema_.ToString());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendColumn(other.columns_[i]);
  }
}

DataFrame DataFrame::SortBy(const std::vector<SortKey>& keys) const {
  return Take(SortedIndices(keys));
}

std::vector<uint32_t> DataFrame::SortedIndices(const std::vector<SortKey>& keys,
                                               size_t limit) const {
  std::vector<size_t> cols;
  std::vector<bool> desc;
  for (const auto& k : keys) {
    cols.push_back(schema_.FieldIndex(k.column));
    desc.push_back(k.descending);
  }
  const size_t n = num_rows();
  // Total order: sort keys, then row index — exactly the stable sort of
  // the keys alone, but usable with partial_sort.
  auto less = [&](uint32_t a, uint32_t b) {
    for (size_t i = 0; i < cols.size(); ++i) {
      int c = columns_[cols[i]].CompareRows(a, columns_[cols[i]], b);
      if (c != 0) return desc[i] ? c > 0 : c < 0;
    }
    return a < b;
  };
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (limit > 0 && limit < n) {
    std::partial_sort(order.begin(), order.begin() + limit, order.end(),
                      less);
    order.resize(limit);
  } else {
    std::sort(order.begin(), order.end(), less);
  }
  return order;
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
