#include "storage/partitioned_table.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"

namespace wake {

namespace {

// Returns true if rows r-1 and r of `df` agree on every clustering column.
bool SameClusterKey(const DataFrame& df, const std::vector<size_t>& cols,
                    size_t r) {
  for (size_t c : cols) {
    if (df.column(c).CompareRows(r - 1, df.column(c), r) != 0) return false;
  }
  return true;
}

}  // namespace

PartitionedTable PartitionedTable::FromDataFrame(std::string name,
                                                 const DataFrame& df,
                                                 size_t num_partitions) {
  CheckArg(num_partitions > 0, "num_partitions must be positive");
  PartitionedTable table(std::move(name), df.schema());
  size_t n = df.num_rows();
  if (n == 0) {
    table.AddPartition(std::make_shared<DataFrame>(df));
    return table;
  }
  std::vector<size_t> cluster_cols;
  if (!df.schema().clustering_key().empty()) {
    cluster_cols = df.ColumnIndices(df.schema().clustering_key());
  }
  size_t target = (n + num_partitions - 1) / num_partitions;
  size_t begin = 0;
  while (begin < n) {
    size_t end = std::min(begin + target, n);
    // Advance past rows sharing the clustering key with the boundary row so
    // one key never straddles two partitions.
    if (!cluster_cols.empty()) {
      while (end < n && end > 0 && SameClusterKey(df, cluster_cols, end)) {
        ++end;
      }
    }
    table.AddPartition(std::make_shared<DataFrame>(df.Slice(begin, end)));
    begin = end;
  }
  return table;
}

PartitionedTable PartitionedTable::OpenWakeblock(const std::string& dir,
                                                 const std::string& name) {
  wakeblock::BlockTablePtr source = wakeblock::BlockTable::Open(dir, name);
  PartitionedTable table(source->name(), source->schema());
  table.total_rows_ = source->total_rows();
  table.block_source_ = std::move(source);
  return table;
}

PartitionedTable PartitionedTable::FromSegments(std::string name,
                                                Schema schema,
                                                std::vector<TablePtr>
                                                    segments) {
  PartitionedTable table(std::move(name), std::move(schema));
  table.seg_chunk_base_.push_back(0);
  for (auto& seg : segments) {
    CheckArg(seg != nullptr, "null segment");
    CheckArg(!seg->composite(), "nested composite segment");
    table.total_rows_ += seg->total_rows();
    table.seg_chunk_base_.push_back(table.seg_chunk_base_.back() +
                                    seg->num_chunks());
    table.segments_.push_back(std::move(seg));
  }
  return table;
}

size_t PartitionedTable::num_chunks() const {
  if (composite()) return seg_chunk_base_.back();
  return lazy() ? block_source_->num_blocks() : partitions_.size();
}

size_t PartitionedTable::chunk_rows(size_t i) const {
  if (composite()) {
    size_t local = 0;
    return segments_[SegmentOfChunk(i, &local)]->chunk_rows(local);
  }
  return lazy() ? block_source_->block_rows(i) : partitions_[i]->num_rows();
}

size_t PartitionedTable::SegmentOfChunk(size_t i, size_t* local) const {
  CheckArg(i < seg_chunk_base_.back(), "chunk index out of range");
  // upper_bound over the prefix sums: first base strictly above i.
  size_t s = static_cast<size_t>(
      std::upper_bound(seg_chunk_base_.begin(), seg_chunk_base_.end(), i) -
      seg_chunk_base_.begin()) - 1;
  *local = i - seg_chunk_base_[s];
  return s;
}

const DataFramePtr& PartitionedTable::partition(size_t i) const {
  CheckArg(!lazy() && !composite(),
           "partition(): table '" + name_ +
               "' is wakeblock-backed or composite; use the chunk API");
  return partitions_[i];
}

void PartitionedTable::AddPartition(DataFramePtr partition) {
  CheckArg(!lazy() && !composite(),
           "AddPartition on a wakeblock-backed or composite table");
  CheckArg(partition != nullptr, "null partition");
  total_rows_ += partition->num_rows();
  if (schema_.num_fields() == 0) schema_ = partition->schema();
  partitions_.push_back(std::move(partition));
}

DataFramePtr PartitionedTable::ReadChunk(size_t i,
                                         const std::vector<std::string>&
                                             columns,
                                         const ExprPtr& filter) const {
  if (composite()) {
    size_t local = 0;
    size_t s = SegmentOfChunk(i, &local);
    return segments_[s]->ReadChunk(local, columns, filter);
  }
  if (lazy()) return block_source_->ReadBlock(i, columns, filter);
  CheckArg(i < partitions_.size(), "chunk index out of range");
  if (columns.empty()) return partitions_[i];
  // Key-aware narrowing (keys survive only if all their columns do);
  // DataFrame::Select alone would keep stale key metadata.
  auto narrowed = std::make_shared<DataFrame>(partitions_[i]->Select(columns));
  *narrowed->mutable_schema() = schema_.Select(columns);
  return narrowed;
}

PartitionedTable PartitionedTable::Repartition(size_t num_partitions) const {
  return FromDataFrame(name_, Materialize(), num_partitions);
}

PartitionedTable PartitionedTable::ShufflePartitions(uint64_t seed) const {
  CheckArg(!lazy() && !composite(),
           "ShufflePartitions on a wakeblock-backed or composite table");
  PartitionedTable out(name_, schema_);
  std::vector<DataFramePtr> parts = partitions_;
  Rng rng(seed);
  rng.Shuffle(&parts);
  for (auto& p : parts) out.AddPartition(std::move(p));
  return out;
}

DataFrame PartitionedTable::Materialize(const std::vector<std::string>& columns,
                                        const ExprPtr& filter) const {
  DataFrame out(columns.empty() ? schema_ : schema_.Select(columns));
  bool reserved = false;
  for (size_t i = 0; i < num_chunks(); ++i) {
    DataFramePtr chunk = ReadChunk(i, columns, filter);
    if (chunk == nullptr) continue;
    out.Append(*chunk);
    if (!reserved) {
      // Reserving the whole table once a chunk arrived spares the
      // per-chunk growth reallocations.
      for (size_t c = 0; c < out.num_columns(); ++c) {
        out.mutable_column(c)->Reserve(total_rows_);
      }
      reserved = true;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Text (.tbl) serialization
// ---------------------------------------------------------------------------

namespace {

char TypeChar(ValueType t) {
  switch (t) {
    case ValueType::kInt64: return 'i';
    case ValueType::kFloat64: return 'f';
    case ValueType::kString: return 's';
    case ValueType::kDate: return 'd';
    case ValueType::kBool: return 'b';
  }
  return '?';
}

ValueType TypeFromChar(char c) {
  switch (c) {
    case 'i': return ValueType::kInt64;
    case 'f': return ValueType::kFloat64;
    case 's': return ValueType::kString;
    case 'd': return ValueType::kDate;
    case 'b': return ValueType::kBool;
  }
  throw Error(std::string("bad type char: ") + c);
}

void WriteMeta(const std::string& path, const PartitionedTable& table) {
  std::ofstream out(path);
  CheckArg(out.good(), "cannot write " + path);
  const Schema& s = table.schema();
  out << table.name() << "\n" << table.num_partitions() << "\n";
  out << s.num_fields() << "\n";
  for (const auto& f : s.fields()) {
    out << f.name << "|" << TypeChar(f.type) << "|" << (f.mutable_attr ? 1 : 0)
        << "\n";
  }
  out << Join(s.primary_key(), ",") << "\n";
  out << Join(s.clustering_key(), ",") << "\n";
}

Schema ReadMeta(const std::string& path, std::string* name,
                size_t* num_partitions) {
  std::ifstream in(path);
  CheckArg(in.good(), "cannot read " + path);
  std::string line;
  std::getline(in, *name);
  std::getline(in, line);
  *num_partitions = std::stoul(line);
  std::getline(in, line);
  size_t num_fields = std::stoul(line);
  Schema schema;
  for (size_t i = 0; i < num_fields; ++i) {
    std::getline(in, line);
    auto parts = Split(line, '|');
    CheckArg(parts.size() == 3, "malformed meta field line: " + line);
    schema.AddField(
        Field(parts[0], TypeFromChar(parts[1][0]), parts[2] == "1"));
  }
  auto read_key = [&]() {
    std::getline(in, line);
    std::vector<std::string> key;
    if (!line.empty()) key = Split(line, ',');
    return key;
  };
  schema.set_primary_key(read_key());
  schema.set_clustering_key(read_key());
  return schema;
}

}  // namespace

void PartitionedTable::WriteTblDir(const std::string& dir) const {
  CheckArg(!lazy() && !composite(),
           "WriteTblDir on a wakeblock-backed or composite table");
  std::filesystem::create_directories(dir);
  WriteMeta(dir + "/" + name_ + ".meta", *this);
  for (size_t i = 0; i < partitions_.size(); ++i) {
    std::string path = dir + "/" + name_ + "." + std::to_string(i) + ".tbl";
    std::ofstream out(path);
    CheckArg(out.good(), "cannot write " + path);
    const DataFrame& df = *partitions_[i];
    for (size_t r = 0; r < df.num_rows(); ++r) {
      for (size_t c = 0; c < df.num_columns(); ++c) {
        if (c > 0) out << '|';
        const Column& col = df.column(c);
        if (col.IsNull(r)) {
          // empty field == null; TPC-H data itself has no nulls.
        } else if (col.type() == ValueType::kFloat64) {
          out << StrFormat("%.9g", col.DoubleAt(r));
        } else if (col.type() == ValueType::kString) {
          out << col.StringAt(r);
        } else if (col.type() == ValueType::kDate) {
          out << FormatDate(col.IntAt(r));
        } else {
          out << col.IntAt(r);
        }
      }
      out << '\n';
    }
  }
}

PartitionedTable PartitionedTable::ReadTblDir(
    const std::string& dir, const std::string& name,
    const std::vector<std::string>& columns) {
  std::string table_name;
  size_t num_partitions = 0;
  Schema full = ReadMeta(dir + "/" + name + ".meta", &table_name,
                         &num_partitions);
  Schema schema = columns.empty() ? full : full.Select(columns);
  // For file field f: slot_of[f] = output column, or npos (skip the field
  // entirely — no number parse, no string intern).
  std::vector<size_t> slot_of = full.ProjectionSlots(schema);
  PartitionedTable table(table_name, schema);
  for (size_t i = 0; i < num_partitions; ++i) {
    std::string path = dir + "/" + name + "." + std::to_string(i) + ".tbl";
    std::ifstream in(path);
    CheckArg(in.good(), "cannot read " + path);
    auto df = std::make_shared<DataFrame>(schema);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto fields = Split(line, '|');
      CheckArg(fields.size() == full.num_fields(),
               "column count mismatch in " + path);
      for (size_t f = 0; f < fields.size(); ++f) {
        if (slot_of[f] == Schema::npos) continue;
        Column* col = df->mutable_column(slot_of[f]);
        const std::string& text = fields[f];
        if (text.empty() && full.field(f).type != ValueType::kString) {
          col->AppendNull();
          continue;
        }
        switch (full.field(f).type) {
          case ValueType::kInt64:
          case ValueType::kBool:
            col->AppendInt(std::stoll(text));
            break;
          case ValueType::kFloat64:
            col->AppendDouble(std::stod(text));
            break;
          case ValueType::kString:
            col->AppendString(text);
            break;
          case ValueType::kDate:
            col->AppendInt(ParseDate(text));
            break;
        }
      }
    }
    table.AddPartition(std::move(df));
  }
  return table;
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

void Catalog::Add(TablePtr table) {
  CheckArg(table != nullptr, "null table");
  CheckArg(dynamic_.count(table->name()) == 0,
           "table '" + table->name() + "' is already registered as dynamic");
  tables_[table->name()] = std::move(table);
}

void Catalog::AddDynamic(std::shared_ptr<DynamicTable> table) {
  CheckArg(table != nullptr, "null table");
  CheckArg(tables_.count(table->name()) == 0,
           "table '" + table->name() + "' is already registered as static");
  dynamic_[table->name()] = std::move(table);
}

const PartitionedTable& Catalog::Get(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    CheckArg(dynamic_.count(name) == 0,
             "table '" + name +
                 "' is dynamic; hold a GetPtr() snapshot instead");
    CheckArg(false, "unknown table '" + name + "'");
  }
  return *it->second;
}

TablePtr Catalog::GetPtr(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second;
  auto dyn = dynamic_.find(name);
  CheckArg(dyn != dynamic_.end(), "unknown table '" + name + "'");
  return dyn->second->Snapshot();
}

const Schema& Catalog::GetSchema(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second->schema();
  auto dyn = dynamic_.find(name);
  CheckArg(dyn != dynamic_.end(), "unknown table '" + name + "'");
  return dyn->second->schema();
}

std::shared_ptr<DynamicTable> Catalog::GetDynamic(
    const std::string& name) const {
  auto it = dynamic_.find(name);
  return it == dynamic_.end() ? nullptr : it->second;
}

bool Catalog::Has(const std::string& name) const {
  return tables_.count(name) > 0 || dynamic_.count(name) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : tables_) names.push_back(name);
  for (const auto& [name, _] : dynamic_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Catalog OpenTblCatalog(const std::string& dir) {
  Catalog catalog;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::filesystem::path p = entry.path();
    if (p.extension() != ".meta") continue;
    catalog.Add(std::make_shared<PartitionedTable>(
        PartitionedTable::ReadTblDir(dir, p.stem().string())));
  }
  CheckArg(!ec, "cannot list tbl directory '" + dir + "': " + ec.message());
  CheckArg(!catalog.TableNames().empty(),
           "no <name>.meta tables found in '" + dir + "'");
  return catalog;
}

}  // namespace wake
