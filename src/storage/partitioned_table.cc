#include "storage/partitioned_table.h"

#include <algorithm>
#include <cstdint>

#include "common/error.h"
#include "common/rng.h"

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

}  // namespace wake
