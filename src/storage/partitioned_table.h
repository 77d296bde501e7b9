// Partitioned table storage.
//
// A PartitionedTable is the on-"disk" layout Wake reads from: an ordered
// list of partitions (each a DataFrame) plus the metadata the paper says a
// base-table edf requires (§4.4): file list, tuple count per file, and the
// primary/clustering keys. Partitioning respects the clustering key — a
// clustering-key value never straddles two partitions — which is what makes
// clustering-key aggregations local operations (Case 1, §2.2).
//
// Tables live either in memory (FromDataFrame) or on disk in the wakeblock
// columnar format (storage/wakeblock.h), which OpenWakeblock reads lazily.
#ifndef WAKE_STORAGE_PARTITIONED_TABLE_H_
#define WAKE_STORAGE_PARTITIONED_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "frame/data_frame.h"
#include "frame/expr.h"
#include "storage/wakeblock.h"

namespace wake {

class PartitionedTable;
using TablePtr = std::shared_ptr<const PartitionedTable>;

/// An ordered collection of partitions with shared schema.
class PartitionedTable {
 public:
  PartitionedTable() = default;
  PartitionedTable(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  /// Splits `df` into `num_partitions` chunks. If the schema has a
  /// clustering key and `df` is sorted by it, chunk boundaries are moved
  /// forward so no clustering-key value straddles two partitions.
  static PartitionedTable FromDataFrame(std::string name, const DataFrame& df,
                                        size_t num_partitions);

  /// Lazy wakeblock-backed table: holds only the open BlockTable handle
  /// (metadata + block synopses), decoding blocks on demand through the
  /// chunk API below. Partition-level accessors throw for lazy tables.
  static PartitionedTable OpenWakeblock(const std::string& dir,
                                        const std::string& name);

  /// Composite table over an ordered list of immutable segment tables
  /// sharing `schema` (a live table's hot + cold tablets): the chunk API
  /// concatenates the segments' chunks in order, so readers stream hot
  /// rows and block-skipped cold blocks through one table handle. The
  /// segments keep their own representation (eager or lazy); partition-
  /// level accessors throw. Zero segments is a valid empty table.
  static PartitionedTable FromSegments(std::string name, Schema schema,
                                       std::vector<TablePtr> segments);

  bool composite() const { return !segments_.empty(); }
  const std::vector<TablePtr>& segments() const { return segments_; }

  bool lazy() const { return block_source_ != nullptr; }
  /// The wakeblock handle backing a lazy table (null for eager tables).
  const wakeblock::BlockTablePtr& block_source() const {
    return block_source_;
  }

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_partitions() const {
    return lazy() ? block_source_->num_partitions() : partitions_.size();
  }
  const DataFramePtr& partition(size_t i) const;

  void AddPartition(DataFramePtr partition);

  /// --- chunk API: the unit readers stream ---
  /// Eager tables have one chunk per partition; lazy tables one per row
  /// block (finer partials, and the granularity block skipping works at);
  /// composite tables concatenate their segments' chunks in order.
  size_t num_chunks() const;
  size_t chunk_rows(size_t i) const;
  /// Decodes chunk `i` narrowed to `columns` (empty = all). For lazy
  /// tables a `filter` refuted by the chunk's synopses returns nullptr
  /// without decoding (the caller still counts the chunk's rows toward
  /// progress); eager chunks ignore `filter` — pruning is advisory, the
  /// plan always keeps the residual Filter.
  DataFramePtr ReadChunk(size_t i, const std::vector<std::string>& columns,
                         const ExprPtr& filter = nullptr) const;

  size_t total_rows() const { return total_rows_; }

  /// Same rows, different partition count (used by the Fig 12 sweep).
  PartitionedTable Repartition(size_t num_partitions) const;

  /// Same rows, partitions in a shuffled order (Fig 10 uses shuffled
  /// inputs to simulate unexpected arrival order).
  PartitionedTable ShufflePartitions(uint64_t seed) const;

  /// Concatenation of every chunk narrowed to `columns` (in the given
  /// order; empty = all), skipping chunks whose synopses refute `filter`
  /// (see ReadChunk). A filter is only correct when the caller re-applies
  /// the predicate — the plan's residual Filter does — since surviving
  /// chunks still hold non-matching rows.
  DataFrame Materialize(const std::vector<std::string>& columns = {},
                        const ExprPtr& filter = nullptr) const;

 private:
  /// Maps a composite table's global chunk index to (segment, local
  /// chunk index within that segment).
  size_t SegmentOfChunk(size_t i, size_t* local) const;

  std::string name_;
  Schema schema_;
  std::vector<DataFramePtr> partitions_;
  size_t total_rows_ = 0;
  wakeblock::BlockTablePtr block_source_;  // non-null == lazy
  // Composite mode: ordered segments plus the chunk-count prefix sums
  // (seg_chunk_base_[i] = total chunks before segment i; back() = total).
  std::vector<std::shared_ptr<const PartitionedTable>> segments_;
  std::vector<size_t> seg_chunk_base_;
};

/// A table whose contents change over time (live ingestion). The catalog
/// resolves a dynamic table to an immutable snapshot per lookup, so a
/// query plans and scans one consistent tablet set no matter how many
/// appends land while it runs. Implementations must be thread-safe.
class DynamicTable {
 public:
  virtual ~DynamicTable() = default;
  virtual const std::string& name() const = 0;
  /// Fixed at registration; snapshots always carry this schema.
  virtual const Schema& schema() const = 0;
  /// An immutable snapshot of the current contents.
  virtual TablePtr Snapshot() const = 0;
};

/// Named table registry handed to query engines. Static tables resolve
/// to their one immutable object; dynamic tables resolve to a fresh
/// snapshot per GetPtr (engines take exactly one snapshot per scan, at
/// compile/execute time, which pins the query's tablet set).
class Catalog {
 public:
  void Add(TablePtr table);
  void AddDynamic(std::shared_ptr<DynamicTable> table);
  /// Stable reference to a static table; throws for dynamic tables
  /// (their contents move — callers must hold a GetPtr snapshot).
  const PartitionedTable& Get(const std::string& name) const;
  TablePtr GetPtr(const std::string& name) const;
  /// Schema of either kind of table (stable for both: static tables are
  /// immutable, dynamic tables fix their schema at registration).
  const Schema& GetSchema(const std::string& name) const;
  /// The registered dynamic table, or null if `name` is static/unknown.
  std::shared_ptr<DynamicTable> GetDynamic(const std::string& name) const;
  bool Has(const std::string& name) const;
  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, TablePtr> tables_;
  std::map<std::string, std::shared_ptr<DynamicTable>> dynamic_;
};

}  // namespace wake

#endif  // WAKE_STORAGE_PARTITIONED_TABLE_H_
