// wakeblock: wake's native binary columnar table format.
//
// A packed table is a directory of column files split into fixed-size row
// blocks:
//
//   <dir>/<table>/table.meta    CRC'd table metadata (schema, keys, block
//                               list, per-column block offsets)
//   <dir>/<table>/<field>.col   one file per column: a small file header,
//                               an optional dictionary page (string
//                               columns), then one encoded block per row
//                               block
//
// Each block carries a 40-byte header with row-count, null-count, and
// min/max synopses, so a reader holding only the headers can refute a
// scan predicate against a block and skip it without decoding (or even
// reading) its payload — the same partition-pruning idea as tenzir's
// catalog synopses, applied at block granularity. Values are stored with
// cheap, decode-friendly compression (run-length for sorted/low-
// cardinality blocks, frame-of-reference bit-packing for narrow ints, raw
// for everything else), validity as a bit-packed mask, and strings as
// dictionary codes against a per-column dictionary page, which Open
// validates and the first read that needs it interns into a shared
// StringDict.
//
// Robustness follows the wire-frame rules: every length is validated
// against the real file extent before any allocation, every block body
// and dictionary page is CRC-checked on every read, and malformed input
// raises wake::Error(kProtocol) — never an over-allocation or
// out-of-bounds read.
#ifndef WAKE_STORAGE_WAKEBLOCK_H_
#define WAKE_STORAGE_WAKEBLOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "frame/expr.h"

namespace wake {

class PartitionedTable;
class Catalog;

namespace wakeblock {

/// Nominal rows per block (the writer may extend a block past this so a
/// clustering-key value never straddles two blocks).
constexpr size_t kDefaultBlockRows = 4096;

/// Hard ceiling on rows per block: decode allocations are proportional to
/// a block's row count, so a forged count can never balloon memory past
/// this bound.
constexpr size_t kMaxBlockRows = 1u << 22;

struct WriteOptions {
  size_t block_rows = kDefaultBlockRows;
};

/// Cumulative reader counters (one set per open table; atomically
/// updated, so concurrent queries over one handle just sum).
struct ScanStats {
  size_t blocks_read = 0;
  size_t blocks_skipped = 0;
  size_t rows_read = 0;
  size_t rows_skipped = 0;
};

/// Packs `table` (must be materialized, not wakeblock-backed) into
/// `<dir>/<table.name()>/`. Blocks never cross partition boundaries, and
/// the meta records the partition count, which a lazy open reports.
void Write(const PartitionedTable& table, const std::string& dir,
           const WriteOptions& options = {});

/// Lazy handle over one packed table: holds the metadata, every block
/// header (synopses) and the extent and CRC of each dictionary page — but
/// no block payloads, no open files, and no string dictionary until a
/// read needs it. Blocks are decoded on demand by ReadBlock; a string
/// column's dictionary is interned once per open table, by its first
/// block decode or string-equality pruning, from a fresh read of its page
/// whose CRC is checked again. Thread-safe: each column block read opens,
/// reads and closes its own descriptor, the dictionary load is guarded
/// per column, and stats are atomic.
class BlockTable {
 public:
  /// Opens and fully validates `<dir>/<name>/`: meta CRC, file sizes,
  /// every block header, and every dictionary page (CRC, entry lengths,
  /// count, trailing bytes, duplicate entries). Throws
  /// wake::Error(kProtocol) on any inconsistency.
  static std::shared_ptr<const BlockTable> Open(const std::string& dir,
                                                const std::string& name);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t total_rows() const { return total_rows_; }
  size_t num_partitions() const { return num_partitions_; }

  size_t num_blocks() const { return blocks_.size(); }
  size_t block_rows(size_t b) const { return blocks_[b].rows; }

  /// Decodes block `b` narrowed to `columns` (empty = all, table order).
  /// When `filter` refutes the block via its synopses (min/max, null
  /// counts, dictionary membership), returns nullptr without touching the
  /// payload and counts the block as skipped. Conservative: a predicate
  /// shape the pruner does not understand never skips.
  DataFramePtr ReadBlock(size_t b, const std::vector<std::string>& columns,
                         const ExprPtr& filter = nullptr) const;

  ScanStats stats() const;
  void ResetStats() const;

 private:
  struct BlockInfo {
    uint32_t partition = 0;
    uint32_t rows = 0;
  };
  // One parsed block header per (column, block), kept in memory so
  // pruning decisions never touch the files.
  struct BlockHeader {
    uint32_t rows = 0;
    uint8_t encoding = 0;
    uint8_t flags = 0;  // bit 0: min/max synopsis present
    uint32_t null_count = 0;
    uint64_t min_bits = 0;  // int64 or double bit pattern, by column type
    uint64_t max_bits = 0;
    uint32_t validity_len = 0;
    uint32_t payload_len = 0;
    uint32_t crc = 0;
  };
  // A string column's dictionary page, validated by Open and interned on
  // first use by Dict.
  struct DictPage {
    uint64_t offset = 0;  // of the entries, past the page header
    uint32_t count = 0;
    uint32_t len = 0;
    uint32_t crc = 0;
    std::mutex mu;                   // serializes the one load
    std::atomic<bool> ready{false};  // released once `dict` is set
    StringDictPtr dict;              // immutable once ready
  };
  struct ColumnInfo {
    std::string path;               // <dir>/<name>/<field>.col
    std::vector<uint64_t> offsets;  // block header offset per block
    std::vector<BlockHeader> headers;
    uint64_t file_size = 0;
    std::unique_ptr<DictPage> dict;  // string columns only
  };

  BlockTable() = default;

  // The column's interned dictionary, loaded on the first call: reads the
  // page again, checks its CRC and interns its entries. A failed load
  // throws kProtocol and is retried by the next call.
  const StringDictPtr& Dict(size_t field) const;
  Column DecodeColumnBlock(size_t field, size_t b) const;
  bool Refuted(const Expr& e, size_t b) const;
  bool CompareRefuted(const Expr& cmp, size_t b) const;

  std::string base_;  // <dir>/<name>
  std::string name_;
  Schema schema_;
  size_t total_rows_ = 0;
  size_t num_partitions_ = 0;
  size_t nominal_block_rows_ = 0;
  std::vector<BlockInfo> blocks_;
  std::vector<ColumnInfo> cols_;  // parallel to schema_.fields()

  mutable std::atomic<uint64_t> blocks_read_{0};
  mutable std::atomic<uint64_t> blocks_skipped_{0};
  mutable std::atomic<uint64_t> rows_read_{0};
  mutable std::atomic<uint64_t> rows_skipped_{0};
};

using BlockTablePtr = std::shared_ptr<const BlockTable>;

/// Names of the packed tables under `dir` (subdirectories holding a
/// table.meta), sorted.
std::vector<std::string> ListTables(const std::string& dir);

/// Opens every packed table under `dir` as a lazy wakeblock-backed
/// PartitionedTable and returns them as a catalog.
Catalog OpenCatalog(const std::string& dir);

}  // namespace wakeblock
}  // namespace wake

#endif  // WAKE_STORAGE_WAKEBLOCK_H_
