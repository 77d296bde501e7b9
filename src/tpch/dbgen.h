// In-process TPC-H data generator (dbgen substitute).
//
// Generates the eight TPC-H tables at a given scale factor with the exact
// schema, key integrity (every foreign key resolves), spec value ranges,
// spec date logic (shipdate/commitdate/receiptdate relative to orderdate,
// returnflag/linestatus derived from the 1995-06-17 "current date"), and the
// text patterns the 22 queries probe with LIKE ('%green%', 'PROMO%',
// '%special%requests%', '%Customer%Complaints%', ...).
//
// Deviations from the official dbgen, documented in DESIGN.md: order keys
// are dense (not sparse), comment text comes from a small word pool, and the
// ship mode list uses "AIR REG" (matching Q19's literal) instead of
// "REG AIR". All deviations are self-consistent: queries and data agree.
//
// Every table is generated sorted on its clustering key (lineitem on
// l_orderkey, orders on o_orderkey, partsupp on ps_partkey, the others on
// their primary keys), which is what a clustered schema promises.
#ifndef WAKE_TPCH_DBGEN_H_
#define WAKE_TPCH_DBGEN_H_

#include <cstdint>

#include "storage/partitioned_table.h"

namespace wake {
namespace tpch {

/// Generator configuration.
struct DbgenConfig {
  /// TPC-H scale factor; SF 1.0 is ~6M lineitem rows. Benches use 0.01-0.1.
  double scale_factor = 0.01;
  /// Partition count for the two large streamed tables (lineitem, orders).
  /// Mid-size tables get half, nation/region one.
  size_t partitions = 8;
  uint64_t seed = 20230307;  // arXiv date of the paper, for determinism
};

/// TPC-H "current date" used for returnflag / linestatus / orderstatus.
int64_t CurrentDate();

/// Generates all eight tables into a catalog.
Catalog Generate(const DbgenConfig& config);

/// Generates a single table (same contents as the corresponding table from
/// Generate with the same config) without building the rest of the
/// catalog. A non-empty `columns` list makes generation projected: the
/// same random draws are consumed (so kept columns are bit-identical to a
/// full generation) but unselected columns are never built, stored, or
/// interned, and the result carries the narrowed schema.
PartitionedTable GenerateTable(const DbgenConfig& config,
                               const std::string& name,
                               const std::vector<std::string>& columns = {});

/// Row count for `table` at `scale_factor` (lineitem returns the expected
/// value; its actual count varies with the per-order line count draw).
size_t RowsAtScale(const std::string& table, double scale_factor);

}  // namespace tpch
}  // namespace wake

#endif  // WAKE_TPCH_DBGEN_H_
