// Hash-join kernel shared by the exact engine and Wake's join nodes.
//
// The build (right) side accumulates incrementally — Wake's hash-join node
// inserts its held build partials at build EOF into a reserved index, and
// the progressive-merge-join node inserts one partial at a time behind a
// key watermark — then any number of probe calls run against the
// accumulated state. Per the paper (§3.2), the right side is
// always the build table; chained right-deep joins therefore build all hash
// tables in parallel.
//
// Optional variance plumbing: per-column variances of mutable attributes
// travel with the rows (gathered on probe), so confidence intervals survive
// joins (§6).
#ifndef WAKE_CORE_JOIN_KERNEL_H_
#define WAKE_CORE_JOIN_KERNEL_H_

#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "core/agg_state.h"
#include "frame/data_frame.h"
#include "plan/plan.h"

namespace wake {

class WorkerPool;

/// Incrementally built hash table over the right (build) side of a join.
class JoinHashTable {
 public:
  /// `right_schema` is the build-side schema; `right_keys` the build-side
  /// join key columns (empty only for cross joins).
  JoinHashTable(const Schema& right_schema,
                std::vector<std::string> right_keys);

  /// Pre-sizes the index for an expected total build-row count.
  void Reserve(size_t expected_rows);

  /// Appends build rows (and their variances, if any) to the table.
  void Insert(const DataFrame& right_partial,
              const VarianceMap* variances = nullptr);

  size_t num_rows() const { return build_.num_rows(); }
  const DataFrame& build_frame() const { return build_; }

  /// Heap footprint of build frame + hash index (§8.2 accounting).
  size_t ByteSize() const { return build_.ByteSize() + index_.ByteSize(); }

  /// Probes with `left`, producing rows per `type` into a frame with
  /// schema `out_schema` (must equal JoinOutputSchema(left.schema(),
  /// right_schema, right_keys, type)). If `out_vars` is non-null, gathers
  /// per-column variances for the output rows from `left_vars` /
  /// accumulated build variances.
  ///
  /// Thread safety: Probe is const and the table is read-mostly after
  /// build, so any number of threads may probe one table concurrently (no
  /// Insert may run meanwhile). With a non-null `pool`, large
  /// probes additionally split into row-range morsels matched and
  /// gathered across the pool; per-morsel results are stitched in morsel
  /// order, so the output frame is byte-identical to a serial probe at
  /// any worker count.
  DataFrame Probe(const DataFrame& left,
                  const std::vector<std::string>& left_keys, JoinType type,
                  const Schema& out_schema,
                  const VarianceMap* left_vars = nullptr,
                  VarianceMap* out_vars = nullptr,
                  WorkerPool* pool = nullptr) const;

 private:
  /// Match phase over probe rows [begin, end): appends matching row pairs
  /// (absolute indices) to the selection vectors. `dict_key` (nullable)
  /// is the probe key column carrying build-dict codes — the original
  /// column for shared-dict probes, or the translated shadow column for
  /// cross-dict probes — enabling the per-thread code→chain-head memo.
  void MatchRange(const DataFrame& left, const std::vector<size_t>& lcols,
                  const KeyEq& eq, const Column* dict_key, JoinType type,
                  size_t begin, size_t end, std::vector<uint32_t>* lrows,
                  std::vector<uint32_t>* rrows,
                  std::vector<uint8_t>* rvalid) const;
  Schema right_schema_;
  std::vector<std::string> right_keys_;
  std::vector<size_t> key_cols_;
  DataFrame build_;
  VarianceMap build_vars_;
  // Key-hash -> build-row chains; key equality verified on probe, so hash
  // collisions between distinct keys never merge.
  FlatHashIndex index_;
  // Process-unique instance id plus a version bumped by Insert;
  // probes keyed on a single string column use the pair to
  // validate their thread-local code→chain-head cache. The id (not the
  // address, which allocators recycle) prevents a later table from
  // replaying a destroyed table's cached chain heads.
  uint64_t table_id_;
  uint64_t build_version_ = 0;
};

/// One-shot convenience used by the exact engine.
DataFrame HashJoin(const DataFrame& left, const DataFrame& right,
                   const std::vector<std::string>& left_keys,
                   const std::vector<std::string>& right_keys, JoinType type,
                   const Schema& out_schema);

}  // namespace wake

#endif  // WAKE_CORE_JOIN_KERNEL_H_
