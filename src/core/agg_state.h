// Grouped aggregation state: the intrinsic-state representation and
// key-based merge operator (⊕) of Table 2, plus the intrinsic→extrinsic
// conversion (growth-based inference, §5; confidence intervals, §6).
//
// One GroupedAggState instance backs:
//  - the exact engine's hash aggregation (Consume once, Finalize unscaled),
//  - Wake's shuffle-aggregation node (Consume per partial ⇒ incremental
//    merge, Finalize with scaling per snapshot),
//  - Wake's local-aggregation node (per-partition Consume + exact
//    Finalize), and
//  - the ProgressiveDB-style baseline (naive linear scaling).
//
// Intrinsic representations (Table 2):
//   count            -> count per key
//   sum              -> sum per key
//   avg              -> (sum, count) per key
//   min/max          -> extreme per key
//   var/stddev       -> (sum, sumsq, count) per key
//   count_distinct   -> exact values (footnote 3: no sketches): one flat
//                       set of (group, value) entries per aggregate,
//                       with each group's distinct count in its count
//
// A state has one writer, the operator thread that owns it; groups are
// stored in creation order, which is first-appearance order, and
// Finalize emits them in that order.
#ifndef WAKE_CORE_AGG_STATE_H_
#define WAKE_CORE_AGG_STATE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "frame/data_frame.h"
#include "plan/plan.h"

namespace wake {

/// Per-column variance vectors keyed by column name (CI plumbing).
using VarianceMap = std::unordered_map<std::string, std::vector<double>>;

/// Scaling context for Finalize. Disabled => exact results (t = 1).
struct AggScaling {
  bool enabled = false;
  double t = 1.0;      // current progress
  double w = 1.0;      // fitted growth power
  double var_w = 0.0;  // Var(w) from the OLS fit (CI only)
  bool with_ci = false;
};

/// Finalize output: the aggregate frame plus (optionally) per-cell
/// variances for each aggregate output column.
struct AggResult {
  DataFrame frame;
  VarianceMap variances;
};

/// Incremental hash aggregation over (group_by, aggs).
class GroupedAggState {
 public:
  /// `input_schema` is the schema of frames passed to Consume;
  /// `output_schema` must equal AggOutputSchema(input_schema, ...).
  GroupedAggState(std::vector<std::string> group_by, std::vector<AggSpec> aggs,
                  const Schema& input_schema, Schema output_schema);

  /// Folds one partial into the state (the ⊕ of §2.2/§4.3).
  /// `input_variances` (optional) carries per-row variances of mutable
  /// input columns; they accumulate into the summed-variance term.
  void Consume(const DataFrame& partial,
               const VarianceMap* input_variances = nullptr);

  /// Drops all state (used when the input is refresh-mode and each new
  /// snapshot replaces the previous content).
  void Reset();

  /// Produces the extrinsic state. With scaling disabled this is the exact
  /// aggregate of everything consumed; with scaling enabled, growth-based
  /// inference per §5 is applied (count/sum scale by x̂/x; avg/var/stddev
  /// are ratio-invariant; count-distinct uses the MM1 estimator; min/max
  /// pass through). Output rows appear in group first-appearance order.
  AggResult Finalize(const AggScaling& scaling) const;

  size_t num_groups() const { return group_rows_.size(); }

  /// Approximate heap footprint in bytes (§8.2 memory accounting): the
  /// key frame and its indexes, the accumulators, and the distinct
  /// entries with their indexes.
  size_t ByteSize() const;

  /// Total input rows consumed (Σ x_i).
  size_t total_rows() const { return total_rows_; }

  /// Mean group cardinality x̄ (0 if no groups) — the growth-model input.
  double MeanGroupCardinality() const;

 private:
  // Accumulators are split hot/cold: the numeric merge loops touch only
  // 32-byte HotAccum entries, one dense array per aggregate (the whole
  // group state for a 16k-group aggregate then fits in L2 instead of
  // striding through wide structs). Cold payloads exist only for the
  // aggregates that need them (min/max/median).
  struct HotAccum {
    double sum = 0.0;
    double sumsq = 0.0;
    int64_t count = 0;        // non-null inputs; distinct values for
                              // count_distinct
    double var_in_sum = 0.0;  // accumulated input variance (CI)
  };
  struct ColdAccum {
    Value extreme;  // min/max payload
    bool has_extreme = false;
    std::vector<double> samples;  // median keeps the group's values (§5.3)
  };
  static bool NeedsCold(AggFunc func) {
    return func == AggFunc::kMin || func == AggFunc::kMax ||
           func == AggFunc::kMedian;
  }
  // count_distinct state of one aggregate: one entry per distinct (group,
  // value) pair. Entries chain in `index` under the value's
  // Column::HashRow seeded with a mix of the group id, and a lookup
  // verifies the group, then the value: strings by bytes (by code when
  // entry and row share a dict), doubles by bit pattern, integers by value.
  struct DistinctSet {
    FlatHashIndex index;
    std::vector<uint32_t> group;  // entry -> group id
    Column values;                // entry -> value
  };

  /// Adds the distinct non-null (gids[r], col[r]) pairs of one partial to
  /// `set`, counting each new pair in its group's hot.count.
  static void ConsumeDistinct(const Column& col, const uint32_t* gids,
                              size_t n, DistinctSet* set, HotAccum* hot);

  /// Appends one zeroed accumulator row (a new group) across all aggs.
  void AppendAccums();

  uint32_t FindOrCreateGroup(uint64_t hash, const DataFrame& partial,
                             const std::vector<size_t>& key_cols, size_t row,
                             const KeyEq& eq);

  /// Single string group key sharing the stored keys' dict: assigns
  /// group ids through the dense code→gid table (one array load per row,
  /// no hashing). Misses fall back to FindOrCreateGroup and are memoized.
  void AssignGroupsByCode(const DataFrame& partial,
                          const std::vector<size_t>& key_cols,
                          const Column& key_col, uint32_t* gids, size_t n);

  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
  Schema output_schema_;
  std::vector<size_t> agg_input_cols_;  // index into input schema; npos for *
  std::vector<size_t> stored_key_cols_;  // 0..k-1 into group_keys_

  DataFrame group_keys_;  // one row per group (group_by columns)
  // Key-hash -> group-id chains; keys verified on lookup, so hash
  // collisions between distinct group keys never merge.
  FlatHashIndex key_index_;
  // code→gid table for the single-dict-key fast path. Valid only while
  // group_keys_'s dict is the object `code_cache_dict_` points at: codes
  // are append-only within one dict, so entries can be missing but never
  // wrong; a dict pointer change (cross-dict COW) rebuilds from
  // group_keys_. FlatHashIndex::kNil marks unresolved entries.
  const StringDict* code_cache_dict_ = nullptr;
  std::vector<uint32_t> code_to_gid_;
  uint32_t null_gid_ = FlatHashIndex::kNil;
  std::vector<size_t> group_rows_;            // x_i per group
  std::vector<std::vector<HotAccum>> hot_;    // [agg][group]
  std::vector<std::vector<ColdAccum>> cold_;  // [agg][group]; empty unless
                                              // the agg NeedsCold
  std::vector<DistinctSet> distinct_;  // [agg]; used by count_distinct only
  size_t total_rows_ = 0;
};

}  // namespace wake

#endif  // WAKE_CORE_AGG_STATE_H_
