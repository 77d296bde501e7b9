// Wake's operator nodes: the edf state-transformation machinery of §4.3,
// one ExecNode subclass per operator family.
//
//  ReaderNode      reads base-table partitions, emits append partials with
//                  progress t = tuples read / total tuples (§4.4).
//  MapNode         Case 1 projection (per-partial; variance propagation via
//                  first-order Taylor when CI mode is on).
//  FilterNode      Case 1 selection; recomputes per snapshot on refresh
//                  inputs (Case 3 for mutable-attribute predicates).
//  HashJoinNode    right side is the build table; build input is consumed
//                  to EOF before probing (mutable build attributes must
//                  block, §3.3) and indexed once, at build EOF; probe
//                  partials stream through.
//  MergeJoinNode   progressive merge join for inputs clustered on the join
//                  keys: the right side accumulates behind a key watermark,
//                  the last right key seen; left rows strictly below it
//                  emit, since that key may continue in the next partial.
//  LocalAggNode    Case 1 aggregation (group keys cover the clustering
//                  key); the last key's rows are held back until a larger
//                  key or the end of the input, since a key's rows may
//                  continue into the next partial.
//  ShuffleAggNode  Case 2 aggregation with growth-based inference: merges
//                  partials into intrinsic state, fits the growth model,
//                  emits scaled extrinsic snapshots (§5), optionally with
//                  variance output (§6).
//  SortLimitNode   Case 3: re-sorts the full current content per state.
//
// Final-only nodes. A hash join reads its build side only at build EOF,
// when just the last build state counts, so a node that every path from
// the query root reaches through a join's build input has no reader for
// its intermediate states. WakeEngine marks such nodes
// NodeOptions::final_only, and the two snapshot-producing nodes then
// compute one state instead of one per input partial: ShuffleAggNode
// still consumes every partial and fits growth, but emits only its
// Finish() snapshot; SortLimitNode sorts and emits only in Finish(). The
// states the query root delivers are unchanged.
#ifndef WAKE_CORE_NODES_H_
#define WAKE_CORE_NODES_H_

#include <functional>
#include <memory>
#include <optional>

#include "core/agg_state.h"
#include "core/growth.h"
#include "core/join_kernel.h"
#include "exec/exec_node.h"
#include "plan/props.h"
#include "storage/partitioned_table.h"

namespace wake {

/// Shared node configuration.
struct NodeOptions {
  bool with_ci = false;
  /// Ablation knob: when >= 0, shuffle aggregations use this fixed growth
  /// power instead of the fitted one (e.g. 1.0 reproduces naive linear
  /// 1/t scaling — what Wake would do without §5.2's growth model).
  double fixed_growth_w = -1.0;
  /// Worker pool for the one intra-operator parallel loop: a hash join's
  /// probe splits a large partial into row-range morsels run across the
  /// pool (the node thread participates); every other operator body is
  /// serial. Null = a serial probe. Results are deterministic at any
  /// worker count — morsel decomposition depends only on the input, and
  /// outputs are stitched in morsel order.
  WorkerPool* pool = nullptr;
  /// Only this node's last state has a reader (see the file comment):
  /// ShuffleAggNode and SortLimitNode then emit once, from Finish(), and
  /// after a budget drain that emit is the estimate at progress < 1.
  /// Other nodes ignore it. Set by WakeEngine from the plan.
  bool final_only = false;
};

/// Base-table reader (the paper's read_csv / table-reader node). Streams
/// the table chunk by chunk (partitions for eager tables, row blocks for
/// wakeblock-backed ones). A non-empty `columns` list makes the scan
/// projected: each chunk is narrowed as it is emitted (copying only the
/// selected columns, one chunk in flight at a time) rather than
/// materializing a narrowed copy of the whole table up front. A `filter`
/// lets synopsis-carrying storage skip refuted chunks before decode;
/// skipped rows still advance progress (they contribute no matching
/// rows, so the partial genuinely covers them).
class ReaderNode : public ExecNode {
 public:
  explicit ReaderNode(TablePtr table, std::vector<std::string> columns = {},
                      ExprPtr filter = nullptr);
  size_t BufferedBytes() const override { return 0; }

 protected:
  void Process(size_t, const Message&) override {}
  void RunSource() override;

 private:
  TablePtr table_;
  std::vector<std::string> columns_;  // empty = all
  ExprPtr filter_;                    // advisory block pruning; may be null
  Schema narrowed_schema_;            // key-aware (set iff columns_ set)
};

/// Projection (map). Stateless: one output partial per input partial.
class MapNode : public ExecNode {
 public:
  MapNode(const PlanNode& plan, const Schema& output_schema,
          NodeOptions options);

 protected:
  void Process(size_t port, const Message& msg) override;

 private:
  std::vector<NamedExpr> projections_;
  bool append_input_;
  Schema output_schema_;
  NodeOptions options_;
};

/// Selection (filter). Stateless.
class FilterNode : public ExecNode {
 public:
  FilterNode(ExprPtr predicate, NodeOptions options);

 protected:
  void Process(size_t port, const Message& msg) override;

 private:
  ExprPtr predicate_;
  NodeOptions options_;
};

/// Hash join; port 0 = probe (left), port 1 = build (right).
class HashJoinNode : public ExecNode {
 public:
  HashJoinNode(const PlanNode& plan, const Schema& right_schema,
               const Schema& output_schema, NodeOptions options);
  size_t BufferedBytes() const override;

 protected:
  void Process(size_t port, const Message& msg) override;
  void OnInputClosed(size_t port) override;

 private:
  void ProbeAndEmit(const Message& msg);

  JoinType join_type_;
  std::vector<std::string> left_keys_;
  Schema output_schema_;
  NodeOptions options_;
  JoinHashTable table_;                  // filled at build EOF
  std::vector<Message> build_partials_;  // held until build EOF
  std::vector<Message> pending_probe_;   // buffered until build EOF
  bool build_done_ = false;
};

/// Progressive merge join for append inputs clustered on the join keys;
/// port 0 = left, port 1 = right. Right partials are indexed as they
/// arrive. A left row is probed once its key is strictly below the last
/// right key seen (that key's run may continue in the next right
/// partial), or once the right input closes. Every key it probes is then
/// complete on the right, so inner, left, semi and anti joins all merge.
class MergeJoinNode : public ExecNode {
 public:
  MergeJoinNode(const PlanNode& plan, const Schema& left_schema,
                const Schema& right_schema, const Schema& output_schema,
                NodeOptions options);
  size_t BufferedBytes() const override;

 protected:
  void Process(size_t port, const Message& msg) override;
  void OnInputClosed(size_t port) override;

 private:
  void EmitReady();
  /// True if the key of `left_row` (in left_pending_) is strictly below
  /// the key of the last right row indexed so far.
  bool BelowWatermark(size_t left_row) const;

  JoinType join_type_;
  std::vector<std::string> left_keys_;
  Schema left_schema_;
  Schema output_schema_;
  NodeOptions options_;
  JoinHashTable table_;
  DataFrame left_pending_;
  size_t left_consumed_ = 0;  // emitted prefix of left_pending_
  std::vector<size_t> left_key_cols_;
  std::vector<size_t> right_key_cols_;  // in table_'s build frame
  bool right_done_ = false;
  double left_progress_ = 0.0;
  double right_progress_ = 0.0;
  double last_emitted_progress_ = -1.0;
};

/// Case 1 aggregation over clustering-key groups. Input arrives in
/// non-decreasing key order, so every group but the last one seen is
/// complete; that one is held back until a larger key or the end of the
/// input arrives, then each group is finalized exactly, once.
class LocalAggNode : public ExecNode {
 public:
  LocalAggNode(const PlanNode& plan, const Schema& input_schema,
               const Schema& output_schema, NodeOptions options);
  size_t BufferedBytes() const override;

 protected:
  void Process(size_t port, const Message& msg) override;
  void Finish() override;

 private:
  void EmitComplete(const DataFrame& complete, double progress);

  Schema input_schema_;
  Schema output_schema_;
  std::vector<std::string> cluster_key_;
  DataFrame pending_;  // rows whose clustering key may continue
  GroupedAggState state_;  // one emitted batch at a time; Reset after each
  double last_progress_ = 0.0;
};

/// Case 2 aggregation with growth-based inference (§5).
class ShuffleAggNode : public ExecNode {
 public:
  ShuffleAggNode(const PlanNode& plan, const Schema& input_schema,
                 const Schema& output_schema, NodeOptions options);
  size_t BufferedBytes() const override;

  const GrowthModel& growth() const { return growth_; }

 protected:
  void Process(size_t port, const Message& msg) override;
  void Finish() override;

 private:
  /// `keep_scaling` keeps growth-based scaling enabled on a final
  /// snapshot — used when a budget drain truncated the input and the
  /// "final" state is still an estimate at `progress` < 1.
  void EmitSnapshot(double progress, bool final_snapshot,
                    bool keep_scaling = false);

  Schema output_schema_;
  NodeOptions options_;
  GroupedAggState state_;
  GrowthModel growth_;
  double last_progress_ = 0.0;
  bool emitted_final_ = false;
};

/// Case 3 sort/limit: recompute per state (once, in Finish(), when
/// final-only).
class SortLimitNode : public ExecNode {
 public:
  SortLimitNode(const PlanNode& plan, const Schema& schema,
                NodeOptions options);
  size_t BufferedBytes() const override;

 protected:
  void Process(size_t port, const Message& msg) override;
  void Finish() override;

 private:
  void EmitSorted();
  /// The full current content: the last refresh frame, or the appends.
  const DataFrame& content() const {
    return snapshot_ != nullptr ? *snapshot_ : appended_;
  }

  std::vector<SortKey> sort_keys_;
  std::optional<size_t> limit_;
  Schema schema_;
  NodeOptions options_;
  DataFramePtr snapshot_;  // last refresh-mode input, shared with its sender
  DataFrame appended_;     // append-mode input (after any refresh)
  bool has_input_ = false;
  double last_progress_ = 0.0;
};

}  // namespace wake

#endif  // WAKE_CORE_NODES_H_
