// Standing queries (Db::Subscribe): incremental maintenance of an
// aggregate over a live table.
//
// The invariant that makes this exact rather than approximate: a live
// table's rows have a stable global order (append order), and
// GroupedAggState is deterministic in consume order — folding deltas
// [0,a), [a,b), [b,c) serially leaves byte-identical state to folding
// [0,c) in one pass. So each Refresh() consumes only the rows between
// its watermark and the snapshot's end, and the finalized frame equals
// what the exact engine would produce from scratch over the same
// snapshot. The operators around the aggregate are the exact engine's
// own: each step runs through ExactEngine::Apply.
#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "api/db.h"
#include "baseline/exact_engine.h"
#include "common/error.h"
#include "core/agg_state.h"
#include "ingest/live_table.h"
#include "plan/props.h"
#include "sql/parser.h"

namespace wake {

struct Subscription::Impl {
  std::shared_ptr<LiveTable> live;
  PlanNodePtr scan;
  std::vector<PlanNodePtr> pre_ops;   // scan → aggregate input, in order
  PlanNodePtr agg;
  std::vector<PlanNodePtr> post_ops;  // aggregate output → root, in order
  Schema output_schema;

  mutable std::mutex mu;
  std::unique_ptr<GroupedAggState> state;  // persistent, serial
  bool primed = false;     // watermark initialized from the first snapshot
  uint64_t watermark = 0;  // rows below this global index are folded in
  bool emitted = false;
  SubscriptionState last;

  /// An empty frame with the scan's output columns, the seed deltas
  /// append onto.
  DataFrame EmptyScanFrame() const {
    const Schema& full = live->schema();
    if (scan->columns.empty()) return DataFrame(full);
    std::vector<Field> fields;
    fields.reserve(scan->columns.size());
    for (const auto& name : scan->columns) {
      fields.push_back(full.field(full.FieldIndex(name)));
    }
    return DataFrame(Schema(std::move(fields)));
  }

  std::optional<SubscriptionState> RefreshLocked() {
    const LiveSnapshot snap = live->SnapshotInfo();
    if (!primed) {
      watermark = snap.start_row;
      primed = true;
    }
    if (snap.start_row > watermark) {
      throw Error(
          "subscription on '" + live->name() + "' lost rows [" +
              std::to_string(watermark) + ", " +
              std::to_string(snap.start_row) +
              ") to retention before folding them; raise retain_tablets "
              "or refresh more often",
          ErrorCategory::kResourceExhausted);
    }
    if (emitted && snap.end_row == watermark) {
      if (snap.epoch == last.epoch) return std::nullopt;
      last.epoch = snap.epoch;  // seal/evict with no new rows: same data
      return last;
    }

    // Assemble the delta [watermark, end_row) in global row order, chunk
    // by chunk. Chunks wholly below the watermark are skipped; chunks at or
    // past it are read through the scan filter (block skipping); the one
    // chunk the watermark falls in is read unfiltered so row offsets stay
    // addressable, then sliced. The residual Filter in pre_ops removes
    // non-matching rows either way.
    DataFrame delta = EmptyScanFrame();
    for (const auto& t : snap.tablets) {
      if (t.start_row + t.rows <= watermark) continue;
      uint64_t chunk_start = t.start_row;
      for (size_t i = 0; i < t.table->num_chunks(); ++i) {
        const uint64_t begin = chunk_start;
        chunk_start += t.table->chunk_rows(i);
        if (chunk_start <= watermark) continue;
        if (begin >= watermark) {
          DataFramePtr chunk =
              t.table->ReadChunk(i, scan->columns, scan->scan_filter);
          if (chunk != nullptr) delta.Append(*chunk);
        } else {
          DataFramePtr chunk = t.table->ReadChunk(i, scan->columns);
          delta.Append(chunk->Slice(static_cast<size_t>(watermark - begin),
                                    chunk->num_rows()));
        }
      }
    }
    watermark = snap.end_row;

    if (delta.num_rows() > 0) {
      for (const auto& op : pre_ops) {
        delta = ExactEngine::Apply(*op, std::move(delta));
      }
      if (state == nullptr) {
        Schema agg_out =
            AggOutputSchema(delta.schema(), agg->group_by, agg->aggs);
        state = std::make_unique<GroupedAggState>(agg->group_by, agg->aggs,
                                                  delta.schema(),
                                                  std::move(agg_out));
      }
      state->Consume(delta);
    }

    DataFrame out(output_schema);  // nothing ingested yet
    if (state != nullptr) {
      out = state->Finalize(AggScaling{}).frame;
      for (const auto& op : post_ops) {
        out = ExactEngine::Apply(*op, std::move(out));
      }
    }
    last.epoch = snap.epoch;
    last.rows_covered = snap.end_row;
    last.frame = std::make_shared<DataFrame>(std::move(out));
    emitted = true;
    return last;
  }
};

Subscription::Subscription(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

Subscription::~Subscription() = default;

std::optional<SubscriptionState> Subscription::Refresh() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->RefreshLocked();
}

SubscriptionState Subscription::Current() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->last;
}

const Schema& Subscription::schema() const { return impl_->output_schema; }

std::unique_ptr<Subscription> Db::Subscribe(const std::string& sql) const {
  return Subscribe(sql::Parse(sql));
}

std::unique_ptr<Subscription> Db::Subscribe(const Plan& plan) const {
  PreparedQuery q = Prepare(plan);

  auto impl = std::make_unique<Subscription::Impl>();
  impl->output_schema = q.schema();

  // Decompose the optimized plan: [post_ops] over one kAggregate over
  // [pre_ops] over one kScan of a live table.
  PlanNodePtr n = q.plan().node();
  std::vector<PlanNodePtr> post;
  while (n != nullptr &&
         (n->op == PlanOp::kMap || n->op == PlanOp::kSortLimit)) {
    post.push_back(n);
    n = n->inputs.empty() ? nullptr : n->inputs[0];
  }
  CheckPlan(n != nullptr && n->op == PlanOp::kAggregate,
            "standing queries require a single aggregate "
            "(optionally under Map/SortLimit)");
  impl->agg = n;
  n = n->inputs[0];
  std::vector<PlanNodePtr> pre;
  while (n != nullptr && (n->op == PlanOp::kFilter || n->op == PlanOp::kMap)) {
    pre.push_back(n);
    n = n->inputs.empty() ? nullptr : n->inputs[0];
  }
  CheckPlan(n != nullptr && n->op == PlanOp::kScan,
            "standing queries read one table: aggregate input must be a "
            "Filter/Map chain over a single scan");
  impl->scan = n;
  // Chains were collected top-down; evaluation runs bottom-up.
  std::reverse(pre.begin(), pre.end());
  std::reverse(post.begin(), post.end());
  impl->pre_ops = std::move(pre);
  impl->post_ops = std::move(post);

  auto dyn = catalog_->GetDynamic(impl->scan->table);
  CheckPlan(dyn != nullptr,
            "standing queries require a live table; '" + impl->scan->table +
                "' is static");
  impl->live = std::dynamic_pointer_cast<LiveTable>(dyn);
  CheckPlan(impl->live != nullptr,
            "dynamic table '" + impl->scan->table +
                "' does not support subscriptions");

  return std::unique_ptr<Subscription>(new Subscription(std::move(impl)));
}

}  // namespace wake
