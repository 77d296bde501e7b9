#include "baseline/progressive_ola.h"

#include <algorithm>
#include <cmath>

#include "baseline/exact_engine.h"
#include "common/error.h"
#include "common/stopwatch.h"
#include "plan/props.h"

namespace wake {

namespace {

// Walks the single-input chain to the scan, validating the plan shape.
const PlanNode* FindScan(const PlanNodePtr& plan,
                         const PlanNode** agg_node) {
  const PlanNode* node = plan.get();
  while (node->op != PlanOp::kScan) {
    CheckArg(node->op != PlanOp::kJoin,
             "ProgressiveDB baseline supports single-table queries only");
    if (node->op == PlanOp::kAggregate) {
      CheckArg(*agg_node == nullptr,
               "ProgressiveDB baseline supports one aggregation level");
      *agg_node = node;
    }
    CheckArg(node->inputs.size() == 1, "unsupported plan shape");
    node = node->inputs[0].get();
  }
  return node;
}

}  // namespace

ProgressiveOla::ProgressiveOla(const Catalog* catalog) : catalog_(catalog) {
  CheckArg(catalog != nullptr, "null catalog");
}

void ProgressiveOla::Execute(const PlanNodePtr& plan,
                             const StateCallback& on_state,
                             const std::atomic<bool>* cancel,
                             ResourceTracker* tracker) {
  const PlanNode* agg_node = nullptr;
  const PlanNode* scan = FindScan(plan, &agg_node);
  CheckArg(agg_node != nullptr, "plan has no aggregation");
  // GetPtr: a dynamic (live) table resolves to one immutable snapshot
  // held for the whole run.
  TablePtr table_ptr = catalog_->GetPtr(scan->table);
  const PartitionedTable& table = *table_ptr;
  size_t total = table.total_rows();

  Stopwatch clock;
  // Projected scans re-accumulate only the plan's column list (the
  // middleware still re-executes per chunk, but over narrowed chunks).
  DataFrame accumulated(scan->columns.empty()
                            ? table.schema()
                            : table.schema().Select(scan->columns));
  size_t charged = 0;  // bytes of `accumulated` already on the tracker
  size_t seen = 0;
  size_t chunks = table.num_chunks();
  // A table without chunks (a fresh LiveTable) still ends in one final
  // state: the loop runs once over no rows.
  for (size_t i = 0; i < std::max<size_t>(chunks, 1); ++i) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw Error("query cancelled", ErrorCategory::kCancelled);
    }
    if (tracker != nullptr) {
      tracker->CheckBreach();
      // Degrade at the chunk boundary: the last emitted state already is
      // the best estimate over the data processed so far.
      if (tracker->breached()) return;
    }
    // Skipped chunks (block synopses refute the scan filter) still count
    // toward t: the estimate honestly covers their rows — they just
    // contribute none — so the 1/t scale-up stays unbiased.
    DataFramePtr chunk;
    if (i < chunks) {
      seen += table.chunk_rows(i);
      chunk = table.ReadChunk(i, scan->columns, scan->scan_filter);
    }
    bool is_final = i + 1 >= chunks;
    if (chunk == nullptr && !is_final) continue;
    if (chunk != nullptr) {
      accumulated.Append(*chunk);
      if (tracker != nullptr) {
        tracker->ChargeRows(chunk->num_rows());
        size_t held = accumulated.ByteSize();
        tracker->Charge(held > charged ? held - charged : 0);
        charged = held > charged ? held : charged;
      }
    }
    double t = total == 0 ? 1.0
                          : static_cast<double>(seen) /
                                static_cast<double>(total);

    // Middleware re-execution: run the whole query over all rows seen so
    // far through a scratch catalog (this is the per-chunk cost that the
    // incremental systems avoid).
    Catalog scratch;
    scratch.Add(std::make_shared<PartitionedTable>(
        PartitionedTable::FromDataFrame(scan->table, accumulated, 1)));
    ExactEngine engine(&scratch);
    DataFrame result = engine.Execute(plan);

    // Naive linear scale-up of sums and counts (1/t); avg/min/max pass
    // through unscaled.
    if (t < 1.0) {
      const Schema& schema = result.schema();
      for (const auto& agg : agg_node->aggs) {
        size_t idx = schema.FindField(agg.output);
        if (idx == Schema::npos) continue;
        Column* col = result.mutable_column(idx);
        if (agg.func == AggFunc::kSum) {
          if (col->type() == ValueType::kFloat64) {
            for (auto& v : *col->mutable_doubles()) v /= t;
          } else {
            for (auto& v : *col->mutable_ints()) {
              v = static_cast<int64_t>(std::llround(v / t));
            }
          }
        } else if (agg.func == AggFunc::kCount) {
          for (auto& v : *col->mutable_ints()) {
            v = static_cast<int64_t>(std::llround(v / t));
          }
        }
      }
    }

    OlaState state;
    state.frame = std::make_shared<DataFrame>(std::move(result));
    state.progress = t;
    state.is_final = is_final;
    state.elapsed_seconds = clock.ElapsedSeconds();
    on_state(state);
  }
}

}  // namespace wake
