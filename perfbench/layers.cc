// Per-layer replays for the traced pass: each times one public call of one
// layer on the workload's own data and query set.
#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "bench.h"
#include "core/agg_state.h"
#include "core/engine.h"
#include "core/join_kernel.h"
#include "plan/optimizer.h"
#include "plan/props.h"
#include "server/protocol.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

using wake::DataFrame;
using wake::DataFramePtr;
using wake::PlanNode;
using wake::PlanNodePtr;
using wake::PlanOp;

/// Replays touch at most this many chunks per scan, which bounds a
/// replay's run time at any scale factor.
constexpr size_t kMaxReplayChunks = 64;

void SetLayer(Report* report, const std::string& name, double value,
              const std::string& unit, size_t samples = 0) {
  report->Set(name, value, unit, samples, LayerNote(name));
}

/// Sums BlockTable::stats() over every wakeblock-backed table (or live
/// tablet) the catalog currently serves.
wake::wakeblock::ScanStats ScanStatsSum(const wake::Catalog& catalog) {
  wake::wakeblock::ScanStats sum;
  std::set<const wake::wakeblock::BlockTable*> seen;
  std::function<void(const wake::PartitionedTable&)> add =
      [&](const wake::PartitionedTable& t) {
        if (t.lazy() && seen.insert(t.block_source().get()).second) {
          wake::wakeblock::ScanStats s = t.block_source()->stats();
          sum.blocks_read += s.blocks_read;
          sum.blocks_skipped += s.blocks_skipped;
        }
        for (const auto& seg : t.segments()) add(*seg);
      };
  for (const std::string& name : catalog.TableNames()) {
    add(*catalog.GetPtr(name));
  }
  return sum;
}

/// Node kind of an exec trace label: readers are "read(<table>)", other
/// nodes carry their plan label (see src/plan/plan.cc).
std::string KindOf(const std::string& label) {
  if (label.rfind("read(", 0) == 0) return "read";
  if (label == "derive") return "map";
  return label;
}

void CollectNodes(const PlanNodePtr& node, const PlanNode* parent,
                  std::vector<std::pair<const PlanNode*, const PlanNode*>>*
                      out) {
  out->emplace_back(node.get(), parent);
  for (const auto& in : node->inputs) CollectNodes(in, node.get(), out);
}

std::vector<DataFramePtr> ReadChunks(const wake::PartitionedTable& table,
                                     const std::vector<std::string>& columns,
                                     const wake::ExprPtr& filter,
                                     size_t* rows_read) {
  std::vector<DataFramePtr> chunks;
  size_t n = std::min(table.num_chunks(), kMaxReplayChunks);
  for (size_t i = 0; i < n; ++i) {
    DataFramePtr c = table.ReadChunk(i, columns, filter);
    if (c == nullptr) continue;
    if (rows_read != nullptr) *rows_read += c->num_rows();
    chunks.push_back(std::move(c));
  }
  return chunks;
}

}  // namespace

void ReplayQueries(const wake::Db& db, const std::vector<std::string>& sqls,
                   Tracer* tracer, Report* report) {
  const wake::Catalog& catalog = db.catalog();
  double parse_ms = 0, optimize_ms = 0, prepare_ms = 0, run_start_ms = 0;
  double decode_ms = 0, filter_ms = 0, encode_ms = 0;
  size_t decode_rows = 0, filter_rows = 0, encoded = 0, encoded_bytes = 0;
  double states = 0, state_rows = 0, first_progress = 0;
  size_t late_first = 0, blocks_read = 0, blocks_skipped = 0;
  std::map<std::string, double> busy, idle;
  for (const std::string& sql : sqls) {
    auto t0 = Clock::now();
    {
      Span s(tracer, "sql.parse");
      wake::Plan parsed = wake::sql::Parse(sql);
      auto t1 = Clock::now();
      parse_ms += MsBetween(t0, t1);
      Span o(tracer, "plan.optimize");
      wake::Optimize(parsed, catalog);
      optimize_ms += MsBetween(t1, Clock::now());
    }
    t0 = Clock::now();
    wake::PreparedQuery pq = [&] {
      Span s(tracer, "api.prepare");
      return db.Prepare(sql);
    }();
    prepare_ms += MsBetween(t0, Clock::now());

    // One in-process OLA run: Run() latency, states, block counters, and
    // the wire encoding of every state.
    wake::wakeblock::ScanStats before = ScanStatsSum(catalog);
    std::vector<wake::OlaState> seen;
    double first_ms = -1, final_ms = 0, progress_at_first = 1;
    {
      Span request(tracer, "bench.replay_query", tracer->NewRequest());
      t0 = Clock::now();
      std::optional<wake::QueryHandle> h;
      {
        Span s(tracer, "api.run_start");
        h.emplace(pq.Run());
      }
      run_start_ms += MsBetween(t0, Clock::now());
      Span s(tracer, "api.stream");
      while (auto st = h->Next()) {
        double ms = MsBetween(t0, Clock::now());
        if (first_ms < 0 && st->frame != nullptr && st->frame->num_rows() > 0) {
          first_ms = ms;
          progress_at_first = st->progress;
        }
        if (st->is_final) final_ms = ms;
        seen.push_back(std::move(*st));
      }
      h->Final();  // rethrows a failed run
    }
    wake::wakeblock::ScanStats after = ScanStatsSum(catalog);
    blocks_read += after.blocks_read - before.blocks_read;
    blocks_skipped += after.blocks_skipped - before.blocks_skipped;
    if (first_ms < 0) first_ms = final_ms;
    if (first_ms >= 0.9 * final_ms) ++late_first;
    first_progress += progress_at_first;
    states += static_cast<double>(seen.size());
    for (const wake::OlaState& st : seen) {
      if (st.frame != nullptr) state_rows += st.frame->num_rows();
      wake::protocol::Snapshot snap;
      snap.query_id = 1;
      snap.is_final = st.is_final;
      snap.progress = st.progress;
      snap.elapsed_seconds = st.elapsed_seconds;
      snap.frame = st.frame;
      snap.variances = st.variances;
      auto e0 = Clock::now();
      Span s(tracer, "wire.encode");
      encoded_bytes += wake::protocol::Encode(snap).size();
      encode_ms += MsBetween(e0, Clock::now());
      ++encoded;
    }

    // The same plan under the engine's own node tracing.
    {
      wake::WakeOptions options;
      options.trace = true;
      options.pool = db.pool();
      wake::WakeEngine engine(&catalog, options);
      Span s(tracer, "exec.traced_run");
      auto run = engine.Start(pq.plan().node());
      auto r0 = Clock::now();
      run->Collect(nullptr);
      double wall_ms = MsBetween(r0, Clock::now());
      std::map<std::string, double> busy_by_label;
      for (const wake::TraceSpan& span : run->trace_spans()) {
        std::string label = span.node;
        size_t colon = label.rfind(":finish");
        if (colon != std::string::npos) label.resize(colon);
        busy_by_label[label] +=
            (span.end_seconds - span.start_seconds) * 1000.0;
      }
      for (const auto& [label, ms] : busy_by_label) {
        busy[KindOf(label)] += ms;
        idle[KindOf(label)] += std::max(0.0, wall_ms - ms);
      }
    }

    // Scans of the optimized plan with their pruning filter, and the
    // filters sitting directly on them.
    std::vector<std::pair<const PlanNode*, const PlanNode*>> nodes;
    CollectNodes(pq.plan().node(), nullptr, &nodes);
    for (const auto& [node, parent] : nodes) {
      if (node->op != PlanOp::kScan) continue;
      wake::TablePtr table = catalog.GetPtr(node->table);
      auto d0 = Clock::now();
      std::vector<DataFramePtr> chunks;
      {
        Span s(tracer, "storage.read_chunk");
        chunks = ReadChunks(*table, node->columns, node->scan_filter,
                            &decode_rows);
      }
      decode_ms += MsBetween(d0, Clock::now());
      if (parent == nullptr || parent->op != PlanOp::kFilter) continue;
      auto f0 = Clock::now();
      Span s(tracer, "frame.filter");
      for (const DataFramePtr& c : chunks) {
        DataFrame kept = c->FilterBy(parent->predicate->Eval(*c));
        filter_rows += c->num_rows();
        (void)kept;
      }
      filter_ms += MsBetween(f0, Clock::now());
    }
  }
  double n = static_cast<double>(std::max<size_t>(1, sqls.size()));
  size_t q = sqls.size();
  SetLayer(report, "sql.parse_ms", parse_ms / n, "ms", q);
  SetLayer(report, "plan.optimize_ms", optimize_ms / n, "ms", q);
  SetLayer(report, "api.prepare_ms", prepare_ms / n, "ms", q);
  SetLayer(report, "api.run_start_ms", run_start_ms / n, "ms", q);
  SetLayer(report, "api.states", states / n, "count", q);
  SetLayer(report, "api.state_rows", state_rows / n, "count", q);
  SetLayer(report, "api.first_progress", first_progress / n, "fraction", q);
  SetLayer(report, "api.late_first_queries", static_cast<double>(late_first),
           "count", q);
  for (const auto& [kind, ms] : busy) {
    if (report->Has("exec.busy_ms." + kind)) {
      SetLayer(report, "exec.busy_ms." + kind, ms / n, "ms", q);
      SetLayer(report, "exec.idle_ms." + kind, idle[kind] / n, "ms", q);
    }
  }
  SetLayer(report, "storage.blocks_read", static_cast<double>(blocks_read),
           "count", q);
  SetLayer(report, "storage.blocks_skipped",
           static_cast<double>(blocks_skipped), "count", q);
  size_t blocks = blocks_read + blocks_skipped;
  SetLayer(report, "storage.skip_ratio",
           blocks == 0 ? 0.0 : static_cast<double>(blocks_skipped) / blocks,
           "fraction", q);
  SetLayer(report, "storage.decode_mrows_per_s",
           decode_ms > 0 ? decode_rows / decode_ms / 1000.0 : 0.0, "Mrows/s",
           decode_rows);
  SetLayer(report, "frame.filter_mrows_per_s",
           filter_ms > 0 ? filter_rows / filter_ms / 1000.0 : 0.0, "Mrows/s",
           filter_rows);
  SetLayer(report, "wire.encode_ms", encode_ms / n, "ms", encoded);
  SetLayer(report, "wire.snapshot_bytes",
           encoded == 0 ? 0.0 : static_cast<double>(encoded_bytes) / encoded,
           "bytes", encoded);
}

void ReplayKernels(const wake::Catalog& catalog, Tracer* tracer,
                   Report* report) {
  wake::TablePtr lineitem = catalog.GetPtr("lineitem");
  if (catalog.Has("orders")) {
    wake::TablePtr orders = catalog.GetPtr("orders");
    std::vector<std::string> ocols = {"o_orderkey", "o_orderdate",
                                      "o_shippriority"};
    std::vector<DataFramePtr> build;
    for (size_t i = 0; i < orders->num_chunks(); ++i) {
      build.push_back(orders->ReadChunk(i, ocols));
    }
    std::vector<DataFramePtr> probe = ReadChunks(
        *lineitem, {"l_orderkey", "l_extendedprice", "l_discount"}, nullptr,
        nullptr);
    if (!build.empty() && !probe.empty()) {
      wake::JoinHashTable table(build[0]->schema(), {"o_orderkey"});
      size_t build_rows = 0, probe_rows = 0;
      auto b0 = Clock::now();
      {
        Span s(tracer, "core.join_build");
        for (const DataFramePtr& c : build) {
          table.Insert(*c);
          build_rows += c->num_rows();
        }
      }
      double build_ms = MsBetween(b0, Clock::now());
      wake::Schema out = wake::JoinOutputSchema(
          probe[0]->schema(), build[0]->schema(), {"o_orderkey"},
          wake::JoinType::kInner);
      auto p0 = Clock::now();
      {
        Span s(tracer, "core.join_probe");
        for (const DataFramePtr& c : probe) {
          table.Probe(*c, {"l_orderkey"}, wake::JoinType::kInner, out);
          probe_rows += c->num_rows();
        }
      }
      double probe_ms = MsBetween(p0, Clock::now());
      SetLayer(report, "core.join_build_mrows_per_s",
               build_rows / std::max(build_ms, 1e-6) / 1000.0, "Mrows/s",
               build_rows);
      SetLayer(report, "core.join_probe_mrows_per_s",
               probe_rows / std::max(probe_ms, 1e-6) / 1000.0, "Mrows/s",
               probe_rows);
    }
  }

  // Grouped aggregation with the Q1 and Q18 groupings.
  std::vector<DataFramePtr> rows = ReadChunks(
      *lineitem,
      {"l_orderkey", "l_quantity", "l_extendedprice", "l_discount",
       "l_returnflag", "l_linestatus"},
      nullptr, nullptr);
  if (rows.empty()) return;
  const wake::Schema& in = rows[0]->schema();
  struct Grouping {
    std::vector<std::string> keys;
    std::vector<wake::AggSpec> aggs;
  };
  const std::vector<Grouping> groupings = {
      {{"l_returnflag", "l_linestatus"},
       {wake::Sum("l_quantity", "sum_qty"),
        wake::Sum("l_extendedprice", "sum_price"),
        wake::Avg("l_discount", "avg_disc"), wake::Count("count_order")}},
      {{"l_orderkey"}, {wake::Sum("l_quantity", "sum_qty")}},
  };
  double consume_ms = 0, finalize_ms = 0;
  size_t consumed = 0;
  for (const Grouping& g : groupings) {
    wake::GroupedAggState state(g.keys, g.aggs, in,
                                wake::AggOutputSchema(in, g.keys, g.aggs));
    auto c0 = Clock::now();
    {
      Span s(tracer, "core.agg_consume");
      for (const DataFramePtr& c : rows) {
        state.Consume(*c);
        consumed += c->num_rows();
      }
    }
    consume_ms += MsBetween(c0, Clock::now());
    auto f0 = Clock::now();
    Span s(tracer, "core.agg_finalize");
    state.Finalize(wake::AggScaling{});
    finalize_ms += MsBetween(f0, Clock::now());
  }
  SetLayer(report, "core.agg_consume_mrows_per_s",
           consumed / std::max(consume_ms, 1e-6) / 1000.0, "Mrows/s",
           consumed);
  SetLayer(report, "core.agg_finalize_ms", finalize_ms, "ms",
           groupings.size());
}

}  // namespace perfbench
