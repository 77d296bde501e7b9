// Workload live: lineitem rows generated in set-up are appended in fixed
// batches at a fixed rate to a LiveTable that spills sealed tablets as
// wakeblock. A Db::Subscribe Q1-style grouped aggregate is kept fresh, and
// ad-hoc OLA queries shaped like Q1 and Q6 run against the live table at a
// low fixed rate. Writes and reads share the storage and aggregation
// layers here.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/wire.h"
#include "ingest/live_table.h"
#include "server/protocol.h"
#include "tpch/dbgen.h"
#include "tpch/queries_sql.h"

namespace perfbench {
namespace {

constexpr size_t kBatchRows = 1024;
constexpr double kAppendsPerSecond = 50;
/// 32 appends fill a tablet, so about 3% of appends seal and flush.
constexpr size_t kSealRows = 32 * kBatchRows;
constexpr double kQueriesPerSecond = 10;
/// Sealed tablets the table holds before the timed phases start.
constexpr size_t kPreloadTablets = 4;
/// Scale of the generated history (enough for the preload) and of the
/// stream, which repeats once exhausted.
constexpr double kHistorySf = 0.025;
constexpr double kStreamSf = 0.05;

/// The standing query is checked against a from-scratch kExact query at
/// every this many appends, and at the end of each phase.
constexpr size_t kCheckEvery = 500;

struct PhaseResult {
  std::vector<double> append_ms, seal_ms, lag_ms, refresh_ms, delta_rows;
  std::vector<double> lateness_ms, query_first_ms;
  double appended_bytes = 0;
  /// Process CPU per append, with the refreshes and ad-hoc queries that
  /// ran beside it and without the benchmark's own correctness checks.
  double cpu_ms_per_append = 0;
  /// Sampled by the querier after each ad-hoc query.
  HostSpeed speed;
};

void SetLayer(Report* report, const std::string& name, double value,
              const std::string& unit, size_t samples = 0) {
  report->Set(name, value, unit, samples, LayerNote(name));
}

class LiveRun {
 public:
  LiveRun(const std::vector<wake::DataFrame>& batches, wake::LiveTable* live,
          const wake::Db& db, Tracer* tracer, Report* report)
      : batches_(batches),
        live_(live),
        tracer_(tracer),
        report_(report),
        subscription_(db.Subscribe(wake::tpch::QuerySql(1))),
        q1_(db.Prepare(wake::tpch::QuerySql(1))),
        q6_(db.Prepare(wake::tpch::QuerySql(6))) {}

  /// Appends `history` untimed and folds it into the standing query, so
  /// the timed phases start from a table with sealed history.
  void Preload(const std::vector<wake::DataFrame>& history) {
    for (const wake::DataFrame& batch : history) {
      live_->Append(batch);
      rows_ += batch.num_rows();
    }
    subscription_->Refresh();
    last_covered_ = covered_ = rows_;
  }

  /// Appends, refreshes and queries for `seconds`; returns the samples.
  PhaseResult Phase(double seconds) {
    PhaseResult out;
    size_t appends = static_cast<size_t>(seconds * kAppendsPerSecond);
    start_ms_.assign(appends, 0);
    end_row_.assign(appends, 0);
    lag_ms_.assign(appends, -1);
    published_.store(0);
    stop_ = false;
    check_cpu_s_ = 0;
    calibration_s_ = 0;
    double cpu0 = CpuSeconds();
    std::thread refresher([&] { Refresher(&out); });
    std::thread querier([&] { Querier(seconds, &out); });
    Appender(appends, &out);
    querier.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    refresher.join();
    double cpu_s = CpuSeconds() - cpu0 - check_cpu_s_ - calibration_s_;
    out.cpu_ms_per_append =
        cpu_s * 1000.0 / static_cast<double>(std::max<size_t>(1, appends));
    for (double lag : lag_ms_) out.lag_ms.push_back(lag);
    return out;
  }

 private:
  double NowMs() const { return MsBetween(epoch_, Clock::now()); }

  /// Sends batches on a fixed schedule; time spent in correctness checks
  /// shifts the schedule instead of counting as lateness.
  void Appender(size_t appends, PhaseResult* out) {
    auto due = Clock::now();
    const auto gap = std::chrono::microseconds(
        static_cast<int64_t>(1e6 / kAppendsPerSecond));
    for (size_t i = 0; i < appends; ++i) {
      due += gap;
      std::this_thread::sleep_until(due);
      out->lateness_ms.push_back(MsBetween(due, Clock::now()));
      const wake::DataFrame& batch = batches_[next_batch_++ % batches_.size()];
      size_t sealed_before = live_->stats().cold_tablets;
      start_ms_[i] = NowMs();
      {
        Span s(tracer_, "ingest.append", tracer_->NewRequest());
        live_->Append(batch);
      }
      double ms = NowMs() - start_ms_[i];
      out->append_ms.push_back(ms);
      if (live_->stats().cold_tablets != sealed_before) {
        out->seal_ms.push_back(ms);
      }
      out->appended_bytes += static_cast<double>(batch.ByteSize());
      rows_ += batch.num_rows();
      end_row_[i] = rows_;
      published_.store(i + 1, std::memory_order_release);
      cv_.notify_all();
      if ((i + 1) % kCheckEvery == 0 || i + 1 == appends) {
        auto pause = Clock::now();
        double cpu0 = CpuSeconds();
        CheckStanding();
        check_cpu_s_ += CpuSeconds() - cpu0;
        due += Clock::now() - pause;
      }
    }
  }

  /// Waits until the subscription covers every appended row, then compares
  /// it with a from-scratch kExact query over the same epoch (the appender
  /// is the only writer and is paused here).
  void CheckStanding() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return covered_ >= rows_; });
    }
    wake::SubscriptionState state = subscription_->Current();
    wake::RunOptions exact;
    exact.engine = wake::QueryEngine::kExact;
    Span s(tracer_, "baseline.exact", tracer_->NewRequest());
    uint64_t epoch = live_->stats().epoch;
    wake::DataFrame want = q1_.Execute(exact);
    bool ok = state.frame != nullptr && state.epoch == epoch &&
              WireBytes(*state.frame) == WireBytes(want);
    if (!ok) {
      std::fprintf(stderr, "live: standing Q1 at epoch %llu differs from "
                           "kExact\n",
                   static_cast<unsigned long long>(state.epoch));
    }
    report_->Check(ok);
  }

  /// Keeps the standing query fresh: refreshes whenever rows arrived and
  /// stamps every append with the first emission that covers its rows.
  void Refresher(PhaseResult* out) {
    size_t assigned = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return stop_ || published_.load(std::memory_order_acquire) >
                              assigned;
        });
        if (stop_ && published_.load() == assigned) return;
      }
      size_t published = published_.load(std::memory_order_acquire);
      // An earlier emission may already cover appends published since.
      while (assigned < published && end_row_[assigned] <= last_covered_) {
        lag_ms_[assigned] = last_emit_ms_ - start_ms_[assigned];
        ++assigned;
      }
      if (assigned == published) continue;
      double r0 = NowMs();
      std::optional<wake::SubscriptionState> state;
      {
        Span s(tracer_, "subscribe.refresh", tracer_->NewRequest());
        state = subscription_->Refresh();
      }
      if (!state) continue;
      last_emit_ms_ = NowMs();
      out->refresh_ms.push_back(last_emit_ms_ - r0);
      out->delta_rows.push_back(
          static_cast<double>(state->rows_covered - last_covered_));
      last_covered_ = state->rows_covered;
      {
        std::lock_guard<std::mutex> lock(mu_);
        covered_ = last_covered_;
      }
      cv_.notify_all();
    }
  }

  /// Ad-hoc OLA queries, alternating Q1 and Q6. All of them run, late or
  /// not, so a phase does the same work on a slow host as on a fast one.
  void Querier(double seconds, PhaseResult* out) {
    auto due = Clock::now();
    const auto gap = std::chrono::microseconds(
        static_cast<int64_t>(1e6 / kQueriesPerSecond));
    size_t n = static_cast<size_t>(seconds * kQueriesPerSecond);
    for (size_t i = 0; i < n; ++i) {
      due += gap;
      std::this_thread::sleep_until(due);
      const wake::PreparedQuery& q = i % 2 == 0 ? q1_ : q6_;
      double first_ms = -1, last_ms = 0;
      wake::DataFramePtr final_frame;
      try {
        Span request(tracer_, "bench.live_query", tracer_->NewRequest());
        auto t0 = Clock::now();
        std::optional<wake::QueryHandle> h;
        {
          Span s(tracer_, "api.run_start");
          h.emplace(q.Run());
        }
        Span s(tracer_, "api.stream");
        while (auto st = h->Next()) {
          double ms = MsBetween(t0, Clock::now());
          if (first_ms < 0 && st->frame != nullptr &&
              st->frame->num_rows() > 0) {
            first_ms = ms;
          }
          last_ms = ms;
          if (st->is_final) final_frame = st->frame;
        }
        h->Final();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "live: ad-hoc query failed: %s\n", e.what());
      }
      calibration_s_ += out->speed.Sample();
      report_->Check(final_frame != nullptr);
      if (final_frame == nullptr) continue;
      out->query_first_ms.push_back(first_ms < 0 ? last_ms : first_ms);
    }
  }

  const std::vector<wake::DataFrame>& batches_;
  wake::LiveTable* live_;
  Tracer* tracer_;
  Report* report_;
  std::unique_ptr<wake::Subscription> subscription_;
  wake::PreparedQuery q1_, q6_;
  const Clock::time_point epoch_ = Clock::now();

  // Appender-owned; published to the refresher through published_.
  size_t next_batch_ = 0;
  uint64_t rows_ = 0;
  std::vector<double> start_ms_;
  std::vector<uint64_t> end_row_;
  std::atomic<size_t> published_{0};
  double check_cpu_s_ = 0;
  // Querier-owned until Phase() joins it.
  double calibration_s_ = 0;
  // Refresher-owned until Phase() joins it.
  std::vector<double> lag_ms_;
  uint64_t last_covered_ = 0;
  double last_emit_ms_ = 0;

  std::mutex mu_;  // guards stop_ and covered_
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t covered_ = 0;
};

/// Bytes of every file under `dir`.
double DirBytes(const std::string& dir) {
  double bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

void ReportPhase(const PhaseResult& p, Report* report) {
  size_t lags = p.lag_ms.size();
  SetCpuPerRequest(report, p.cpu_ms_per_append, p.speed, p.append_ms.size(),
                   "append, with its share of refreshes and ad-hoc queries");
  report->Set("fresh_lag_ms.p50", Percentile(p.lag_ms, 0.5), "ms", lags);
  report->Set("fresh_lag_ms.p99", Percentile(p.lag_ms, 0.99), "ms", lags);
  report->Set("append_ms.p99", Percentile(p.append_ms, 0.99), "ms",
              p.append_ms.size());
  report->Set("live_query_first_ms.p50", Median(p.query_first_ms), "ms",
              p.query_first_ms.size());
  report->Set("load.lateness_ms.p99", Percentile(p.lateness_ms, 0.99), "ms",
              p.lateness_ms.size(), LayerNote("load.lateness_ms.p99"));
}

/// lineitem at `sf` in kBatchRows-row batches, in generation order.
std::vector<wake::DataFrame> Batches(double sf, uint64_t dbgen_seed,
                                     wake::Schema* schema) {
  wake::tpch::DbgenConfig cfg;
  cfg.scale_factor = sf;
  cfg.partitions = 8;
  cfg.seed = dbgen_seed;
  wake::PartitionedTable base = wake::tpch::GenerateTable(cfg, "lineitem");
  *schema = base.schema();
  std::vector<wake::DataFrame> batches;
  for (size_t p = 0; p < base.num_partitions(); ++p) {
    const wake::DataFrame& part = *base.partition(p);
    for (size_t b = 0; b + kBatchRows <= part.num_rows(); b += kBatchRows) {
      // A slice shares the partition's whole string dictionaries; the wire
      // round trip gives each batch its own, as rows arriving over
      // Client::Ingest have.
      wake::wire::WireWriter w;
      wake::protocol::EncodeDataFrame(part.Slice(b, b + kBatchRows), &w);
      std::string bytes = w.Take();
      wake::wire::WireReader r(bytes);
      batches.push_back(wake::protocol::DecodeDataFrame(&r));
    }
  }
  return batches;
}

}  // namespace

void RunLive(const Args& args, Report* report, Tracer* tracer) {
  const size_t preload = kPreloadTablets * kSealRows / kBatchRows;
  const int setup_reps = args.tiny ? 1 : 3;
  const std::string spill = args.out_dir + "/live-spill";

  // The table's history is the same for every seed: ad-hoc OLA estimates
  // come from its first tablets, so their error stays a property of the
  // engine rather than of one seed's first rows. The seed drives the
  // stream appended on top.
  std::vector<wake::DataFrame> history, stream;
  wake::Schema schema;
  double gen_s = MedianSeconds(setup_reps, [&] {
    history = Batches(args.tiny ? 0.005 : kHistorySf, DbgenSeed(0), &schema);
    history.resize(std::min(history.size(), preload));
    stream = Batches(args.tiny ? 0.005 : kStreamSf, DbgenSeed(args.seed),
                     &schema);
  });
  auto t0 = Clock::now();
  std::filesystem::remove_all(spill);
  wake::LiveTableOptions live_options;
  live_options.seal_rows = kSealRows;
  live_options.spill_dir = spill;
  auto live =
      std::make_shared<wake::LiveTable>("lineitem", schema, live_options);
  wake::Catalog catalog;
  catalog.AddDynamic(live);
  wake::DbOptions db_options;
  db_options.workers = args.nproc;
  wake::Db db(&catalog, db_options);
  LiveRun run(stream, live.get(), db, tracer, report);
  run.Preload(history);
  report->Set("setup_s", gen_s + MsBetween(t0, Clock::now()) / 1000.0, "s",
              setup_reps);
  ResetPeakRss();
  report->Info("data", "history_sf=" + std::to_string(kHistorySf) +
                           " stream_sf=" + std::to_string(kStreamSf) +
                           " batch_rows=" + std::to_string(kBatchRows) +
                           " appends_per_s=" +
                           std::to_string(kAppendsPerSecond) +
                           " seal_rows=" + std::to_string(kSealRows) +
                           " spill=wakeblock seed=" +
                           std::to_string(args.seed) +
                           " workers=" + std::to_string(args.nproc));

  PhaseResult untraced =
      run.Phase(args.trace ? args.seconds / 2 : args.seconds);
  ReportPhase(untraced, report);
  if (args.trace) {
    tracer->set_enabled(true);
    PhaseResult traced;
    size_t threads_peak = 0;
    {
      ThreadSampler sampler;
      traced = run.Phase(args.seconds / 2);
      threads_peak = sampler.peak();
    }
    report->Set("trace.overhead_ms",
                Percentile(traced.lag_ms, 0.5) -
                    Percentile(untraced.lag_ms, 0.5),
                "ms", traced.lag_ms.size(), LayerNote("trace.overhead_ms"));
    SetLayer(report, "exec.threads_peak", static_cast<double>(threads_peak),
             "count");
    SetLayer(report, "ingest.append_ms.p50", Percentile(traced.append_ms, 0.5),
             "ms", traced.append_ms.size());
    SetLayer(report, "ingest.seal_ms", Mean(traced.seal_ms), "ms",
             traced.seal_ms.size());
    SetLayer(report, "storage.write_amp",
             DirBytes(spill) /
                 (untraced.appended_bytes + traced.appended_bytes),
             "ratio");
    SetLayer(report, "subscribe.refresh_ms.p50",
             Percentile(traced.refresh_ms, 0.5), "ms",
             traced.refresh_ms.size());
    SetLayer(report, "subscribe.refresh_ms.p99",
             Percentile(traced.refresh_ms, 0.99), "ms",
             traced.refresh_ms.size());
    SetLayer(report, "subscribe.delta_rows", Mean(traced.delta_rows), "rows",
             traced.delta_rows.size());
    SetLayer(report, "load.lateness_ms.p99",
             Percentile(traced.lateness_ms, 0.99), "ms",
             traced.lateness_ms.size());
    ReplayQueries(db, {wake::tpch::QuerySql(1), wake::tpch::QuerySql(6)},
                  tracer, report);
    ReplayKernels(catalog, tracer, report);
  }
  report->Set("failed_share",
              static_cast<double>(report->failed) /
                  static_cast<double>(std::max<uint64_t>(1, report->attempted)),
              "fraction", report->attempted);
  report->checks_ran = true;
}

}  // namespace perfbench
