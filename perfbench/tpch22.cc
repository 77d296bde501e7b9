// Workload tpch22: the paper's own evaluation. All 22 TPC-H queries, one
// at a time and in-process through wake::Db, over wakeblock data, each
// round running every query under kExact and under kOla.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.h"
#include "tpch/queries_sql.h"

namespace perfbench {
namespace {

struct Query {
  int number = 0;
  std::string sql;
  std::optional<wake::PreparedQuery> prepared;
  wake::DataFrame truth;        // the kExact answer
  std::string truth_bytes;      // ... as bytes
  std::string ola_truth_bytes;  // the first kOla final (see RunTpch22)
};

/// Per-query samples of one pass. *_cpu are process CPU ms over the same
/// intervals as their wall-time namesakes; queries run one at a time, so
/// all of the process's CPU in an interval is that query's.
struct Samples {
  std::vector<double> first_ms, final_ms, exact_ms, auc;
  std::vector<double> first_cpu, final_cpu, exact_cpu;
};

/// One kOla run: time to the first non-empty state and to the final one,
/// and the error over time against the exact answer. Returns whether the
/// final is right; `final_out` (optional) receives it.
bool RunOla(const Query& q, Tracer* tracer, Samples* out,
            wake::DataFramePtr* final_out = nullptr) {
  std::vector<StatePoint> kept;
  double first_ms = -1, final_ms = -1, first_cpu = -1, final_cpu = -1;
  wake::DataFramePtr final_frame;
  {
    Span request(tracer, "bench.ola_query", tracer->NewRequest());
    auto t0 = Clock::now();
    double cpu0 = CpuSeconds();
    std::optional<wake::QueryHandle> h;
    {
      Span s(tracer, "api.run_start");
      h.emplace(q.prepared->Run());
    }
    Span s(tracer, "api.stream");
    while (auto st = h->Next()) {
      double ms = MsBetween(t0, Clock::now());
      double cpu = (CpuSeconds() - cpu0) * 1000.0;
      if (first_ms < 0 && st->frame != nullptr && st->frame->num_rows() > 0) {
        first_ms = ms;
        first_cpu = cpu;
      }
      if (ms < kErrorHorizonMs || st->is_final) {
        kept.push_back({ms, st->frame, st->is_final});
      }
      if (st->is_final) {
        final_ms = ms;
        final_cpu = cpu;
        final_frame = st->frame;
      }
    }
  }
  if (final_frame == nullptr) return false;
  if (final_out != nullptr) *final_out = final_frame;
  if (first_ms < 0) {  // empty result
    first_ms = final_ms;
    first_cpu = final_cpu;
  }
  out->first_ms.push_back(first_ms);
  out->final_ms.push_back(final_ms);
  out->first_cpu.push_back(first_cpu);
  out->final_cpu.push_back(final_cpu);
  out->auc.push_back(
      ErrorAucPct(kept, q.truth, QueryKeyColumns(q.number)));
  if (q.ola_truth_bytes.empty()) {
    return final_frame->ApproxEquals(q.truth, 1e-9);
  }
  return WireBytes(*final_frame) == q.ola_truth_bytes;
}

bool RunExact(const Query& q, Tracer* tracer, Samples* out) {
  Span request(tracer, "baseline.exact_query", tracer->NewRequest());
  wake::RunOptions options;
  options.engine = wake::QueryEngine::kExact;
  auto t0 = Clock::now();
  double cpu0 = CpuSeconds();
  wake::DataFrame result = q.prepared->Run(options).Final();
  out->exact_ms.push_back(MsBetween(t0, Clock::now()));
  out->exact_cpu.push_back((CpuSeconds() - cpu0) * 1000.0);
  return WireBytes(result) == q.truth_bytes;
}

/// Rounds over all queries until `seconds` have passed (at least one).
/// Even rounds run kExact first, odd rounds kOla first. Each round starts
/// from a trimmed heap and adds its own peak RSS to `round_peak_mb`: one
/// peak over a whole run depends on how glibc's per-thread arenas happen
/// to fill, and moved by 25% between runs.
std::vector<Samples> RunRounds(const std::vector<Query>& queries,
                               double seconds, Tracer* tracer,
                               HostSpeed* speed, Report* report,
                               size_t* rounds,
                               std::vector<double>* round_peak_mb) {
  std::vector<Samples> samples(queries.size());
  auto start = Clock::now();
  *rounds = 0;
  while (*rounds == 0 || MsBetween(start, Clock::now()) < seconds * 1000.0) {
    ResetPeakRss();
    bool exact_first = *rounds % 2 == 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      for (int k = 0; k < 2; ++k) {
        speed->Sample();
        bool ok = (k == 0) == exact_first
                      ? RunExact(queries[i], tracer, &samples[i])
                      : RunOla(queries[i], tracer, &samples[i]);
        if (!ok) {
          std::fprintf(stderr, "tpch22: q%d result differs from kExact\n",
                       queries[i].number);
        }
        report->Check(ok);
      }
    }
    round_peak_mb->push_back(PeakRssMb());
    ++*rounds;
  }
  return samples;
}

/// Geometric mean over queries of each query's median.
double GeoMeanOfMedians(const std::vector<Samples>& samples,
                        std::vector<double> Samples::*field) {
  std::vector<double> medians;
  for (const Samples& s : samples) medians.push_back(Median(s.*field));
  return GeoMean(medians);
}

}  // namespace

void RunTpch22(const Args& args, Report* report, Tracer* tracer) {
  const double sf = args.tiny ? 0.01 : 0.2;
  const int setup_reps = args.tiny ? 1 : 3;
  const std::string dir = args.out_dir + "/tpch22-data";

  wake::Catalog catalog;
  double pack_s = MedianSeconds(setup_reps, [&] {
    catalog = PackTpch(sf, args.seed, dir);
  });
  auto t0 = Clock::now();
  wake::DbOptions db_options;
  db_options.workers = args.nproc;
  wake::Db db(&catalog, db_options);
  std::vector<Query> queries;
  for (int q = 1; q <= 22; ++q) {
    Query query;
    query.number = q;
    query.sql = wake::tpch::QuerySql(q);
    query.prepared = db.Prepare(query.sql);
    wake::RunOptions exact;
    exact.engine = wake::QueryEngine::kExact;
    query.truth = query.prepared->Execute(exact);
    query.truth_bytes = WireBytes(query.truth);
    queries.push_back(std::move(query));
  }
  // Warm both engines once per query. kOla sums floats in another order
  // than kExact, so its final matches kExact to 1e-9 relative rather than
  // bit for bit; this first kOla final, once checked against kExact, is
  // the byte-exact reference for every later kOla run.
  Samples warm;
  for (Query& q : queries) {
    wake::DataFramePtr final_frame;
    bool ok = RunOla(q, tracer, &warm, &final_frame);
    report->Check(ok);
    if (ok) q.ola_truth_bytes = WireBytes(*final_frame);
  }
  double setup_s = pack_s + MsBetween(t0, Clock::now()) / 1000.0;
  report->Set("setup_s", setup_s, "s", setup_reps);
  report->Info("data", "sf=" + std::to_string(sf) +
                           " format=wakeblock block_rows=4096 seed=" +
                           std::to_string(args.seed) +
                           " workers=" + std::to_string(args.nproc));

  size_t rounds = 0;
  double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  HostSpeed speed;
  std::vector<double> peaks;
  std::vector<Samples> samples =
      RunRounds(queries, untraced_s, tracer, &speed, report, &rounds, &peaks);
  report->Set("peak_rss_mb", Median(peaks), "MB", peaks.size(),
              "median over rounds of each round's peak");
  size_t n = rounds * queries.size();
  double final_ms = GeoMeanOfMedians(samples, &Samples::final_ms);
  report->Set("first_estimate_ms",
              GeoMeanOfMedians(samples, &Samples::first_ms), "ms", n,
              "geomean over 22 queries of the per-query median");
  report->Set("final_ms", final_ms, "ms", n);
  report->Set("exact_ms", GeoMeanOfMedians(samples, &Samples::exact_ms), "ms",
              n);
  SetCpuPerRequest(report, GeoMeanOfMedians(samples, &Samples::final_cpu),
                   speed, n,
                   "kOla query, Run() to final; geomean over 22 queries of "
                   "the per-query median");
  report->Set("first_estimate_cpu_ms",
              GeoMeanOfMedians(samples, &Samples::first_cpu), "ms", n);
  report->Set("exact_cpu_ms", GeoMeanOfMedians(samples, &Samples::exact_cpu),
              "ms", n);
  std::vector<double> aucs, speedups, slowdowns;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Samples& s = samples[i];
    char line[200];
    std::snprintf(line, sizeof line,
                  "first_ms=%.2f final_ms=%.2f exact_ms=%.2f auc_pct=%.2f "
                  "final_cpu_ms=%.2f exact_cpu_ms=%.2f",
                  Median(s.first_ms), Median(s.final_ms), Median(s.exact_ms),
                  Median(s.auc), Median(s.final_cpu), Median(s.exact_cpu));
    report->Info("q" + std::to_string(queries[i].number), line);
    aucs.push_back(Median(s.auc));
    speedups.push_back(Median(s.exact_ms) / Median(s.first_ms));
    slowdowns.push_back(Median(s.final_ms) / Median(s.exact_ms));
  }
  report->Set("error_auc_pct", Mean(aucs), "%", n,
              "horizon " + std::to_string(static_cast<int>(kErrorHorizonMs)) +
                  " ms");
  report->Set("first_speedup", Median(speedups), "x", queries.size(),
              "not gated");
  report->Set("final_slowdown", Median(slowdowns), "x", queries.size(),
              "not gated");
  report->Set("rounds", static_cast<double>(rounds), "count");

  if (args.trace) {
    tracer->set_enabled(true);
    size_t traced_rounds = 0;
    std::vector<Samples> traced;
    size_t threads_peak = 0;
    {
      ThreadSampler sampler;
      std::vector<double> traced_peaks;
      traced = RunRounds(queries, args.seconds / 2, tracer, &speed, report,
                         &traced_rounds, &traced_peaks);
      threads_peak = sampler.peak();
    }
    report->Set("trace.overhead_ms",
                GeoMeanOfMedians(traced, &Samples::final_ms) - final_ms, "ms",
                traced_rounds * queries.size(), LayerNote("trace.overhead_ms"));
    report->Set("exec.threads_peak", static_cast<double>(threads_peak),
                "count", 0, LayerNote("exec.threads_peak"));
    std::vector<std::string> sqls;
    for (const Query& q : queries) sqls.push_back(q.sql);
    ReplayQueries(db, sqls, tracer, report);
    ReplayKernels(catalog, tracer, report);
  }
  report->Set("failed_share",
              static_cast<double>(report->failed) /
                  static_cast<double>(std::max<uint64_t>(1, report->attempted)),
              "fraction", report->attempted);
  report->checks_ran = true;
}

}  // namespace perfbench
