// Shared pieces of the perfbench program: clocks and statistics, the
// metric report, request spans for the traced run, answer scoring, and
// data set-up. Each workload (tpch22.cc, served.cc, live.cc) fills one
// Report; main.cc prints it.
#ifndef WAKE_PERFBENCH_BENCH_H_
#define WAKE_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/db.h"
#include "frame/data_frame.h"
#include "storage/partitioned_table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command line of one benchmark run (see main.cc for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".perfbench_build/out";
  bool tiny = false;  // self-test sizes
  size_t nproc = 1;
};

/// Estimate-error horizon (ms) for error_auc_pct, on every workload.
constexpr double kErrorHorizonMs = 250.0;

// -- statistics -------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);
double GeoMean(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

// -- process probes ---------------------------------------------------------

double PeakRssMb();
/// Returns freed heap memory to the system and restarts the peak (VmHWM)
/// from the current resident size, so that PeakRssMb() covers what follows:
/// the timed phase, not the benchmark's own data generation.
void ResetPeakRss();
/// The `Threads:` line of /proc/self/status.
size_t ThreadCount();
/// CPU time of the whole process: every thread, including exited ones.
/// Unlike wall time it does not grow while the host runs other guests, so
/// the gated cost metric (cpu_ms_per_request) is built on it.
double CpuSeconds();

/// How fast the host's cores ran during a run. A shared host's cores speed
/// up and slow down with its other guests (by about 20% over half an hour
/// on the VM this benchmark was tuned on), and CPU times with them. Each
/// Sample() times one fixed calibration kernel, dependent random reads
/// over a 16 MiB table and then register-only hashing, in the calling
/// thread's CPU time. Scale() converts the run's CPU times to a core that
/// runs the kernel in kReferenceCalibrationMs. On that VM, tpch22's CPU per
/// query rose by 15% between runs ten minutes apart; scaled, it rose by 4%.
/// One thread samples at a time.
class HostSpeed {
 public:
  /// Median kernel time on the VM the benchmark was tuned on.
  static constexpr double kReferenceCalibrationMs = 4.0;

  HostSpeed();

  /// Runs the kernel once; returns the CPU seconds it took, so that callers
  /// can leave it out of a process total.
  double Sample();
  /// kReferenceCalibrationMs over the median sample (1 before any).
  double Scale() const;
  double median_ms() const { return Median(ms_); }
  size_t samples() const { return ms_.size(); }

 private:
  static constexpr size_t kSlots = size_t{1} << 21;  // 16 MiB of uint64_t
  std::vector<uint64_t> table_;
  std::vector<double> ms_;
  uint64_t sink_ = 0;
};

class Report;

/// Sets the gated cpu_ms_per_request from a measured (unscaled) CPU time
/// per request: scaled by `speed`, with the unscaled value and the
/// calibration median on report lines of their own.
void SetCpuPerRequest(Report* report, double unscaled_ms,
                      const HostSpeed& speed, size_t samples,
                      const std::string& what);

/// Whole-machine CPU time from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

// -- the report -------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;  // sample count behind a percentile or median
  std::string note;    // e.g. which end-to-end metric a layer moves
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "");
  /// Adds a fingerprint line (host, data, run).
  void Info(const std::string& key, const std::string& value);
  double Get(const std::string& name) const;
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// Counts one checked result.
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  void PrintHuman() const;
  /// The final JSON line with exactly `keys` (missing keys read 0).
  std::string Json(const std::vector<std::string>& keys) const;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Set once the workload's correctness checks ran to completion.
  bool checks_ran = false;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

// -- spans ------------------------------------------------------------------

/// Request spans recorded by the benchmark around its calls into each
/// layer. Kept in memory, written out at the end of a traced run. A span's
/// layer is its name up to the first '.'.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t NewRequest() { return next_request_.fetch_add(1); }

  /// Opens a span under the calling thread's current span; returns its id
  /// (-1 when tracing is off).
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t id);

  /// Per layer: total span time minus the time child spans cover (ms).
  std::map<std::string, double> SelfMsByLayer() const;
  size_t size() const;
  /// One tab-separated line per span: id, parent, request, name, start_us,
  /// end_us.
  void Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::atomic<bool> enabled_;
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
  int64_t saved_parent_;
};

// -- answers ----------------------------------------------------------------

/// Bit-exact identity of a frame: its wire encoding (doubles travel as raw
/// IEEE bit patterns).
std::string WireBytes(const wake::DataFrame& df);

/// Group-key column count of TPC-H query q's result (0 = global aggregate).
size_t QueryKeyColumns(int q);

/// Error (%) of an estimate against the exact answer. Results with numeric
/// value columns past the keys score by MAPE over matched groups; results
/// without any (Q2: every column is part of the row, Q20: only strings)
/// score by row-set disagreement, 100 * (1 - |T ∩ G| / |T ∪ G|). An empty
/// estimate is 100, and so is any estimate further off than that: an
/// answer off by more than its own size is no better than none, and the
/// cap keeps one wild estimate from dominating an average.
double EstimateErrorPct(const wake::DataFrame& truth,
                        const wake::DataFrame& got, size_t key_cols);

/// One received state of a streaming query.
struct StatePoint {
  double ms = 0;  // since the request started
  wake::DataFramePtr frame;
  bool is_final = false;
};

/// Error averaged over [0, kErrorHorizonMs]: 100% before the first
/// non-empty state, the state's EstimateErrorPct while it is current, and 0
/// from the final state on. `states` only needs the states received before
/// the horizon plus the final one.
double ErrorAucPct(const std::vector<StatePoint>& states,
                   const wake::DataFrame& truth, size_t key_cols);

// -- data -------------------------------------------------------------------

/// dbgen seed for a benchmark seed (distinct data per seed).
uint64_t DbgenSeed(uint64_t seed);

/// Generates TPC-H at `sf`, packs every table as wakeblock (default 4096-row
/// blocks) under `dir` and opens it lazily — the data path wake::Db users
/// run. Replaces whatever `dir` held.
wake::Catalog PackTpch(double sf, uint64_t seed, const std::string& dir);

/// Runs `fn` `reps` times and returns the median wall time in seconds (the
/// last run's effects are kept).
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    fn();
    s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  return Median(s);
}

// -- per-layer replays (layers.cc) -------------------------------------------

/// Times sql::Parse, Optimize and Db::Prepare for each text, and replays
/// the optimized plans' scans (ReadChunk with the scan columns and scan
/// filter), the filters next to them (Expr::Eval + FilterBy), a traced
/// WakeEngine run (exec busy/idle per node kind), block-skip counters, and
/// the wire encoding of every in-process state.
void ReplayQueries(const wake::Db& db, const std::vector<std::string>& sqls,
                   Tracer* tracer, Report* report);

/// Join build/probe (orders ⋈ lineitem on orderkey) and grouped
/// aggregation (Q1 and Q18 groupings) on the catalog's own lineitem.
/// The join part is skipped when the catalog has no orders table.
void ReplayKernels(const wake::Catalog& catalog, Tracer* tracer,
                   Report* report);

/// Samples ThreadCount() until stopped; peak() is the highest reading.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  size_t peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<size_t> peak_{0};
  std::thread thread_;
};

/// Names of the end-to-end and per-layer metrics, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetrics();
const std::vector<std::string>& PerLayerMetrics();
/// "moves <metric> on <workload>" for a per-layer metric.
std::string LayerNote(const std::string& name);

/// Per-layer metrics every workload reports; absent ones read 0.
void SetLayerDefaults(Report* report);

// Workloads.
void RunTpch22(const Args& args, Report* report, Tracer* tracer);
void RunServed(const Args& args, Report* report, Tracer* tracer);
void RunLive(const Args& args, Report* report, Tracer* tracer);

}  // namespace perfbench

#endif  // WAKE_PERFBENCH_BENCH_H_
