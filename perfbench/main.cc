// perfbench: one command for Wake's end-to-end and per-layer metrics.
//
//   perfbench --workload tpch22|served|live --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--tiny]
//
// --trace 0 measures the workload and ends with one JSON line holding the
// end-to-end metrics; --trace 1 is the separate traced pass and ends with
// the per-layer metrics (see README.md). Every metric is also printed on a
// human-readable line with its unit and sample count. The exit code is 0
// only when every checked result was correct.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.h"
#include "common/error.h"
#include "common/wire.h"
#include "server/protocol.h"
#include "tpch/dbgen.h"

namespace perfbench {

// -- statistics -------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// -- process probes ---------------------------------------------------------

namespace {

/// Value of a `Key:  N ...` line of /proc/self/status.
double ProcStatus(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::atof(line.c_str() + key_len + 1);
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return ProcStatus("VmHWM") / 1024.0; }

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  CpuTicks t;
  for (uint64_t x : v) t.total += x;
  t.steal = v[7];
  return t;
}

size_t ThreadCount() { return static_cast<size_t>(ProcStatus("Threads")); }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

namespace {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

HostSpeed::HostSpeed() : table_(kSlots) {
  for (size_t i = 0; i < kSlots; ++i) table_[i] = SplitMix(i);
}

double HostSpeed::Sample() {
  // About 2.8 and 1.3 ms on the reference VM: the engine's work mixes
  // waits on memory with arithmetic, and the host's load slows both.
  constexpr int kReads = 20000;
  constexpr int kHashes = 300000;
  double t0 = ThreadCpuSeconds();
  uint64_t x = ms_.size();
  for (int i = 0; i < kReads; ++i) {
    // Each read's slot depends on the previous read, as in a hash probe.
    x = SplitMix(table_[x & (kSlots - 1)] + static_cast<uint64_t>(i));
  }
  for (int i = 0; i < kHashes; ++i) x = SplitMix(x);
  sink_ += x;
  double cpu_s = ThreadCpuSeconds() - t0;
  ms_.push_back(cpu_s * 1000.0);
  return cpu_s;
}

double HostSpeed::Scale() const {
  return ms_.empty() ? 1.0 : kReferenceCalibrationMs / Median(ms_);
}

void SetCpuPerRequest(Report* report, double unscaled_ms,
                      const HostSpeed& speed, size_t samples,
                      const std::string& what) {
  report->Set("cpu_ms_per_request", unscaled_ms * speed.Scale(), "ms",
              samples, "process CPU of one " + what +
                           ", at the reference core speed");
  report->Set("cpu_ms_per_request.unscaled", unscaled_ms, "ms", samples);
  report->Set("host.calibration_ms", speed.median_ms(), "ms",
              speed.samples(),
              "reference " +
                  std::to_string(HostSpeed::kReferenceCalibrationMs) + " ms");
}

ThreadSampler::ThreadSampler() : thread_([this] {
  while (!stop_.load()) {
    size_t n = ThreadCount();
    if (n > peak_.load()) peak_.store(n);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}) {}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  thread_.join();
}
// -- the report -------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples,
                 const std::string& note) {
  metrics_[name] = Metric{value, unit, samples, note};
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::PrintHuman() const {
  for (const auto& [key, value] : info_) {
    std::printf("# %-10s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("%-34s %14.4f %-6s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf("  n=%zu", m.samples);
    if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
    std::printf("\n");
  }
  std::printf("# checks     attempted=%llu failed=%llu ran=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              checks_ran ? "yes" : "no");
}

std::string Report::Json(const std::vector<std::string>& keys) const {
  std::ostringstream out;
  bool correct = checks_ran && failed == 0 && attempted > 0;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = metrics_.find(keys[i]);
    double v = it == metrics_.end() ? 0.0 : it->second.value;
    if (!std::isfinite(v)) v = 1e9;
    std::string unit = it == metrics_.end() ? "" : it->second.unit;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out << (i ? ", " : "") << "\"" << keys[i] << "\": {\"value\": " << buf
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// -- spans ------------------------------------------------------------------

namespace {
thread_local int64_t tls_current_span = -1;
}  // namespace

int64_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled()) return -1;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  std::lock_guard<std::mutex> lock(mu_);
  int64_t parent = tls_current_span;
  if (request == 0 && parent >= 0) request = spans_[parent].request;
  spans_.push_back(Span{name, parent, request, now, now});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, cur_begin = 0, cur_end = -1;
    for (auto [b, e] : kids) {
      b = std::max(b, s.start_ns);
      e = std::min(e, s.end_ns);
      if (e <= b) continue;
      if (b > cur_end) {
        if (cur_end > cur_begin) covered += cur_end - cur_begin;
        cur_begin = b;
        cur_end = e;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    if (cur_end > cur_begin) covered += cur_end - cur_begin;
    std::string name(s.name);
    std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] += (s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

void Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_us\tend_us\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns / 1000 << '\t' << s.end_ns / 1000 << '\n';
  }
}

Span::Span(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer), id_(tracer->Begin(name, request)),
      saved_parent_(tls_current_span) {
  if (id_ >= 0) tls_current_span = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  tracer_->End(id_);
  tls_current_span = saved_parent_;
}

// -- answers ----------------------------------------------------------------

std::string WireBytes(const wake::DataFrame& df) {
  wake::wire::WireWriter w;
  wake::protocol::EncodeDataFrame(df, &w);
  return w.Take();
}

size_t QueryKeyColumns(int q) {
  switch (q) {
    case 1: return 2;
    case 2: return 8;  // the whole row
    case 3: return 3;
    case 4: return 1;
    case 5: return 1;
    case 7: return 3;
    case 8: return 1;
    case 9: return 2;
    case 10: return 7;
    case 11: return 1;
    case 12: return 1;
    case 13: return 1;
    case 16: return 3;
    case 18: return 5;
    case 21: return 1;
    case 22: return 1;
    default: return 0;
  }
}

namespace {

std::string RowKey(const wake::DataFrame& df, size_t row, size_t cols) {
  std::string key;
  for (size_t c = 0; c < cols; ++c) {
    key += df.column(c).GetValue(row).ToString();
    key += '|';
  }
  return key;
}

}  // namespace

double EstimateErrorPct(const wake::DataFrame& truth,
                        const wake::DataFrame& got, size_t key_cols) {
  if (got.num_rows() == 0) return 100.0;
  key_cols = std::min(key_cols, truth.num_columns());
  std::vector<size_t> value_cols;
  for (size_t c = key_cols; c < truth.num_columns(); ++c) {
    if (truth.column(c).type() != wake::ValueType::kString) {
      value_cols.push_back(c);
    }
  }
  if (value_cols.empty()) {
    // Row-set agreement over whole rows.
    std::set<std::string> want, have;
    for (size_t r = 0; r < truth.num_rows(); ++r) {
      want.insert(RowKey(truth, r, truth.num_columns()));
    }
    for (size_t r = 0; r < got.num_rows(); ++r) {
      have.insert(RowKey(got, r, got.num_columns()));
    }
    size_t common = 0;
    for (const auto& k : have) common += want.count(k);
    size_t uni = want.size() + have.size() - common;
    return uni == 0 ? 0.0 : 100.0 * (1.0 - static_cast<double>(common) / uni);
  }
  std::map<std::string, size_t> truth_row;
  for (size_t r = 0; r < truth.num_rows(); ++r) {
    truth_row[RowKey(truth, r, key_cols)] = r;
  }
  double total = 0;
  size_t n = 0;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    auto it = truth_row.find(RowKey(got, r, key_cols));
    if (it == truth_row.end()) continue;
    for (size_t c : value_cols) {
      double want = truth.column(c).DoubleAt(it->second);
      if (want == 0.0) continue;
      total += std::fabs(got.column(c).DoubleAt(r) - want) / std::fabs(want);
      ++n;
    }
  }
  return n == 0 ? 100.0 : std::min(100.0, 100.0 * total / n);
}

double ErrorAucPct(const std::vector<StatePoint>& states,
                   const wake::DataFrame& truth, size_t key_cols) {
  const double horizon = kErrorHorizonMs;
  double area = 0, t = 0, err = 100.0;
  for (const StatePoint& s : states) {
    if (s.ms >= horizon) break;
    area += err * (std::max(s.ms, t) - t);
    t = std::max(s.ms, t);
    if (s.is_final) return area / horizon;
    if (s.frame != nullptr && s.frame->num_rows() > 0) {
      err = EstimateErrorPct(truth, *s.frame, key_cols);
    }
  }
  area += err * (horizon - t);
  return area / horizon;
}

// -- data -------------------------------------------------------------------

uint64_t DbgenSeed(uint64_t seed) { return 20230307ULL + 7919ULL * seed; }

wake::Catalog PackTpch(double sf, uint64_t seed, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  wake::tpch::DbgenConfig cfg;
  cfg.scale_factor = sf;
  cfg.partitions = 8;
  cfg.seed = DbgenSeed(seed);
  {
    wake::Catalog generated = wake::tpch::Generate(cfg);
    for (const std::string& name : generated.TableNames()) {
      wake::wakeblock::Write(generated.Get(name), dir);
    }
  }
  return wake::wakeblock::OpenCatalog(dir);
}

// -- metric names -----------------------------------------------------------

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = {"setup_s", "peak_rss_mb",
                                                 "cpu_ms_per_request"};
  return names;
}

namespace {

// Node kinds as the engine's trace labels name them (plan labels: the
// public trace does not tell hash from merge joins or local from shuffle
// aggregations).
const char* const kKinds[] = {"read", "filter", "map", "join", "agg", "sort"};

const char* const kLayers[] = {"sql",    "plan",   "api",      "exec",
                               "core",   "frame",  "storage",  "baseline",
                               "server", "client", "ingest",   "subscribe",
                               "wire"};

struct LayerMetric {
  std::string name;
  std::string unit;
  std::string note;  // which end-to-end metric it should move, and where
};

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"sql.parse_ms", "ms", "served_latency_ms.p50 on served"},
        {"plan.optimize_ms", "ms", "served_latency_ms.p50 on served"},
        {"api.prepare_ms", "ms", "served_latency_ms.p50 on served"},
        {"api.run_start_ms", "ms",
         "served_latency_ms.p50, served_max_qps on served"},
        {"exec.threads_peak", "count", "served_max_qps on served"},
        {"api.states", "count", "final_ms on tpch22"},
        {"api.state_rows", "count", "final_ms on tpch22"},
        {"api.first_progress", "fraction",
         "first_estimate_ms, error_auc_pct on tpch22"},
        {"api.late_first_queries", "count",
         "first_estimate_ms, error_auc_pct on tpch22"},
    };
    for (const char* k : kKinds) {
      m.push_back({std::string("exec.busy_ms.") + k, "ms",
                   "final_ms on tpch22"});
    }
    for (const char* k : kKinds) {
      m.push_back({std::string("exec.idle_ms.") + k, "ms",
                   "final_ms on tpch22"});
    }
    const std::vector<LayerMetric> rest = {
        {"storage.blocks_read", "count", "exact_ms, final_ms on tpch22"},
        {"storage.blocks_skipped", "count", "exact_ms, final_ms on tpch22"},
        {"storage.skip_ratio", "fraction", "exact_ms, final_ms on tpch22"},
        {"storage.decode_mrows_per_s", "Mrows/s",
         "exact_ms, final_ms on tpch22"},
        {"frame.filter_mrows_per_s", "Mrows/s",
         "exact_ms, final_ms on tpch22"},
        {"core.join_build_mrows_per_s", "Mrows/s",
         "final_ms, exact_ms on tpch22"},
        {"core.join_probe_mrows_per_s", "Mrows/s",
         "final_ms, exact_ms on tpch22"},
        {"core.agg_consume_mrows_per_s", "Mrows/s",
         "final_ms on tpch22; fresh_lag_ms on live"},
        {"core.agg_finalize_ms", "ms",
         "final_ms on tpch22; fresh_lag_ms on live"},
        {"server.snapshots_sent", "count", "served_first_ms.p50 on served"},
        {"client.snapshots_received", "count",
         "served_first_ms.p50 on served"},
        {"client.retries", "count", "served_first_ms.p50 on served"},
        {"server.protocol_errors", "count", "served_first_ms.p50 on served"},
        {"wire.encode_ms", "ms",
         "served_first_ms.p50, served_latency_ms.p50 on served"},
        {"wire.snapshot_bytes", "bytes",
         "served_first_ms.p50, served_latency_ms.p50 on served"},
        {"served.overhead_ms", "ms", "served_latency_ms.p50 on served"},
        {"served.max_qps", "1/s", "served_max_qps on served"},
        {"ingest.append_ms.p50", "ms", "append_ms.p99 on live"},
        {"ingest.seal_ms", "ms", "append_ms.p99 on live"},
        {"storage.write_amp", "ratio", "append_ms.p99 on live"},
        {"subscribe.refresh_ms.p50", "ms", "fresh_lag_ms on live"},
        {"subscribe.refresh_ms.p99", "ms", "fresh_lag_ms on live"},
        {"subscribe.delta_rows", "rows", "fresh_lag_ms on live"},
        {"load.lateness_ms.p99", "ms", "=checks run validity, not a layer"},
        {"proc.cpu_util", "fraction", "=checks run validity, not a layer"},
        {"proc.steal_pct", "%", "=checks run validity, not a layer"},
        {"trace.overhead_ms", "ms", "=traced minus untraced final_ms"},
        {"trace.spans", "count", "=spans recorded by the traced pass"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const char* l : kLayers) {
      m.push_back({std::string("self_ms.") + l, "ms",
                   "=self time of the layer's spans"});
    }
    return m;
  }();
  return metrics;
}

}  // namespace

const std::vector<std::string>& PerLayerMetrics() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const LayerMetric& m : LayerMetrics()) n.push_back(m.name);
    return n;
  }();
  return names;
}

namespace {

/// Notes starting with '=' are printed as they are; the rest name what
/// the metric should move.
std::string NoteText(const std::string& note) {
  return note[0] == '=' ? note.substr(1) : "moves " + note;
}

}  // namespace

std::string LayerNote(const std::string& name) {
  for (const LayerMetric& m : LayerMetrics()) {
    if (m.name == name) return NoteText(m.note);
  }
  return "";
}

void SetLayerDefaults(Report* report) {
  for (const LayerMetric& m : LayerMetrics()) {
    report->Set(m.name, 0.0, m.unit, 0, NoteText(m.note));
  }
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tpch22|served|live --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.nproc = std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  Report report;
  Tracer tracer(false);
  if (args.trace) SetLayerDefaults(&report);
  report.Info("host", "nproc=" + std::to_string(args.nproc) +
                          " compiler=" PERFBENCH_COMPILER
                          " build=" PERFBENCH_BUILD_TYPE);
  report.Info("run", "workload=" + args.workload +
                         " seed=" + std::to_string(args.seed) +
                         " seconds=" + std::to_string(args.seconds) +
                         " trace=" + (args.trace ? "1" : "0") +
                         (args.tiny ? " tiny" : ""));
  std::filesystem::create_directories(args.out_dir);
  double cpu0 = CpuSeconds();
  CpuTicks ticks0 = ReadCpuTicks();
  auto wall0 = Clock::now();
  try {
    if (args.workload == "tpch22") {
      RunTpch22(args, &report, &tracer);
    } else if (args.workload == "served") {
      RunServed(args, &report, &tracer);
    } else if (args.workload == "live") {
      RunLive(args, &report, &tracer);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!report.Has("peak_rss_mb")) {  // tpch22 reports its own
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  double wall_s = MsBetween(wall0, Clock::now()) / 1000.0;
  // Time the hypervisor gave this machine's CPUs to others: a run with
  // much of it measured a contended host.
  CpuTicks ticks1 = ReadCpuTicks();
  double steal_pct =
      ticks1.total > ticks0.total
          ? 100.0 * (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)
          : 0.0;
  report.Info("steal", std::to_string(steal_pct) + "% of CPU time");
  if (args.trace) {
    report.Set("proc.cpu_util",
               (CpuSeconds() - cpu0) / wall_s / static_cast<double>(args.nproc),
               "fraction", 0, LayerNote("proc.cpu_util"));
    report.Set("proc.steal_pct", steal_pct, "%", 0, LayerNote("proc.steal_pct"));
    report.Set("trace.spans", static_cast<double>(tracer.size()), "count", 0,
               LayerNote("trace.spans"));
    for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
      std::string name = "self_ms." + layer;
      report.Set(name, ms, "ms", 0, LayerNote(name));
    }
    std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".tsv";
    tracer.Write(path);
    report.Info("spans", path);
  }
  report.PrintHuman();
  std::printf("%s\n", report.Json(args.trace ? PerLayerMetrics()
                                             : EndToEndMetrics())
                          .c_str());
  std::fflush(stdout);
  return report.checks_ran && report.failed == 0 && report.attempted > 0 ? 0
                                                                         : 1;
}
