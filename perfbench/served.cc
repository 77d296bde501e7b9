// Workload served: six cheap TPC-H queries through an in-process
// wake::Server over loopback, driven open-loop on a seeded fixed-rate
// schedule by one generator thread over at most nproc wake::Client
// connections. The fixed per-query cost (prepare, compile, node threads,
// admission, snapshot encoding and streaming) dominates here.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "common/error.h"
#include "server/server.h"
#include "tpch/queries_sql.h"

namespace perfbench {
namespace {

const int kMix[] = {1, 3, 6, 12, 14, 19};

/// Offered rates (queries/s). The first is the reference rate the
/// end-to-end metrics are read at; the rest extend the ladder for
/// served_max_qps.
const double kLadder[] = {24, 48, 64};
/// A rate is sustained when its p99 meets this limit with no failures and
/// no growing backlog.
constexpr double kLatencyLimitMs = 250;
/// Share of the run spent at the reference rate.
constexpr double kReferenceShare = 0.85;

struct MixQuery {
  int number = 0;
  std::string sql;
  std::string local_bytes;  // the in-process kOla final
};

struct Request {
  double due_ms = 0;  // since the step started
  size_t pick = 0;
  std::unique_ptr<wake::RemoteQuery> handle;
  uint64_t trace_id = 0;
  // Results, all measured from the scheduled send time.
  double lateness_ms = 0;
  double first_ms = std::numeric_limits<double>::infinity();
  double final_ms = std::numeric_limits<double>::infinity();
  bool ok = false;
};

struct StepResult {
  double rate = 0;
  std::vector<double> latency, first, lateness;
  size_t failed = 0;
  bool backlog_grew = false;
  /// Process CPU (server, clients and engine) over the step per request.
  double cpu_ms_per_request = 0;

  double p99() const { return Percentile(latency, 0.99); }
  bool sustained() const {
    return failed == 0 && !backlog_grew && p99() <= kLatencyLimitMs;
  }
};

/// One open-loop step at `rate` for `seconds`. Failed or wrong requests
/// keep an infinite latency, so they count as over the limit. `speed`,
/// when given, is sampled after every send.
StepResult RunStep(double rate, double seconds, uint64_t seed,
                   const std::vector<MixQuery>& mix,
                   std::vector<std::unique_ptr<wake::Client>>& clients,
                   HostSpeed* speed, Tracer* tracer, Report* report) {
  std::mt19937_64 rng(seed);
  // Gaps jitter uniformly by +-50% around 1/rate: the seed moves every
  // send time and the query mix, while bursts stay bounded so the tail
  // reflects the server, not a rare arrival cluster.
  std::uniform_real_distribution<double> gap(500.0 / rate, 1500.0 / rate);
  // Every run of mix.size() requests sends each query once, in a seeded
  // order: drawing each query independently moved the mix, and the CPU per
  // request with it, by several percent from seed to seed.
  std::vector<size_t> order(mix.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<Request> requests;
  for (double t = gap(rng); t < seconds * 1000.0; t += gap(rng)) {
    size_t k = requests.size() % order.size();
    if (k == 0) std::shuffle(order.begin(), order.end(), rng);
    Request r;
    r.due_ms = t;
    r.pick = order[k];
    requests.push_back(std::move(r));
  }

  std::mutex mu;  // guards queue and sent_all
  std::condition_variable cv;
  std::deque<size_t> queue;
  bool sent_all = false;
  auto start = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](const Request& r) {
    return start + std::chrono::microseconds(
                       static_cast<int64_t>(r.due_ms * 1000.0));
  };

  auto receive = [&] {
    while (true) {
      size_t i;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || sent_all; });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      Request& r = requests[i];
      if (r.handle == nullptr) continue;  // submit failed
      const MixQuery& q = mix[r.pick];
      wake::DataFramePtr final_frame;
      try {
        Span s(tracer, "client.stream", r.trace_id);
        while (auto st = r.handle->Next()) {
          double ms = MsBetween(due(r), Clock::now());
          bool nonempty = st->frame != nullptr && st->frame->num_rows() > 0;
          if (nonempty && r.first_ms > ms) r.first_ms = ms;
          if (st->is_final) {
            r.final_ms = ms;
            final_frame = st->frame;
          }
        }
        r.handle->Result();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "served: q%d failed: %s\n", q.number, e.what());
      }
      r.handle.reset();
      r.ok = final_frame != nullptr && WireBytes(*final_frame) == q.local_bytes;
      if (!r.ok) {
        r.first_ms = r.final_ms = std::numeric_limits<double>::infinity();
        continue;
      }
      if (r.first_ms > r.final_ms) r.first_ms = r.final_ms;
    }
  };
  double cpu0 = CpuSeconds();
  std::vector<std::thread> receivers;
  for (size_t c = 0; c < clients.size(); ++c) receivers.emplace_back(receive);

  // The generator: one thread sending on the schedule. Between sends it
  // samples the host's speed; that CPU is left out of the step's total.
  double calibration_s = 0;
  std::thread sender([&] {
    for (size_t i = 0; i < requests.size(); ++i) {
      Request& r = requests[i];
      std::this_thread::sleep_until(due(r));
      r.lateness_ms = MsBetween(due(r), Clock::now());
      r.trace_id = tracer->NewRequest();
      try {
        Span s(tracer, "client.submit", r.trace_id);
        r.handle = std::make_unique<wake::RemoteQuery>(
            clients[i % clients.size()]->Submit(mix[r.pick].sql));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "served: submit failed: %s\n", e.what());
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(i);
      }
      cv.notify_one();
      if (speed != nullptr) calibration_s += speed->Sample();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      sent_all = true;
    }
    cv.notify_all();
  });
  sender.join();
  for (std::thread& t : receivers) t.join();

  StepResult out;
  out.rate = rate;
  out.cpu_ms_per_request =
      (CpuSeconds() - cpu0 - calibration_s) * 1000.0 /
      static_cast<double>(std::max<size_t>(1, requests.size()));
  for (const Request& r : requests) {
    out.latency.push_back(r.final_ms);
    out.first.push_back(r.first_ms);
    out.lateness.push_back(r.lateness_ms);
    if (!r.ok) ++out.failed;
    report->Check(r.ok);
  }
  // A backlog grew when the last third of the step waited far longer than
  // the first third.
  size_t third = requests.size() / 3;
  if (third > 0) {
    std::vector<double> head(out.latency.begin(),
                             out.latency.begin() + third);
    std::vector<double> tail(out.latency.end() - third, out.latency.end());
    out.backlog_grew = Median(tail) > 2.0 * Median(head) + 10.0;
  }
  return out;
}

void SetLayer(Report* report, const std::string& name, double value,
              const std::string& unit, size_t samples = 0) {
  report->Set(name, value, unit, samples, LayerNote(name));
}

}  // namespace

void RunServed(const Args& args, Report* report, Tracer* tracer) {
  const double sf = args.tiny ? 0.01 : 0.05;
  const int setup_reps = args.tiny ? 1 : 3;
  const std::string dir = args.out_dir + "/served-data";

  wake::Catalog catalog;
  double pack_s = MedianSeconds(setup_reps, [&] {
    catalog = PackTpch(sf, args.seed, dir);
  });
  auto t0 = Clock::now();
  wake::DbOptions db_options;
  db_options.workers = args.nproc;
  // At most nproc queries execute at once; the rest wait in FIFO
  // admission, so a burst queues instead of oversubscribing memory.
  db_options.max_concurrent_queries = args.nproc;
  db_options.max_queued = 1024;
  wake::Db db(&catalog, db_options);
  std::vector<MixQuery> mix;
  for (int number : kMix) {
    MixQuery q;
    q.number = number;
    q.sql = wake::tpch::QuerySql(number);
    wake::PreparedQuery pq = db.Prepare(q.sql);
    wake::RunOptions exact;
    exact.engine = wake::QueryEngine::kExact;
    wake::DataFrame truth = pq.Execute(exact);
    wake::DataFrame local = pq.Execute();
    report->Check(local.ApproxEquals(truth, 1e-9));
    q.local_bytes = WireBytes(local);
    mix.push_back(std::move(q));
  }
  wake::Server server(&db);
  server.Start();
  std::vector<std::unique_ptr<wake::Client>> clients;
  for (size_t c = 0; c < std::min<size_t>(args.nproc, 4); ++c) {
    wake::ClientOptions options;
    options.port = server.port();
    options.client_name = "perfbench-" + std::to_string(c);
    options.jitter_seed = args.seed * 31 + c;
    clients.push_back(std::make_unique<wake::Client>(options));
    clients.back()->Connect();
    for (const MixQuery& q : mix) {  // warm every connection
      wake::QueryResult r = clients.back()->Execute(q.sql);
      report->Check(r.frame != nullptr &&
                    WireBytes(*r.frame) == q.local_bytes);
    }
  }
  report->Set("setup_s", pack_s + MsBetween(t0, Clock::now()) / 1000.0, "s",
              setup_reps);
  ResetPeakRss();
  report->Info("data", "sf=" + std::to_string(sf) +
                           " format=wakeblock block_rows=4096 seed=" +
                           std::to_string(args.seed) +
                           " workers=" + std::to_string(args.nproc) +
                           " connections=" + std::to_string(clients.size()));

  const size_t steps = sizeof(kLadder) / sizeof(kLadder[0]);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  // The host's speed is sampled at the reference rate only, where the
  // metrics it scales are read.
  HostSpeed speed;
  std::vector<StepResult> ladder;
  for (size_t s = 0; s < steps; ++s) {
    double share = s == 0 ? kReferenceShare
                          : (1.0 - kReferenceShare) / (steps - 1);
    ladder.push_back(RunStep(kLadder[s], budget * share,
                             args.seed * 1000 + s, mix, clients,
                             s == 0 ? &speed : nullptr, tracer, report));
  }
  const StepResult& ref = ladder[0];
  size_t n = ref.latency.size();
  SetCpuPerRequest(report, ref.cpu_ms_per_request, speed, n,
                   "request at the reference rate: server, clients and "
                   "engine");
  report->Set("served_first_ms.p50", Percentile(ref.first, 0.5), "ms", n);
  report->Set("served_latency_ms.p50", Percentile(ref.latency, 0.5), "ms", n);
  report->Set("served_latency_ms.p99", ref.p99(), "ms", n);
  double max_qps = 0;
  for (const StepResult& step : ladder) {
    std::string rate = std::to_string(static_cast<int>(step.rate));
    report->Set("served_latency_ms.p50@" + rate,
                Percentile(step.latency, 0.5), "ms", step.latency.size());
    report->Set("served_latency_ms.p99@" + rate, step.p99(), "ms",
                step.latency.size(),
                step.sustained() ? "sustained" : "not sustained");
    if (step.sustained()) max_qps = std::max(max_qps, step.rate);
  }
  report->Set("served_max_qps", max_qps, "1/s", steps,
              "limit p99 <= " + std::to_string(static_cast<int>(
                                    kLatencyLimitMs)) + " ms");
  report->Set("load.lateness_ms.p99", Percentile(ref.lateness, 0.99), "ms", n,
              LayerNote("load.lateness_ms.p99"));

  if (args.trace) {
    tracer->set_enabled(true);
    StepResult traced;
    size_t threads_peak = 0;
    {
      ThreadSampler sampler;
      traced = RunStep(kLadder[0], args.seconds / 2, args.seed * 1000 + 99,
                       mix, clients, nullptr, tracer, report);
      threads_peak = sampler.peak();
    }
    wake::ServerStats after = server.stats();
    report->Set("trace.overhead_ms",
                Percentile(traced.latency, 0.5) - Percentile(ref.latency, 0.5),
                "ms", traced.latency.size(), LayerNote("trace.overhead_ms"));
    SetLayer(report, "exec.threads_peak", static_cast<double>(threads_peak),
             "count");
    SetLayer(report, "server.snapshots_sent",
             static_cast<double>(after.snapshots_sent), "count");
    SetLayer(report, "server.protocol_errors",
             static_cast<double>(after.protocol_errors), "count");
    SetLayer(report, "served.max_qps", max_qps, "1/s", steps);

    // Zero-load cost of the wire path: remote minus in-process latency.
    std::vector<double> overhead;
    for (const MixQuery& q : mix) {
      wake::PreparedQuery pq = db.Prepare(q.sql);
      std::vector<double> local, remote;
      for (int rep = 0; rep < 5; ++rep) {
        auto l0 = Clock::now();
        {
          Span s(tracer, "api.execute", tracer->NewRequest());
          pq.Execute();
        }
        local.push_back(MsBetween(l0, Clock::now()));
        auto r0 = Clock::now();
        {
          Span s(tracer, "client.execute", tracer->NewRequest());
          clients[0]->Execute(q.sql);
        }
        remote.push_back(MsBetween(r0, Clock::now()));
      }
      overhead.push_back(Median(remote) - Median(local));
    }
    SetLayer(report, "served.overhead_ms", Mean(overhead), "ms",
             overhead.size());
    std::vector<std::string> sqls;
    for (const MixQuery& q : mix) sqls.push_back(q.sql);
    ReplayQueries(db, sqls, tracer, report);
    ReplayKernels(catalog, tracer, report);
  }
  uint64_t received = 0, retries = 0;
  for (auto& client : clients) {
    wake::ClientStats stats = client->stats();
    received += stats.snapshots_received;
    retries += stats.execute_retries + stats.reconnects + stats.resubmissions;
    client->Close();
  }
  if (args.trace) {
    SetLayer(report, "client.snapshots_received",
             static_cast<double>(received), "count");
    SetLayer(report, "client.retries", static_cast<double>(retries), "count");
  }
  server.Shutdown(2000);
  report->Set("failed_share",
              static_cast<double>(report->failed) /
                  static_cast<double>(std::max<uint64_t>(1, report->attempted)),
              "fraction", report->attempted);
  report->checks_ran = true;
}

}  // namespace perfbench
