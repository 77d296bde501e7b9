// WorkerPool: a pool of worker threads with one task queue, used to run
// the hash-join probe's morsel-parallel loop (JoinHashTable::Probe).
//
// Wake's pipeline parallelism (one thread per node, §7.2) caps a deep
// plan's throughput at its slowest operator. The pool adds intra-operator
// parallelism to one operator body: a probe splits a large partial into
// row-range morsels and runs them here, while the node thread itself
// participates as one worker, so a 1-worker pool degenerates to the exact
// serial execution.
//
// Determinism contract: the pool only schedules work — callers must make
// their task decomposition (morsel boundaries, shard counts) a function of
// the input alone, never of the worker count. Every ParallelFor /
// ParallelShards call runs tasks indexed 0..n-1 exactly once; which thread
// runs which task is unspecified, so per-task outputs must be stitched by
// task index, not completion order.
//
// Scheduling: Submit() appends to one FIFO queue under one mutex, and idle
// workers pop from its front. Parallel loops submit one runner task per
// spawned thread; runners claim loop indices from a shared atomic cursor,
// so the queue sees one entry per worker per loop, not one per morsel.
#ifndef WAKE_COMMON_WORKER_POOL_H_
#define WAKE_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wake {

class WorkerPool {
 public:
  /// A pool with `workers` total executors: the caller of a parallel loop
  /// counts as one, so `workers - 1` threads are spawned. `workers == 1`
  /// spawns nothing and runs every loop inline (exact serial execution).
  explicit WorkerPool(size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Process-wide pool, sized once from WAKE_WORKERS (falling back to
  /// std::thread::hardware_concurrency).
  static WorkerPool& Global();

  /// WAKE_WORKERS env value, or hardware_concurrency when unset/invalid.
  static size_t DefaultWorkers();

  /// Total executors (spawned threads + the participating caller).
  size_t workers() const { return threads_.size() + 1; }

  /// Enqueues one task; a pool without threads runs it inline.
  void Submit(std::function<void()> task);

  /// Runs body(begin, end) for consecutive row ranges of size `grain`
  /// covering [0, n). Blocks until every range completed. The range
  /// decomposition depends only on (n, grain) — never on the worker count
  /// — so per-range results stitched by range index are deterministic.
  /// The caller participates; with one worker the loop runs inline, in
  /// range order. Bodies must not throw (the first exception is rethrown
  /// on the caller after the loop drains) and must not call back into a
  /// blocking pool loop for unbounded nesting — one nested level is safe
  /// because callers always participate.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Runs body(shard) for shard in [0, shards), blocking until all
  /// complete. Same determinism and exception rules as ParallelFor.
  void ParallelShards(size_t shards,
                      const std::function<void(size_t)>& body);

 private:
  struct LoopState;

  void WorkerMain();
  static void RunLoop(LoopState* state);

  std::mutex mu_;
  // Guarded by mu_. Tasks are coarse (one runner per worker per loop), so
  // one lock is not contended.
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::condition_variable work_ready_;
  std::vector<std::thread> threads_;  // after what the threads use
};

}  // namespace wake

#endif  // WAKE_COMMON_WORKER_POOL_H_
