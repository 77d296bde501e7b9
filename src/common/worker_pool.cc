#include "common/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/error.h"
#include "common/failpoint.h"

namespace wake {

// Shared state of one blocking parallel loop. Runner tasks (one per
// worker) claim indices from `next` until exhausted; `done` counts the
// indices whose body returned, so the caller waits for the last claimed
// index to finish, not just for the cursor to empty.
struct WorkerPool::LoopState {
  std::atomic<size_t> next{0};
  size_t total = 0;
  size_t grain = 1;
  const std::function<void(size_t, size_t)>* body = nullptr;
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable all_done;
  std::exception_ptr error;  // first failure, rethrown on the caller
};

WorkerPool::WorkerPool(size_t workers) {
  size_t spawn = workers > 0 ? workers - 1 : 0;
  threads_.reserve(spawn);
  for (size_t i = 0; i < spawn; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

size_t WorkerPool::DefaultWorkers() {
  if (const char* env = std::getenv("WAKE_WORKERS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

WorkerPool& WorkerPool::Global() {
  static WorkerPool pool(DefaultWorkers());
  return pool;
}

void WorkerPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    // No spawned threads: run inline (serial pool).
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void WorkerPool::WorkerMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      // Shutdown drains the queue first: a queued runner may be the one
      // a blocked loop caller is waiting on.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void WorkerPool::RunLoop(LoopState* state) {
  for (;;) {
    size_t begin = state->next.fetch_add(state->grain);
    if (begin >= state->total) break;
    size_t end = std::min(begin + state->grain, state->total);
    try {
      // Inside the try so an injected fault rides the loop's existing
      // first-error capture instead of unwinding a pool thread.
      WAKE_FAILPOINT("worker_pool.dispatch");
      (*state->body)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->mu);
      if (!state->error) state->error = std::current_exception();
    }
    size_t finished =
        state->done.fetch_add(end - begin) + (end - begin);
    if (finished >= state->total) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->all_done.notify_all();
      break;
    }
  }
}

void WorkerPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (threads_.empty() || n <= grain) {
    // Serial pool or a single morsel: run inline, in range order.
    for (size_t begin = 0; begin < n; begin += grain) {
      body(begin, std::min(begin + grain, n));
    }
    return;
  }
  // Heap-owned so a surplus runner firing after the caller returned still
  // sees a live cursor (it reads `next`, finds the loop exhausted, and
  // exits without touching `body`, whose referent died with the caller).
  auto state = std::make_shared<LoopState>();
  state->total = n;
  state->grain = grain;
  state->body = &body;
  // One runner per spawned thread (the caller is the final runner). More
  // runners than morsels is harmless: surplus runners see an exhausted
  // cursor and return immediately.
  size_t morsels = (n + grain - 1) / grain;
  size_t runners = std::min(threads_.size(), morsels - 1);
  for (size_t i = 0; i < runners; ++i) {
    Submit([state] { RunLoop(state.get()); });
  }
  RunLoop(state.get());
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->all_done.wait(
        lock, [&] { return state->done.load() >= state->total; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void WorkerPool::ParallelShards(size_t shards,
                                const std::function<void(size_t)>& body) {
  ParallelFor(shards, 1,
              [&body](size_t begin, size_t /*end*/) { body(begin); });
}

}  // namespace wake
