#include "common/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace wake {
namespace {

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  constexpr size_t kN = 100001;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, 1024, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, SingleWorkerRunsInlineInRangeOrder) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  std::vector<size_t> begins;
  pool.ParallelFor(10, 3, [&](size_t begin, size_t end) {
    begins.push_back(begin);
    EXPECT_LE(end, 10u);
  });
  EXPECT_EQ(begins, (std::vector<size_t>{0, 3, 6, 9}));
}

TEST(WorkerPoolTest, RangeDecompositionIndependentOfWorkers) {
  // The morsel boundaries a body observes must be identical at any
  // worker count — that is the determinism contract operators build on.
  auto collect = [](WorkerPool& pool) {
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> ranges;
    pool.ParallelFor(100000, 4096, [&](size_t b, size_t e) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.emplace_back(b, e);
    });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  };
  WorkerPool serial(1), wide(4);
  EXPECT_EQ(collect(serial), collect(wide));
}

TEST(WorkerPoolTest, ParallelShardsRunsEachShardOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(17);
  for (auto& h : hits) h.store(0);
  pool.ParallelShards(17, [&](size_t s) { hits[s].fetch_add(1); });
  for (size_t s = 0; s < 17; ++s) EXPECT_EQ(hits[s].load(), 1);
}

TEST(WorkerPoolTest, BodyExceptionRethrownOnCaller) {
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000, 10,
                       [&](size_t begin, size_t) {
                         if (begin == 500) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(WorkerPoolTest, SubmitRunsTask) {
  WorkerPool pool(2);
  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  pool.Submit([&] {
    ran.store(true);
    std::lock_guard<std::mutex> lock(mu);
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10), [&] { return ran.load(); });
  EXPECT_TRUE(ran.load());
}

TEST(WorkerPoolTest, DestructorRunsEveryQueuedTask) {
  // Tasks still queued at destruction run before the threads exit: a
  // queued runner may be what a blocked loop caller waits for.
  std::atomic<int> ran{0};
  {
    WorkerPool pool(3);
    for (int i = 0; i < 200; ++i) pool.Submit([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(WorkerPoolTest, ConcurrentLoopsFromManyCallers) {
  // Several node threads sharing one pool, as in a deep plan.
  WorkerPool pool(4);
  constexpr size_t kCallers = 6;
  std::vector<long> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 20; ++rep) {
        std::atomic<long> sum{0};
        pool.ParallelFor(10000, 256, [&](size_t b, size_t e) {
          long local = 0;
          for (size_t i = b; i < e; ++i) local += static_cast<long>(i);
          sum.fetch_add(local);
        });
        sums[c] = sum.load();
      }
    });
  }
  for (auto& t : callers) t.join();
  const long expect = 10000L * 9999L / 2;
  for (size_t c = 0; c < kCallers; ++c) EXPECT_EQ(sums[c], expect);
}

TEST(WorkerPoolTest, DefaultWorkersParsesEnv) {
  // Can't mutate the environment of the global pool safely here; just
  // check the parser's fallback contract.
  EXPECT_GE(WorkerPool::DefaultWorkers(), 1u);
}

}  // namespace
}  // namespace wake
