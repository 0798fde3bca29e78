#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/shared_pool.h"

namespace cfcm {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> order;
  pool.ParallelFor(16, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, SlotSizedParallelForTouchesEachSlot) {
  // The sampling runtime sizes per-executor scratch as slot indices of a
  // ParallelFor; each slot must be visited exactly once.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](std::size_t t) { hits[t].fetch_add(1); });
  for (int t = 0; t < 3; ++t) EXPECT_EQ(hits[t].load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<long long> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(1000, [&](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i));
    });
  }
  EXPECT_EQ(sum.load(), 5LL * (999LL * 1000 / 2));
}

TEST(ThreadPoolTest, DefaultUsesHardwareConcurrency) {
  // The caller runs chunks too, so the default leaves one hardware thread
  // for it: workers + caller == hardware threads (never fewer than 1).
  const std::size_t hardware = std::thread::hardware_concurrency();
  const std::size_t expected = hardware > 1 ? hardware - 1 : 1;
  EXPECT_EQ(DefaultPoolWorkers(), expected);
  ThreadPool pool;
  EXPECT_EQ(pool.num_threads(), expected);
  EXPECT_EQ(SharedThreadPool(0).num_threads(), expected);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The engine runs solve jobs on the session pool and each job runs
  // its sampling batches on the same pool. With more outer iterations
  // than workers, the old blocking Wait() would deadlock; the caller
  // now executes chunks of its own nested loop.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](std::size_t) {
    pool.ParallelFor(16, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, ConcurrentCallersShareThePool) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      pool.ParallelFor(100, [&](std::size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 400);
}

}  // namespace
}  // namespace cfcm
