// Nested-safe fixed-size thread pool for forest batches and engine jobs.
#ifndef CFCM_COMMON_THREAD_POOL_H_
#define CFCM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cfcm {

/// Worker count that a pool size of 0 resolves to:
/// max(1, hardware_concurrency() - 1). The thread that calls ParallelFor
/// runs chunks too, so this many workers plus the caller fill the
/// hardware threads without oversubscribing them. (A one-worker pool runs
/// loops inline on the caller, so a two-thread host gets one executor.)
std::size_t DefaultPoolWorkers();

/// \brief Minimal fixed-size worker pool.
///
/// The only pattern the library needs is "run f(i) for i in [0, count) and
/// wait", exposed as ParallelFor. Iteration order inside an executor is
/// unspecified; callers must make their work items independent (forest
/// samples are seeded by index, and the sampling runtime's sharded
/// reduction makes the results bitwise thread-count-invariant on top —
/// see DESIGN.md §9).
///
/// ParallelFor is safe to call from inside a ParallelFor body running on
/// this pool (the engine runs solve jobs on the session pool, and the
/// solvers run their sampling batches on the same pool). The calling
/// thread participates in its own loop and, while waiting for stragglers,
/// helps drain other queued loops instead of blocking a worker — so
/// nested use can never deadlock on pool capacity.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means DefaultPoolWorkers().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// Threads that run a ParallelFor body: the workers plus the caller,
  /// or the caller alone on a single-worker pool (it runs loops inline).
  std::size_t executors() const {
    return threads_.size() == 1 ? 1 : threads_.size() + 1;
  }

  /// Runs body(index) for every index in [0, count) exactly once,
  /// blocking until all iterations finish. Iterations are distributed
  /// dynamically in chunks; the caller executes chunks too. On a
  /// single-worker pool the loop runs inline on the caller in index
  /// order. `body` must not throw — an escaping exception terminates
  /// the process (the same fail-fast contract as worker-thread
  /// execution has always had).
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body);

 private:
  // One ParallelFor invocation: a claim cursor plus a completion counter.
  // Workers and helping callers claim chunks with fetch_add; the loop is
  // complete when `done` reaches `count` (claimed chunks may still be
  // executing after the cursor is exhausted).
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::size_t chunk = 1;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
  };

  void WorkerLoop();
  // Claims and runs chunks of `job` until the cursor is exhausted.
  // Returns true if this call completed the job's final iteration.
  static bool DrainJob(Job& job);
  // Removes `job` from the queue if its cursor is exhausted (any thread
  // may notice and erase). Requires mu_ held.
  void EraseIfExhausted(const std::shared_ptr<Job>& job);

  std::vector<std::thread> threads_;
  std::deque<std::shared_ptr<Job>> queue_;  // loops with unclaimed chunks
  std::mutex mu_;
  // Signals new queued work, job completion, and shutdown.
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace cfcm

#endif  // CFCM_COMMON_THREAD_POOL_H_
