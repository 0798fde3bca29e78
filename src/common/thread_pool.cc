#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

namespace cfcm {

std::size_t DefaultPoolWorkers() {
  const std::size_t hardware = std::thread::hardware_concurrency();
  return hardware > 1 ? hardware - 1 : 1;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultPoolWorkers();
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::DrainJob(Job& job) {
  bool finished = false;
  for (;;) {
    const std::size_t begin = job.next.fetch_add(job.chunk);
    if (begin >= job.count) break;
    const std::size_t end = std::min(job.count, begin + job.chunk);
    // Bodies must not throw. Pre-rewrite, every body ran on a worker
    // thread where an escaping exception hit std::terminate; keep that
    // fail-fast contract now that bodies also run on caller stacks —
    // unwinding here would destroy `body` under concurrent executors
    // (use-after-free) or leave `done` short forever (a hang).
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.body)(i);
    } catch (...) {
      std::terminate();
    }
    // The final fetch_add's release sequence makes every iteration's
    // writes visible to whoever observes done == count.
    if (job.done.fetch_add(end - begin) + (end - begin) == job.count) {
      finished = true;
    }
  }
  return finished;
}

void ThreadPool::EraseIfExhausted(const std::shared_ptr<Job>& job) {
  if (job->next.load(std::memory_order_relaxed) < job->count) return;
  auto it = std::find(queue_.begin(), queue_.end(), job);
  if (it != queue_.end()) queue_.erase(it);
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    std::shared_ptr<Job> job = queue_.front();
    lock.unlock();
    const bool finished = DrainJob(*job);
    lock.lock();
    EraseIfExhausted(job);
    if (finished) cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (count == 1 || threads_.size() == 1) {
    // Single-worker pools (and single iterations) run inline on the
    // caller: exact index order, zero synchronization.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->count = count;
  // Dynamic chunking: executors pull ranges off a shared cursor so uneven
  // per-iteration cost (forest sizes vary wildly) stays balanced.
  job->chunk = std::max<std::size_t>(1, count / ((threads_.size() + 1) * 8));
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(job);
  }
  cv_.notify_all();

  // The caller claims chunks too — this is what makes nested ParallelFor
  // deadlock-free: an occupied worker finishes its own nested loop even
  // when every other worker is busy.
  if (DrainJob(*job)) {
    std::lock_guard<std::mutex> lock(mu_);
    EraseIfExhausted(job);
    return;
  }

  std::unique_lock<std::mutex> lock(mu_);
  EraseIfExhausted(job);
  while (job->done.load(std::memory_order_acquire) < job->count) {
    if (!queue_.empty()) {
      // Stragglers of this loop are running elsewhere; help another
      // queued loop instead of sleeping on a worker-sized resource.
      std::shared_ptr<Job> other = queue_.front();
      lock.unlock();
      const bool other_finished = DrainJob(*other);
      lock.lock();
      EraseIfExhausted(other);
      if (other_finished) cv_.notify_all();
    } else {
      cv_.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) >= job->count ||
               !queue_.empty();
      });
    }
  }
}

}  // namespace cfcm
