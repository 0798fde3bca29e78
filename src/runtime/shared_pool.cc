#include "runtime/shared_pool.h"

#include <map>
#include <memory>
#include <mutex>

namespace cfcm {

ThreadPool& SharedThreadPool(int num_threads) {
  // Intentionally leaked: pools must outlive any static-destruction-time
  // caller, mirroring the SolverRegistry singleton.
  static std::mutex* mu = new std::mutex;
  static auto* pools = new std::map<std::size_t, std::unique_ptr<ThreadPool>>;

  const std::size_t resolved = num_threads > 0
                                   ? static_cast<std::size_t>(num_threads)
                                   : DefaultPoolWorkers();
  std::lock_guard<std::mutex> lock(*mu);
  std::unique_ptr<ThreadPool>& slot = (*pools)[resolved];
  if (!slot) slot = std::make_unique<ThreadPool>(resolved);
  return *slot;
}

}  // namespace cfcm
