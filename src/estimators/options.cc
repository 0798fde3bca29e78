#include "estimators/options.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cfcm {

namespace {

double Log2N(NodeId n) { return std::log2(static_cast<double>(std::max<NodeId>(2, n))); }

// Next batch size of the doubling loop: 2 * batch, clamped to `target`
// and guarded against int overflow when max_forests is large.
int NextBatchSize(int batch, int target) {
  if (batch >= target || batch > std::numeric_limits<int>::max() / 2) {
    return target;
  }
  return std::min(batch * 2, target);
}

}  // namespace

int ResolveJlRows(const EstimatorOptions& options, NodeId n) {
  if (options.jl_rows > 0) return options.jl_rows;
  const int derived = static_cast<int>(std::ceil(2.0 * Log2N(n)));
  return std::clamp(derived, 8, options.max_jl_rows);
}

int ResolveTargetForests(const EstimatorOptions& options, NodeId n) {
  if (options.target_forests > 0) {
    return std::min(options.target_forests, options.max_forests);
  }
  const double derived =
      options.forest_factor / (options.eps * options.eps) * Log2N(n);
  // Clamp before the cast: at small eps `derived` exceeds INT_MAX, where
  // converting it to int is undefined.
  return static_cast<int>(
      std::min(std::max(std::ceil(derived), static_cast<double>(kMinBatch)),
               static_cast<double>(options.max_forests)));
}

double ResolveBernsteinDelta(const EstimatorOptions& options, NodeId n) {
  if (options.bernstein_delta > 0) return options.bernstein_delta;
  return 1.0 / static_cast<double>(std::max<NodeId>(2, n));
}

SampleSchedule RunSamplingSchedule(ThreadPool& pool, NodeId n, int target,
                                   ForestKernel& kernel,
                                   const std::function<void()>& merge) {
  McRunOptions run;
  run.num_nodes = n;
  SampleSchedule schedule;
  int batch = kMinBatch;
  while (schedule.forests < target) {
    const int current = std::min(batch, target - schedule.forests);
    schedule.walk_steps +=
        RunForestBatch(pool, run, static_cast<uint64_t>(schedule.forests),
                       current, kernel)
            .walk_steps;
    merge();
    schedule.forests += current;
    batch = NextBatchSize(batch, target);
  }
  return schedule;
}

}  // namespace cfcm
