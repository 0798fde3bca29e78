// Sampling configuration shared by all forest estimators.
#ifndef CFCM_ESTIMATORS_OPTIONS_H_
#define CFCM_ESTIMATORS_OPTIONS_H_

#include <cstdint>
#include <functional>

#include "common/thread_pool.h"
#include "graph/graph.h"
#include "runtime/mc_runtime.h"

namespace cfcm {

/// \brief Knobs for adaptive forest sampling and JL sketching.
///
/// The paper's closed-form sample bounds (Lemmas 3.9/4.5 and the JL bound
/// of Lemma 3.4) are intentionally conservative; its experiments rely on
/// the empirical-Bernstein early exit (Lemma 3.6). We expose the same
/// structure: a target sample count scaling as eps^{-2} log n, an upper
/// cap, and the adaptive stop. See DESIGN.md "Engineering constants".
struct EstimatorOptions {
  double eps = 0.2;          ///< error parameter (paper's epsilon)
  uint64_t seed = 1;         ///< base seed; forest i uses stream (seed, i)
  int min_batch = 32;        ///< first batch size (doubles each round)
  int max_forests = 1024;    ///< hard cap on sampled forests
  int target_forests = 0;    ///< 0 = derive: forest_factor * eps^-2 * log2 n
  double forest_factor = 1.0;
  int jl_rows = 0;           ///< 0 = derive: clamp(2 log2 n, 8, max_jl_rows)
  int max_jl_rows = 64;
  double bernstein_delta = 0.0;  ///< 0 = 1/n
  bool adaptive = true;      ///< empirical-Bernstein early exit
};

/// Number of JL rows w actually used for an n-node graph.
int ResolveJlRows(const EstimatorOptions& options, NodeId n);

/// Number of forests to sample (before adaptive early exit).
int ResolveTargetForests(const EstimatorOptions& options, NodeId n);

/// Failure probability delta for Bernstein bounds.
double ResolveBernsteinDelta(const EstimatorOptions& options, NodeId n);

/// Outcome of one RunSamplingSchedule call.
struct SampleSchedule {
  int forests = 0;              ///< forests run through the kernel
  std::int64_t walk_steps = 0;  ///< total loop-erased walk steps
  bool converged = false;       ///< `stop` fired before the target
};

/// \brief The adaptive sample loop shared by every forest estimator
/// (DESIGN.md §3).
///
/// Runs batches of min_batch, 2 min_batch, 4 min_batch, ... forests
/// (the last one clamped to `target`) through `kernel` on `pool`, with
/// forest indices continuing across batches. After each batch `merge`
/// folds the kernel's partials into the caller's running sums; while
/// fewer than `target` forests are in, `stop(total)` is the estimator's
/// exit rule and ends sampling when it returns true.
SampleSchedule RunSamplingSchedule(ThreadPool& pool, NodeId n,
                                   const EstimatorOptions& options,
                                   int target, ForestKernel& kernel,
                                   const std::function<void()>& merge,
                                   const std::function<bool(int)>& stop);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_OPTIONS_H_
