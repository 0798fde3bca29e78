// Sampling configuration shared by all forest estimators.
#ifndef CFCM_ESTIMATORS_OPTIONS_H_
#define CFCM_ESTIMATORS_OPTIONS_H_

#include <cstdint>
#include <functional>

#include "common/thread_pool.h"
#include "graph/graph.h"
#include "runtime/mc_runtime.h"

namespace cfcm {

/// First batch of the sampling schedule (it doubles each round). There
/// is no check between batches, so this only fixes how the per-batch
/// merges group their floating-point sums, which the estimator digest
/// pins record; it is also the floor of the derived forest target.
constexpr int kMinBatch = 32;

/// \brief Knobs for forest sampling and JL sketching.
///
/// The paper's closed-form sample bounds (Lemmas 3.9/4.5 and the JL bound
/// of Lemma 3.4) are intentionally conservative, and its experiments stop
/// early on the empirical-Bernstein width of Lemma 3.6. That stop never
/// fired before the forest target on a real graph, so every estimator
/// call samples a fixed count scaling as eps^{-2} log n, under an upper
/// cap; the Lemma 3.6 widths only feed DeltaEstimate::rel. See DESIGN.md
/// §3 and "Engineering constants".
struct EstimatorOptions {
  double eps = 0.2;          ///< error parameter (paper's epsilon)
  uint64_t seed = 1;         ///< base seed; forest i uses stream (seed, i)
  int max_forests = 1024;    ///< hard cap on sampled forests
  int target_forests = 0;    ///< 0 = derive: forest_factor * eps^-2 * log2 n
  double forest_factor = 1.0;
  int jl_rows = 0;           ///< 0 = derive: clamp(2 log2 n, 8, max_jl_rows)
  int max_jl_rows = 64;
  double bernstein_delta = 0.0;  ///< 0 = 1/n
};

/// Number of JL rows w actually used for an n-node graph.
int ResolveJlRows(const EstimatorOptions& options, NodeId n);

/// Number of forests every estimator call samples.
int ResolveTargetForests(const EstimatorOptions& options, NodeId n);

/// Failure probability delta for Bernstein bounds.
double ResolveBernsteinDelta(const EstimatorOptions& options, NodeId n);

/// Outcome of one RunSamplingSchedule call.
struct SampleSchedule {
  int forests = 0;              ///< forests run through the kernel
  std::int64_t walk_steps = 0;  ///< total loop-erased walk steps
};

/// \brief The sample loop shared by every forest estimator (DESIGN.md
/// §3).
///
/// Runs batches of kMinBatch, 2 kMinBatch, 4 kMinBatch, ... forests
/// (the last one clamped to `target`) through `kernel` on `pool`, with
/// forest indices continuing across batches, until `target` forests are
/// in. After each batch `merge` folds the kernel's partials into the
/// caller's running sums.
SampleSchedule RunSamplingSchedule(ThreadPool& pool, NodeId n, int target,
                                   ForestKernel& kernel,
                                   const std::function<void()>& merge);

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_OPTIONS_H_
