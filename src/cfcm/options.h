// Public configuration and result types for CFCM solvers.
#ifndef CFCM_CFCM_OPTIONS_H_
#define CFCM_CFCM_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "estimators/options.h"
#include "graph/graph.h"
#include "linalg/solver.h"

namespace cfcm {

/// How the sampled solvers run the greedy argmax of rounds 2..k.
///
/// kLazy is the CELF-style lazy evaluation of DESIGN.md §13: stale
/// gains upper-bound current gains (submodularity), so candidates are
/// re-scored in small batches until the refreshed top provably beats
/// every stale key. kExhaustive re-scores every candidate every round
/// (the paper's literal Alg. 3/5 loop); it remains the reference the
/// lazy path is pinned against.
enum class SelectionMode { kLazy, kExhaustive };

/// "lazy" / "exhaustive".
const char* SelectionModeName(SelectionMode mode);

/// Inverse of SelectionModeName; nullopt for unknown strings.
std::optional<SelectionMode> ParseSelectionMode(std::string_view name);

/// \brief Options shared by ForestCFCM / SchurCFCM (and, where relevant,
/// the baselines).
///
/// Thread-count knobs are pure performance knobs: the sampling runtime's
/// ordered reduction (DESIGN.md §9) makes every selection and estimate
/// bitwise identical for any pool size.
struct CfcmOptions {
  double eps = 0.2;      ///< paper's error parameter epsilon
  uint64_t seed = 1;     ///< base RNG seed (full determinism per seed)
  int num_threads = 0;   ///< sampling workers; 0 = DefaultPoolWorkers()
                         ///< (ignored when `pool` is set)

  /// Borrowed worker pool to run sampling on; nullptr = the shared
  /// process pool sized by num_threads. The engine injects its cached
  /// GraphSession pool here — solvers never construct pools themselves.
  ThreadPool* pool = nullptr;

  // -- sampling engineering knobs (see DESIGN.md "Engineering constants").
  int max_forests = 1024;
  double forest_factor = 1.0;
  int jl_rows = 0;       ///< 0 = auto
  int max_jl_rows = 64;

  // -- SchurCFCM only.
  int t_size = 0;   ///< |T|; 0 = the |T*| = argmin {|T| - dmax(T)} rule
  int t_cap = 256;  ///< upper bound on |T|

  // -- greedy selection (sampled solvers; DESIGN.md §13).
  SelectionMode selection = SelectionMode::kLazy;

  // -- exact linear algebra (DESIGN.md §14).
  /// Which kernel backs the exact Laplacian paths (EXACT/OPTIMUM
  /// selection, exact scoring, Schur assembly, augment). kAuto resolves
  /// by kept dimension: dense up to kDenseBackendMaxN, sparse_ldlt
  /// above. Every backend computes the same numbers; this is a
  /// time/memory knob, not an accuracy knob.
  SolverBackend solver_backend = SolverBackend::kAuto;
};

/// \brief Work a solve performed. Counters that do not apply to an
/// algorithm stay 0.
struct WorkCounters {
  std::int64_t total_forests = 0;     ///< forests sampled (replays excluded)
  std::int64_t total_walk_steps = 0;  ///< loop-erased walk steps sampled
  std::int64_t solver_calls = 0;      ///< APPROXGREEDY Laplacian systems

  // -- selection layer (DESIGN.md §13). In exhaustive mode
  // rescored_candidates counts the full per-round scans and the other
  // two stay 0.
  std::int64_t rescored_candidates = 0;  ///< candidate gain evaluations
  std::int64_t heap_pops = 0;            ///< lazy-heap pops
  std::int64_t forests_reused = 0;       ///< arena replays (no walks)

  // -- incremental warm start (DESIGN.md §16). Zero on cold solves.
  std::int64_t forests_resampled = 0;  ///< dirty/extension forests drawn
  std::int64_t swap_moves = 0;         ///< repair swaps applied
};

/// Calls fn(wire_name, value) for every work counter, in a fixed order.
/// This list is the only place counters are named for export: solver
/// trace annotations, the serve solve response, cfcm_cli --json and the
/// engine.selection.* / engine.incremental.* metrics all iterate it.
template <typename Fn>
void ForEachWorkCounter(const WorkCounters& counters, Fn&& fn) {
  fn("forests", counters.total_forests);
  fn("walk_steps", counters.total_walk_steps);
  fn("solver_calls", counters.solver_calls);
  fn("rescored_candidates", counters.rescored_candidates);
  fn("heap_pops", counters.heap_pops);
  fn("forests_reused", counters.forests_reused);
  fn("forests_resampled", counters.forests_resampled);
  fn("swap_moves", counters.swap_moves);
}

/// Result of any maximization algorithm (every registered solver
/// returns it): the group plus per-iteration and total diagnostics.
/// Fields that do not apply to an algorithm keep their defaults.
struct CfcmResult : WorkCounters {
  std::vector<NodeId> selected;          ///< greedy/rank order, size k
  std::vector<int> forests_per_iteration;
  double seconds = 0.0;                  ///< solver wall time
  int jl_rows = 0;
  int auxiliary_roots = 0;  ///< |T| (SchurCFCM only)

  // -- incremental warm start (DESIGN.md §16).
  bool warm_started = false;           ///< solved via warm repair
  bool cold_fallback = false;          ///< warm requested but refused

  /// Resolved Laplacian solver backend ("dense" / "sparse_ldlt" / "cg"),
  /// empty for solvers that never touch the exact kernels.
  std::string solver_backend;
};

/// Lowers CfcmOptions to the estimator-level sampling options.
EstimatorOptions ToEstimatorOptions(const CfcmOptions& options);

/// The pool a solver call runs its sampling on: the injected
/// options.pool if set, else the shared process pool for
/// options.num_threads.
ThreadPool& ResolveSamplingPool(const CfcmOptions& options);

}  // namespace cfcm

#endif  // CFCM_CFCM_OPTIONS_H_
