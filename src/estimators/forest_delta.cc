#include "estimators/forest_delta.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "estimators/bernstein.h"
#include "estimators/jl_kernel.h"
#include "forest/bfs_tree.h"
#include "linalg/jl.h"

namespace cfcm {

void RunScopedSchedule(const Graph& graph, const std::vector<NodeId>& roots,
                       const EstimatorOptions& options, ThreadPool& pool,
                       const DeltaScope& scope, JlForestKernel& kernel,
                       const std::function<void()>& merge,
                       DeltaEstimate* result) {
  const NodeId n = graph.num_nodes();
  int target = ResolveTargetForests(options, n);
  if (scope.forest_scale < 1.0) {
    target = std::max(kMinBatch, static_cast<int>(target * scope.forest_scale));
  }
  kernel.set_subset(scope.subset);
  if (scope.arena != nullptr) {
    scope.arena->BeginRound(n, roots, options.seed, target);
    kernel.set_arena(scope.arena);
    if (scope.replay_clean != nullptr) {
      kernel.set_replay_plan(scope.replay_clean, scope.resample_seed);
    }
  }
  const SampleSchedule schedule =
      RunSamplingSchedule(pool, n, target, kernel, merge);
  result->forests = schedule.forests;
  result->walk_steps = schedule.walk_steps;
  result->reused_forests = kernel.reused_forests();
  if (scope.arena != nullptr) scope.arena->Commit(schedule.forests);
}

DeltaEstimate ForestDelta(const Graph& graph,
                          const std::vector<NodeId>& s_nodes,
                          const EstimatorOptions& options, ThreadPool& pool,
                          const DeltaScope& scope) {
  const NodeId n = graph.num_nodes();
  assert(!s_nodes.empty());
  const TreeScaffold scaffold = MakeTreeScaffold(graph, s_nodes);
  const int w = ResolveJlRows(options, n);
  const double delta_fail = ResolveBernsteinDelta(n);
  const double log_term = std::log(3.0 / delta_fail);
  const JlSketch sketch(w, n, options.seed ^ 0x9d2c5680a76b3f01ULL);
  const std::vector<char>* subset = scope.subset;

  JlForestKernel kernel(graph, scaffold, sketch, options.seed, w,
                        McScratchSlots(pool));

  const std::size_t nw = static_cast<std::size_t>(n) * w;
  std::vector<double> sum_x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> sum_sq_x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> sum_y(nw, 0.0);
  std::vector<double> sum_y_sq(static_cast<std::size_t>(n), 0.0);

  DeltaEstimate result;
  result.jl_rows = w;
  result.delta.assign(static_cast<std::size_t>(n), 0.0);
  result.z.assign(static_cast<std::size_t>(n), 0.0);
  result.numerator.assign(static_cast<std::size_t>(n), 0.0);
  result.rel.assign(static_cast<std::size_t>(n), 0.0);

  RunScopedSchedule(
      graph, s_nodes, options, pool, scope, kernel,
      [&] { kernel.MergeBatch(&sum_x, &sum_sq_x, &sum_y, &sum_y_sq); },
      &result);
  // Point estimates and each node's relative half-width at r forests.
  const int r = result.forests;
  const double inv_r = 1.0 / static_cast<double>(r);
  for (NodeId u = 0; u < n; ++u) {
    if (scaffold.is_root[u]) {
      result.delta[u] = result.z[u] = result.numerator[u] = 0.0;
      continue;
    }
    if (subset != nullptr && !(*subset)[u]) continue;  // stays 0
    const double zu = sum_x[u] * inv_r;
    double raw_num = 0;
    const double* yu = sum_y.data() + static_cast<std::size_t>(u) * w;
    for (int j = 0; j < w; ++j) {
      const double m = yu[j] * inv_r;
      raw_num += m * m;
    }
    // Aggregate variance across sketch rows: sum_j Var(Y_j) = mean
    // ||Y_f||^2 - ||mean Y||^2. Used both to debias the numerator and
    // as the Bernstein variance proxy.
    const double v_tot = std::max(0.0, sum_y_sq[u] * inv_r - raw_num);
    // E[sum_j Ybar_j^2] = ||E Y||^2 + sum_j Var(Y_j)/r: subtract the
    // plug-in bias (it scales with depth^2 and would systematically
    // favor deep nodes on high-diameter graphs).
    const double num =
        r > 1 ? std::max(raw_num - v_tot / static_cast<double>(r - 1), 0.0)
              : raw_num;
    result.z[u] = zu;
    result.numerator[u] = num;
    // (L^{-1}_{-S})_uu >= 1/d_w(u) by the Neumann-series bound (paper
    // Lemma 3.9; weighted degree = Laplacian diagonal); clamp the
    // denominator so sampling noise cannot blow up the ratio.
    const double z_floor = 1.0 / (graph.weighted_degree(u) + 1.0);
    result.delta[u] = num / std::max(zu, z_floor);
    result.rel[u] = RelativeHalfWidth(
        r, sum_x[u], sum_sq_x[u], 2.0 * scaffold.resistance_depth[u],
        delta_fail, log_term, v_tot, num, zu, z_floor);
  }
  return result;
}

}  // namespace cfcm
