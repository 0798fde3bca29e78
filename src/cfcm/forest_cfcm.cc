#include "cfcm/forest_cfcm.h"

#include "cfcm/cfcc.h"
#include "cfcm/lazy_greedy.h"
#include "common/timer.h"
#include "estimators/forest_delta.h"

namespace cfcm {

StatusOr<CfcmResult> ForestCfcmMaximize(const Graph& graph, int k,
                                        const CfcmOptions& options,
                                        WarmCapture* capture) {
  CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
  Timer timer;
  ThreadPool& pool = ResolveSamplingPool(options);
  const LazyDeltaFn delta_fn = [&graph, &options, &pool](
                                   const std::vector<NodeId>& s_nodes,
                                   uint64_t seed, const DeltaScope& scope) {
    EstimatorOptions est = ToEstimatorOptions(options);
    est.seed = seed;
    return ForestDelta(graph, s_nodes, est, pool, scope);
  };
  StatusOr<CfcmResult> result =
      options.selection == SelectionMode::kExhaustive
          ? ExhaustiveGreedySelect(graph, k, options, pool, delta_fn)
          : LazyGreedySelect(graph, k, options, pool, delta_fn,
                             /*ignored=*/false, capture);
  if (result.ok()) result->seconds = timer.Seconds();
  return result;
}

}  // namespace cfcm
