// ForestCFCM (paper Algorithm 3): greedy CFCC maximization by spanning
// forest sampling.
#ifndef CFCM_CFCM_FOREST_CFCM_H_
#define CFCM_CFCM_FOREST_CFCM_H_

#include "cfcm/options.h"
#include "common/status.h"

namespace cfcm {

struct WarmCapture;  // cfcm/lazy_greedy.h

/// \brief Selects a k-node group approximately maximizing C(S).
///
/// Greedy: the first node is argmin_u L†_uu estimated by forest sampling
/// rooted at the maximum-degree node (Lemma 3.5); each subsequent node is
/// argmax_u Delta'(u, S) from ForestDelta (Alg. 2), picked by the lazy
/// (CELF) or the exhaustive selection loop per `options.selection` (DESIGN.md
/// §13). Achieves the paper's (1 - k/(k-1)/e - eps) factor w.h.p.
/// (Theorem 3.11). Nearly linear time in n per iteration on real-world
/// graphs.
///
/// A non-null `capture` receives the warm-start material of DESIGN.md
/// §16 when the lazy loop ran; the exhaustive loop leaves it
/// untouched. It never changes the selection.
StatusOr<CfcmResult> ForestCfcmMaximize(const Graph& graph, int k,
                                        const CfcmOptions& options = {},
                                        WarmCapture* capture = nullptr);

}  // namespace cfcm

#endif  // CFCM_CFCM_FOREST_CFCM_H_
