// Hutchinson stochastic trace estimation for Tr(L_{-S}^{-1}).
//
// The paper evaluates solution quality on large graphs "employing the
// conjugate gradient method" (Section V-B.2); Hutchinson probing with CG
// solves is the standard way to do that without forming the inverse.
//
// Probe p draws its Rademacher vector from its own stream Rng(seed, p),
// one draw per kept node in node order, so probes are independent work
// items. Given a pool they run on it; each probe stores its sample
// z^T L_{-S}^{-1} z in its own slot and the caller sums the slots in
// probe order. The trace and standard error are therefore bitwise the
// same with no pool and with any pool size. A one-worker pool runs the
// probes inline on the caller, like no pool at all.
#ifndef CFCM_LINALG_HUTCHINSON_H_
#define CFCM_LINALG_HUTCHINSON_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "linalg/cg.h"
#include "linalg/solver.h"

namespace cfcm {

/// Result of a stochastic trace estimate.
struct TraceEstimate {
  double trace = 0.0;
  double std_error = 0.0;  ///< standard error of the mean across probes
  int probes = 0;
};

/// \brief Estimates Tr(L_{-S}^{-1}) with Rademacher probes z and CG
/// solves: E[z^T L_{-S}^{-1} z] = Tr(L_{-S}^{-1}). Runs the probes
/// serially on the calling thread.
TraceEstimate HutchinsonTraceInverse(const Graph& graph,
                                     const std::vector<NodeId>& removed,
                                     int probes, uint64_t seed,
                                     const CgOptions& cg = {});

/// \brief Backend-aware overload that can run the probes on `pool`
/// (null = serially on the caller).
///
/// kAuto and kCg keep the pinned matrix-free CG path above (one CG
/// solve per probe — the historical default, so auto does NOT flip
/// large graphs to the factor path behind existing callers).
/// kSparseLdlt/kDense factor L_{-S} once and run every probe as a
/// direct solve on the shared const factor — identical probe vectors,
/// so the estimate differs from the CG path only by solver accuracy.
/// Falls back to the CG path if factoring fails (asserts in debug;
/// EvaluateGroup validates connectivity upstream).
TraceEstimate HutchinsonTraceInverse(const Graph& graph,
                                     const std::vector<NodeId>& removed,
                                     int probes, uint64_t seed,
                                     SolverBackend backend,
                                     const CgOptions& cg = {},
                                     ThreadPool* pool = nullptr);

}  // namespace cfcm

#endif  // CFCM_LINALG_HUTCHINSON_H_
