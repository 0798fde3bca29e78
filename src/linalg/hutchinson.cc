#include "linalg/hutchinson.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace cfcm {

namespace {

// Rademacher probe of stream (seed, p): one draw per kept node, in node
// order. `compact` packs the kept entries (factor position order);
// otherwise the vector is n long with zeros at S (the CG operator's
// layout). Both layouts hold the same draws.
Vector RademacherProbe(const std::vector<char>& removed_mask, uint64_t seed,
                       uint64_t p, bool compact) {
  Rng rng(seed, p);
  Vector z;
  z.reserve(removed_mask.size());
  for (char removed : removed_mask) {
    if (removed) {
      if (!compact) z.push_back(0.0);
    } else {
      z.push_back(rng.NextBool() ? 1.0 : -1.0);
    }
  }
  return z;
}

// Runs sample(p) for every probe p, on `pool` when given, and folds the
// samples in probe order: the summary never depends on which executor
// ran which probe.
template <typename SampleFn>
TraceEstimate RunProbes(int probes, ThreadPool* pool, const SampleFn& sample) {
  std::vector<double> samples(static_cast<std::size_t>(probes));
  const auto body = [&](std::size_t p) { samples[p] = sample(p); };
  if (pool != nullptr) {
    pool->ParallelFor(samples.size(), body);
  } else {
    for (std::size_t p = 0; p < samples.size(); ++p) body(p);
  }
  double sum = 0;
  double sum_sq = 0;
  for (double s : samples) {
    sum += s;
    sum_sq += s * s;
  }
  TraceEstimate est;
  est.probes = probes;
  est.trace = sum / probes;
  if (probes > 1) {
    const double var =
        std::max(0.0, (sum_sq - sum * sum / probes) / (probes - 1));
    est.std_error = std::sqrt(var / probes);
  }
  return est;
}

}  // namespace

TraceEstimate HutchinsonTraceInverse(const Graph& graph,
                                     const std::vector<NodeId>& removed,
                                     int probes, uint64_t seed,
                                     const CgOptions& cg) {
  return HutchinsonTraceInverse(graph, removed, probes, seed,
                                SolverBackend::kCg, cg);
}

TraceEstimate HutchinsonTraceInverse(const Graph& graph,
                                     const std::vector<NodeId>& removed,
                                     int probes, uint64_t seed,
                                     SolverBackend backend,
                                     const CgOptions& cg, ThreadPool* pool) {
  assert(!removed.empty());
  assert(probes >= 1);
  std::vector<char> mask(static_cast<std::size_t>(graph.num_nodes()), 0);
  for (NodeId s : removed) mask[static_cast<std::size_t>(s)] = 1;

  if (backend == SolverBackend::kSparseLdlt ||
      backend == SolverBackend::kDense) {
    auto solver = MakeGroundedSolver(graph, removed, backend, cg);
    assert(solver.ok() && "L_{-S} is SPD for connected graphs");
    if (solver.ok()) {
      const LaplacianSolver& factor = **solver;
      return RunProbes(probes, pool, [&](uint64_t p) {
        const Vector z = RademacherProbe(mask, seed, p, /*compact=*/true);
        return Dot(z, factor.Solve(z));
      });
    }
  }

  const LaplacianSubmatrixOp op(graph, mask);
  return RunProbes(probes, pool, [&](uint64_t p) {
    const Vector z = RademacherProbe(mask, seed, p, /*compact=*/false);
    Vector x(z.size(), 0.0);
    SolveGroundedLaplacian(op, z, &x, cg);
    return Dot(z, x);
  });
}

}  // namespace cfcm
