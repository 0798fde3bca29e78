// Shared helpers for the cfcm test suites.
#ifndef CFCM_TESTS_TEST_UTIL_H_
#define CFCM_TESTS_TEST_UTIL_H_

#include <vector>

#include "estimators/options.h"
#include "graph/graph.h"
#include "linalg/dense.h"

namespace cfcm::testing {

/// Deterministic connected random graph: BA(n, m_attach) with a seed
/// derived from the arguments; used by property suites.
Graph RandomConnectedGraph(NodeId n, NodeId m_attach, uint64_t seed);

/// Small pool of structurally diverse connected graphs for TEST_P sweeps:
/// path, cycle, star, complete, grid, karate, BA, WS, geometric, ...
struct NamedGraph {
  const char* name;
  Graph graph;
};
std::vector<NamedGraph> PropertyGraphPool();

/// Estimator options that sample exactly `forests` forests per call on
/// any graph of at least 2 nodes: eps is small enough that the derived
/// target eps^-2 log2 n saturates max_forests = `forests` (up to 10^6).
EstimatorOptions FixedForestOptions(int forests);

/// max_u |a[u] - b[u]|.
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace cfcm::testing

#endif  // CFCM_TESTS_TEST_UTIL_H_
