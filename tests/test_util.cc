#include "test_util.h"

#include <cassert>
#include <cmath>

#include "graph/datasets.h"
#include "graph/generators.h"

namespace cfcm::testing {

Graph RandomConnectedGraph(NodeId n, NodeId m_attach, uint64_t seed) {
  return BarabasiAlbert(n, m_attach, seed ^ 0xabcdef12345ULL);
}

std::vector<NamedGraph> PropertyGraphPool() {
  std::vector<NamedGraph> pool;
  pool.push_back({"path16", PathGraph(16)});
  pool.push_back({"cycle17", CycleGraph(17)});
  pool.push_back({"star20", StarGraph(20)});
  pool.push_back({"complete9", CompleteGraph(9)});
  pool.push_back({"grid4x6", GridGraph(4, 6)});
  pool.push_back({"karate", KarateClub()});
  pool.push_back({"contusa", ContiguousUsa()});
  pool.push_back({"ba40", BarabasiAlbert(40, 2, 7)});
  pool.push_back({"ws36", WattsStrogatz(36, 3, 0.2, 11)});
  pool.push_back({"plc45", PowerlawCluster(45, 2, 0.4, 13)});
  return pool;
}

EstimatorOptions FixedForestOptions(int forests) {
  assert(forests >= 1 && forests <= 1000000);
  EstimatorOptions opts;
  opts.eps = 1e-3;  // eps^-2 log2 n >= 10^6 once n >= 2
  opts.max_forests = forests;
  return opts;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace cfcm::testing
