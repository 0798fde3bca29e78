#include "cfcm/cfcc.h"

#include <cassert>
#include <string>

#include "graph/components.h"
#include "linalg/laplacian.h"

namespace cfcm {

double ExactGroupCfcc(const Graph& graph, const std::vector<NodeId>& group) {
  assert(!group.empty());
  const double trace = ExactTraceInverseSubmatrix(graph, group);
  return static_cast<double>(graph.num_nodes()) / trace;
}

double ExactNodeCfcc(const Graph& graph, NodeId u) {
  return ExactGroupCfcc(graph, {u});
}

std::vector<double> ExactPrefixTraces(const Graph& graph,
                                      const std::vector<NodeId>& order) {
  assert(!order.empty());
  const SubmatrixIndex index =
      MakeSubmatrixIndex(graph.num_nodes(), {order[0]});
  DenseMatrix m = ExactLaplacianSubmatrixInverse(graph, {order[0]});
  const int dim = m.rows();
  std::vector<char> alive(static_cast<std::size_t>(dim), 1);
  double trace = m.Trace();

  std::vector<double> traces;
  traces.reserve(order.size());
  traces.push_back(trace);
  for (std::size_t pick = 1; pick < order.size(); ++pick) {
    const NodeId best = index.pos[order[pick]];
    assert(best >= 0 && alive[best] && "order must list distinct nodes");
    double nrm = 0;
    for (int j = 0; j < dim; ++j) {
      if (alive[j]) nrm += m(best, j) * m(best, j);  // M symmetric
    }
    const double inv_pivot = 1.0 / m(best, best);
    for (int i = 0; i < dim; ++i) {
      if (!alive[i] || i == best) continue;
      const double f = m(i, best) * inv_pivot;
      if (f == 0.0) continue;
      auto mi = m.MutableRow(i);
      const auto mb = m.Row(best);
      for (int j = 0; j < dim; ++j) mi[j] -= f * mb[j];
    }
    alive[best] = 0;
    trace -= nrm * inv_pivot;
    traces.push_back(trace);
  }
  return traces;
}

ApproxCfcc ApproximateGroupCfcc(const Graph& graph,
                                const std::vector<NodeId>& group, int probes,
                                uint64_t seed, const CgOptions& cg) {
  return ApproximateGroupCfcc(graph, group, probes, seed, SolverBackend::kCg,
                              cg);
}

ApproxCfcc ApproximateGroupCfcc(const Graph& graph,
                                const std::vector<NodeId>& group, int probes,
                                uint64_t seed, SolverBackend backend,
                                const CgOptions& cg, ThreadPool* pool) {
  assert(!group.empty());
  const TraceEstimate est =
      HutchinsonTraceInverse(graph, group, probes, seed, backend, cg, pool);
  ApproxCfcc out;
  out.trace = est.trace;
  out.trace_std_error = est.std_error;
  out.cfcc = static_cast<double>(graph.num_nodes()) / est.trace;
  return out;
}

Status ValidateCfcmArguments(const Graph& graph, int k) {
  if (graph.num_nodes() < 2) {
    return Status::InvalidArgument("graph must have at least 2 nodes");
  }
  if (k < 1 || k >= graph.num_nodes()) {
    return Status::InvalidArgument(
        "k must satisfy 1 <= k < n, got k=" + std::to_string(k) +
        " with n=" + std::to_string(graph.num_nodes()));
  }
  if (!IsConnected(graph)) {
    return Status::FailedPrecondition(
        "CFCM requires a connected graph; extract the LCC first "
        "(LargestConnectedComponent)");
  }
  return Status::Ok();
}

}  // namespace cfcm
