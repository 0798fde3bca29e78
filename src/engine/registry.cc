#include "engine/registry.h"

#include <algorithm>
#include <utility>

#include "cfcm/approx_greedy.h"
#include "cfcm/cfcc.h"
#include "cfcm/exact_greedy.h"
#include "cfcm/forest_cfcm.h"
#include "cfcm/heuristics.h"
#include "cfcm/optimum.h"
#include "cfcm/schur_cfcm.h"
#include "common/timer.h"

namespace cfcm::engine {
namespace {

// Above this size the dense O(n^3) paths (exact heuristic ranking) switch
// to their sampled counterparts. See DESIGN.md "Engineering constants".
constexpr NodeId kDenseHeuristicMaxN = 512;

class ForestSolver final : public Solver {
 public:
  ForestSolver()
      : Solver("forest",
               "ForestCFCM (Alg. 3): greedy maximization by spanning "
               "forest sampling",
               {.optimal = false,
                .deterministic = false,
                .randomized = true,
                .approximation_guarantee = true,
                .complexity = "~O(k m eps^-2 log n) expected",
                .max_recommended_n = 0}) {}

  // The only solver with a warm path (DESIGN.md §16).
  StatusOr<CfcmResult> Solve(const Graph& graph, int k,
                             const CfcmOptions& options,
                             WarmIo* warm) const override {
    return ForestSolveWithWarm(graph, k, options, warm);
  }
};

class SchurSolver final : public Solver {
 public:
  SchurSolver()
      : Solver("schur",
               "SchurCFCM (Alg. 5): forest sampling accelerated by a "
               "Schur complement on hub roots",
               {.optimal = false,
                .deterministic = false,
                .randomized = true,
                .approximation_guarantee = true,
                .complexity = "~O(k m eps^-2 log n) expected, smaller "
                              "constants on scale-free graphs",
                .max_recommended_n = 0}) {}

  StatusOr<CfcmResult> Solve(const Graph& graph, int k,
                             const CfcmOptions& options,
                             WarmIo* /*warm*/) const override {
    return SchurCfcmMaximize(graph, k, options);
  }
};

class ExactGreedySolver final : public Solver {
 public:
  ExactGreedySolver()
      : Solver("exact",
               "EXACT baseline: greedy via Sherman-Morrison downdates "
               "(dense inverse or factored-solve backend, DESIGN.md §14)",
               {.optimal = false,
                .deterministic = true,
                .randomized = false,
                .approximation_guarantee = true,
                .complexity = "O(n^3 + k n^2) dense; "
                              "O(n (fill + solve) + k n) sparse",
                .max_recommended_n = 0}) {}

  StatusOr<CfcmResult> Solve(const Graph& graph, int k,
                             const CfcmOptions& options,
                             WarmIo* /*warm*/) const override {
    StatusOr<ExactGreedyResult> result =
        ExactGreedyMaximize(graph, k, options);
    if (!result.ok()) return result.status();
    CfcmResult out;
    out.selected = std::move(result->selected);
    out.seconds = result->seconds;
    out.solver_backend = SolverBackendName(result->backend);
    return out;
  }
};

class ApproxGreedySolver final : public Solver {
 public:
  ApproxGreedySolver()
      : Solver("approx",
               "APPROXGREEDY baseline (Li et al.): JL-sketched greedy on "
               "Laplacian solves",
               {.optimal = false,
                .deterministic = false,
                .randomized = true,
                .approximation_guarantee = true,
                .complexity = "O(k eps^-2 log n) Laplacian solves",
                .max_recommended_n = 0}) {}

  StatusOr<CfcmResult> Solve(const Graph& graph, int k,
                             const CfcmOptions& options,
                             WarmIo* /*warm*/) const override {
    StatusOr<ApproxGreedyResult> result =
        ApproxGreedyMaximize(graph, k, options);
    if (!result.ok()) return result.status();
    CfcmResult out;
    out.selected = std::move(result->selected);
    out.seconds = result->seconds;
    out.solver_calls = result->solver_calls;
    // APPROXGREEDY's Laplacian systems always run matrix-free CG.
    out.solver_backend = SolverBackendName(SolverBackend::kCg);
    return out;
  }
};

class DegreeSolver final : public Solver {
 public:
  DegreeSolver()
      : Solver("degree",
               "DEGREE heuristic: the k nodes of largest (weighted) degree",
               {.optimal = false,
                .deterministic = true,
                .randomized = false,
                .approximation_guarantee = false,
                .complexity = "O(n log n)",
                .max_recommended_n = 0}) {}

  StatusOr<CfcmResult> Solve(const Graph& graph, int k,
                             const CfcmOptions& options,
                             WarmIo* /*warm*/) const override {
    (void)options;
    CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
    Timer timer;
    CfcmResult out;
    out.selected = DegreeSelect(graph, k);
    out.seconds = timer.Seconds();
    return out;
  }
};

class TopCfccSolver final : public Solver {
 public:
  TopCfccSolver()
      : Solver("topcfcc",
               "TOP-CFCC heuristic: the k nodes of largest single-node "
               "CFCC (dense when n <= 512, forest-estimated above)",
               {.optimal = false,
                .deterministic = false,
                .randomized = true,
                .approximation_guarantee = false,
                .complexity = "O(n^3) dense / sampled above n = 512",
                .max_recommended_n = 0}) {}

  StatusOr<CfcmResult> Solve(const Graph& graph, int k,
                             const CfcmOptions& options,
                             WarmIo* /*warm*/) const override {
    CFCM_RETURN_IF_ERROR(ValidateCfcmArguments(graph, k));
    Timer timer;
    CfcmResult out;
    out.selected = graph.num_nodes() <= kDenseHeuristicMaxN
                       ? TopCfccSelectExact(graph, k)
                       : TopCfccSelectEstimated(graph, k, options);
    out.seconds = timer.Seconds();
    return out;
  }
};

class OptimumSolver final : public Solver {
 public:
  OptimumSolver()
      : Solver("optimum",
               "Exhaustive optimum over all C(n, k) groups (tiny graphs)",
               {.optimal = true,
                .deterministic = true,
                .randomized = false,
                .approximation_guarantee = true,
                .complexity = "O(C(n, k) n^2); rejects n > 128",
                .max_recommended_n = 128}) {}

  StatusOr<CfcmResult> Solve(const Graph& graph, int k,
                             const CfcmOptions& options,
                             WarmIo* /*warm*/) const override {
    StatusOr<OptimumResult> result = OptimumSearch(graph, k, options);
    if (!result.ok()) return result.status();
    CfcmResult out;
    out.selected = std::move(result->best);
    out.seconds = result->seconds;
    out.solver_backend = SolverBackendName(result->backend);
    return out;
  }
};

}  // namespace

SolverRegistry::SolverRegistry() {
  solvers_.push_back(std::make_unique<ApproxGreedySolver>());
  solvers_.push_back(std::make_unique<DegreeSolver>());
  solvers_.push_back(std::make_unique<ExactGreedySolver>());
  solvers_.push_back(std::make_unique<ForestSolver>());
  solvers_.push_back(std::make_unique<OptimumSolver>());
  solvers_.push_back(std::make_unique<SchurSolver>());
  solvers_.push_back(std::make_unique<TopCfccSolver>());
  std::sort(solvers_.begin(), solvers_.end(),
            [](const auto& a, const auto& b) { return a->name() < b->name(); });
}

const SolverRegistry& SolverRegistry::Global() {
  static const SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const auto& solver : solvers_) names.push_back(solver->name());
  return names;
}

bool SolverRegistry::Contains(const std::string& name) const {
  return std::any_of(solvers_.begin(), solvers_.end(),
                     [&](const auto& s) { return s->name() == name; });
}

StatusOr<const Solver*> SolverRegistry::Find(const std::string& name) const {
  for (const auto& solver : solvers_) {
    if (solver->name() == name) return solver.get();
  }
  std::string valid;
  for (const auto& solver : solvers_) {
    if (!valid.empty()) valid += ", ";
    valid += solver->name();
  }
  return Status::NotFound("unknown solver '" + name + "'; valid names: " +
                          valid);
}

}  // namespace cfcm::engine
