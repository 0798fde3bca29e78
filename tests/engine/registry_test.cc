#include "engine/registry.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cfcm/cfcc.h"
#include "graph/datasets.h"

namespace cfcm::engine {
namespace {

TEST(RegistryTest, EnumeratesAllBuiltinSolvers) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  const std::set<std::string> got(names.begin(), names.end());
  const std::set<std::string> want = {"approx", "degree", "exact",  "forest",
                                      "optimum", "schur",  "topcfcc"};
  EXPECT_EQ(got, want);
  EXPECT_EQ(names.size(), got.size()) << "duplicate registration";
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RegistryTest, FindReturnsEachRegisteredSolver) {
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const std::string& name : registry.Names()) {
    EXPECT_TRUE(registry.Contains(name));
    auto solver = registry.Find(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ((*solver)->name(), name);
    EXPECT_FALSE((*solver)->description().empty()) << name;
    EXPECT_FALSE((*solver)->capabilities().complexity.empty()) << name;
  }
}

TEST(RegistryTest, RejectsUnknownNames) {
  const SolverRegistry& registry = SolverRegistry::Global();
  EXPECT_FALSE(registry.Contains("simulated-annealing"));
  auto missing = registry.Find("simulated-annealing");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The error names the valid alternatives so the CLI surfaces them.
  EXPECT_NE(missing.status().message().find("forest"), std::string::npos);
  EXPECT_NE(missing.status().message().find("schur"), std::string::npos);
}

TEST(RegistryTest, CapabilityMetadataIsConsistent) {
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const auto& solver : registry.solvers()) {
    const SolverCapabilities& caps = solver->capabilities();
    // A solver is either seed-sensitive or deterministic, never both.
    EXPECT_NE(caps.randomized, caps.deterministic) << solver->name();
    if (caps.optimal) EXPECT_TRUE(caps.deterministic) << solver->name();
  }
  EXPECT_TRUE((*registry.Find("optimum"))->capabilities().optimal);
  EXPECT_EQ((*registry.Find("optimum"))->capabilities().max_recommended_n,
            128);
  EXPECT_TRUE((*registry.Find("forest"))->capabilities().randomized);
  EXPECT_TRUE((*registry.Find("schur"))->capabilities().randomized);
  EXPECT_TRUE((*registry.Find("exact"))->capabilities().deterministic);
  EXPECT_TRUE((*registry.Find("degree"))->capabilities().deterministic);
}

TEST(RegistryTest, EverySolverSolvesKarate) {
  const Graph graph = KarateClub();
  const int k = 3;
  CfcmOptions options;
  options.seed = 11;
  options.num_threads = 1;
  options.forest_factor = 4.0;
  for (const auto& solver : SolverRegistry::Global().solvers()) {
    auto result = solver->Solve(graph, k, options, nullptr);
    ASSERT_TRUE(result.ok()) << solver->name() << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->selected.size(), static_cast<std::size_t>(k))
        << solver->name();
    std::set<NodeId> unique(result->selected.begin(), result->selected.end());
    EXPECT_EQ(unique.size(), static_cast<std::size_t>(k))
        << solver->name() << " returned duplicate nodes";
    for (NodeId u : result->selected) {
      EXPECT_GE(u, 0) << solver->name();
      EXPECT_LT(u, graph.num_nodes()) << solver->name();
    }
    // Any group it returns must be scoreable.
    EXPECT_GT(ExactGroupCfcc(graph, result->selected), 0.0) << solver->name();
  }
}

TEST(RegistryTest, SolversValidateArguments) {
  const Graph graph = KarateClub();
  for (const auto& solver : SolverRegistry::Global().solvers()) {
    EXPECT_FALSE(solver->Solve(graph, 0, {}, nullptr).ok())
        << solver->name();
    EXPECT_FALSE(solver->Solve(graph, graph.num_nodes(), {}, nullptr).ok())
        << solver->name();
  }
}

}  // namespace
}  // namespace cfcm::engine
