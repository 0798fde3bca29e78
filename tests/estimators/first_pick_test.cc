#include "estimators/first_pick.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"
#include "test_util.h"

namespace cfcm {
namespace {

EstimatorOptions TestOptions(int forests = 4096) {
  EstimatorOptions opts = testing::FixedForestOptions(forests);
  opts.seed = 11;
  return opts;
}

TEST(FirstPickTest, FindsArgminOfPseudoinverseDiagonalOnKarate) {
  const Graph g = KarateClub();
  ThreadPool pool(2);
  const FirstPickResult result = EstimateFirstPick(g, TestOptions(), pool);
  const DenseMatrix pinv = LaplacianPseudoinverse(g);
  NodeId exact_best = 0;
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    if (pinv(u, u) < pinv(exact_best, exact_best)) exact_best = u;
  }
  EXPECT_EQ(result.best, exact_best);
  EXPECT_EQ(result.pivot, 33);  // max degree node
}

TEST(FirstPickTest, ScoresMatchShiftedDiagonal) {
  // scores[u] should estimate L†_uu - L†_ss (Lemma 3.5).
  const Graph g = ContiguousUsa();
  ThreadPool pool(2);
  const FirstPickResult result = EstimateFirstPick(g, TestOptions(8192), pool);
  const DenseMatrix pinv = LaplacianPseudoinverse(g);
  const NodeId s = result.pivot;
  for (NodeId u = 0; u < g.num_nodes(); u += 5) {
    const double exact = pinv(u, u) - pinv(s, s);
    EXPECT_NEAR(result.scores[u], exact, 0.08 + 0.1 * std::abs(exact))
        << "u=" << u;
  }
}

TEST(FirstPickTest, StarGraphPicksHub) {
  const Graph g = StarGraph(20);
  ThreadPool pool(1);
  const FirstPickResult result = EstimateFirstPick(g, TestOptions(256), pool);
  EXPECT_EQ(result.best, 0);
}

TEST(FirstPickTest, PathGraphPicksCenter) {
  const Graph g = PathGraph(15);
  ThreadPool pool(2);
  const FirstPickResult result = EstimateFirstPick(g, TestOptions(8192), pool);
  // Center of a 15-path is node 7; allow one off due to near-ties.
  EXPECT_NEAR(result.best, 7, 1);
}

TEST(FirstPickTest, DeterministicInSeed) {
  const Graph g = KarateClub();
  ThreadPool pool(2);
  const FirstPickResult a = EstimateFirstPick(g, TestOptions(512), pool);
  const FirstPickResult b = EstimateFirstPick(g, TestOptions(512), pool);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.scores, b.scores);
}

TEST(FirstPickTest, DeterministicAcrossThreadCounts) {
  // Forest i is seeded by (seed, i), so the sampled forests are
  // identical regardless of worker count; only the floating-point
  // summation order differs. Scores must agree to rounding error.
  const Graph g = ContiguousUsa();
  ThreadPool pool1(1), pool4(4);
  const FirstPickResult a = EstimateFirstPick(g, TestOptions(256), pool1);
  const FirstPickResult b = EstimateFirstPick(g, TestOptions(256), pool4);
  EXPECT_EQ(a.best, b.best);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t u = 0; u < a.scores.size(); ++u) {
    EXPECT_NEAR(a.scores[u], b.scores[u], 1e-9 * (1.0 + std::abs(a.scores[u])));
  }
}

}  // namespace
}  // namespace cfcm
