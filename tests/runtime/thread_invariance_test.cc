// Thread-count invariance of the sampling stack (DESIGN.md §9).
//
// The sampling runtime commits per-forest statistics in forest-index
// order per node shard, so every estimate — and therefore every greedy
// selection — must be *bitwise* identical at 1, 2 and 8 threads, on
// unit-weighted and weighted graphs alike. EXPECT_EQ on doubles below is
// deliberate: these are exact-equality pins, not tolerances.
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/forest_cfcm.h"
#include "cfcm/schur_cfcm.h"
#include "common/thread_pool.h"
#include "estimators/first_pick.h"
#include "estimators/forest_delta.h"
#include "estimators/schur_delta.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "test_util.h"

namespace cfcm {
namespace {

EstimatorOptions EstOptions(uint64_t seed) {
  EstimatorOptions opts = testing::FixedForestOptions(256);
  opts.seed = seed;
  opts.jl_rows = 12;
  return opts;
}

void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "]";
  }
}

class ThreadInvarianceTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, ThreadInvarianceTest,
                         ::testing::Values(2u, 8u));

TEST_P(ThreadInvarianceTest, FirstPickScoresBitwiseMatchSingleThread) {
  for (const Graph& g : {ContiguousUsa(), KarateClubWeighted()}) {
    ThreadPool pool1(1), pool_n(GetParam());
    const FirstPickResult a = EstimateFirstPick(g, EstOptions(11), pool1);
    const FirstPickResult b = EstimateFirstPick(g, EstOptions(11), pool_n);
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.pivot, b.pivot);
    EXPECT_EQ(a.forests, b.forests);
    EXPECT_EQ(a.walk_steps, b.walk_steps);
    ExpectBitwiseEqual(a.scores, b.scores, "scores");
  }
}

TEST_P(ThreadInvarianceTest, ForestDeltaBitwiseMatchesSingleThread) {
  for (const Graph& g : {ContiguousUsa(), KarateClubWeighted()}) {
    ThreadPool pool1(1), pool_n(GetParam());
    const DeltaEstimate a = ForestDelta(g, {0}, EstOptions(21), pool1);
    const DeltaEstimate b = ForestDelta(g, {0}, EstOptions(21), pool_n);
    EXPECT_EQ(a.forests, b.forests);
    EXPECT_EQ(a.walk_steps, b.walk_steps);
    ExpectBitwiseEqual(a.delta, b.delta, "delta");
    ExpectBitwiseEqual(a.z, b.z, "z");
    ExpectBitwiseEqual(a.numerator, b.numerator, "numerator");
  }
}

TEST_P(ThreadInvarianceTest, SchurDeltaBitwiseMatchesSingleThread) {
  for (const Graph& g : {ContiguousUsa(), KarateClubWeighted()}) {
    ThreadPool pool1(1), pool_n(GetParam());
    const std::vector<NodeId> s = {0};
    const std::vector<NodeId> t = {5, 17};  // arbitrary hubs, disjoint from S
    const SchurDeltaEstimate a = SchurDelta(g, s, t, EstOptions(31), pool1);
    const SchurDeltaEstimate b = SchurDelta(g, s, t, EstOptions(31), pool_n);
    EXPECT_EQ(a.forests, b.forests);
    EXPECT_EQ(a.walk_steps, b.walk_steps);
    EXPECT_EQ(a.ridge, b.ridge);
    ExpectBitwiseEqual(a.delta, b.delta, "delta");
    ExpectBitwiseEqual(a.z, b.z, "z");
    ExpectBitwiseEqual(a.numerator, b.numerator, "numerator");
  }
}

// ForestCfcmMaximize without its warm-capture argument, so both sampled
// solvers fit one function-pointer type.
StatusOr<CfcmResult> ForestCfcm(const Graph& g, int k,
                                const CfcmOptions& options) {
  return ForestCfcmMaximize(g, k, options);
}

// Full-solver invariance, including the lazy layer's re-score batches
// and reduced decayed-regime targets (the per-iteration forest counts
// pin those decisions too).
void ExpectSolverInvariant(
    const Graph& g, int k,
    StatusOr<CfcmResult> (*solve)(const Graph&, int, const CfcmOptions&)) {
  CfcmOptions base;
  base.seed = 7;
  ThreadPool pool1(1);
  base.pool = &pool1;
  const auto reference = solve(g, k, base);
  ASSERT_TRUE(reference.ok());
  for (std::size_t threads : {2u, 8u}) {
    ThreadPool pool_n(threads);
    CfcmOptions opts = base;
    opts.pool = &pool_n;
    const auto result = solve(g, k, opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->selected, reference->selected) << threads << " threads";
    EXPECT_EQ(result->forests_per_iteration,
              reference->forests_per_iteration)
        << threads << " threads";
    EXPECT_EQ(result->total_forests, reference->total_forests);
    EXPECT_EQ(result->total_walk_steps, reference->total_walk_steps);
  }
}

TEST(SolverThreadInvarianceTest, ForestCfcmUnitWeighted) {
  ExpectSolverInvariant(KarateClub(), 4, &ForestCfcm);
}

TEST(SolverThreadInvarianceTest, ForestCfcmWeighted) {
  ExpectSolverInvariant(KarateClubWeighted(), 4, &ForestCfcm);
}

TEST(SolverThreadInvarianceTest, ForestCfcmWeightedGrid) {
  ExpectSolverInvariant(AssignUniformWeights(GridGraph(6, 6), 0.25, 4.0, 23),
                        3, &ForestCfcm);
}

TEST(SolverThreadInvarianceTest, SchurCfcmUnitWeighted) {
  ExpectSolverInvariant(KarateClub(), 4, &SchurCfcmMaximize);
}

TEST(SolverThreadInvarianceTest, SchurCfcmWeighted) {
  ExpectSolverInvariant(KarateClubWeighted(), 4, &SchurCfcmMaximize);
}

TEST(SolverThreadInvarianceTest, NumThreadsKnobIsResultInvariant) {
  // The public knob (shared process pools) must behave like the injected
  // pools above: only speed may change with num_threads.
  const Graph g = ContiguousUsa();
  CfcmOptions one;
  one.seed = 3;
  one.num_threads = 1;
  CfcmOptions eight = one;
  eight.num_threads = 8;
  const auto a = ForestCfcmMaximize(g, 5, one);
  const auto b = ForestCfcmMaximize(g, 5, eight);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->selected, b->selected);
  EXPECT_EQ(a->total_forests, b->total_forests);
  EXPECT_EQ(a->total_walk_steps, b->total_walk_steps);
}

}  // namespace
}  // namespace cfcm
