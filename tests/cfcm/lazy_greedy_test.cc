// Lazy-greedy (CELF) selection layer (DESIGN.md §13).
//
// 1. LazyHeap is a deterministic indexed max-heap: (key desc, id asc),
//    O(1) membership.
// 2. On the pinned regression graphs the lazy path selects bitwise
//    identical groups to the exhaustive scan — every seed, unit and
//    weighted, both sampled solvers, any thread count.
// 3. The pruning path is semantically correct: on a deterministic
//    proportional-decay oracle the lazy loop reproduces the exact
//    greedy sequence while re-scoring strictly fewer candidates.
// 4. Escalation within a round replays the round's forest arena, and
//    every popped candidate is re-scored on that round's forests.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/forest_cfcm.h"
#include "cfcm/lazy_greedy.h"
#include "cfcm/options.h"
#include "cfcm/schur_cfcm.h"
#include "graph/datasets.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace cfcm {
namespace {

CfcmOptions Opts(uint64_t seed, SelectionMode mode) {
  CfcmOptions options;
  options.seed = seed;
  options.num_threads = 1;
  options.selection = mode;
  return options;
}

// ------------------------------------------------------------- LazyHeap

TEST(LazyHeapTest, PopsInKeyOrderWithIdTieBreak) {
  LazyHeap heap;
  heap.Reset(8);
  heap.Push(3, 1.0, 1.0, 0);
  heap.Push(1, 2.0, 2.0, 0);
  heap.Push(5, 2.0, 2.0, 0);  // tie with 1: lower id must pop first
  heap.Push(0, 0.5, 0.5, 0);
  heap.Push(7, 3.0, 3.0, 0);

  ASSERT_TRUE(heap.Contains(1));
  std::vector<NodeId> order;
  while (!heap.empty()) order.push_back(heap.Pop().id);
  EXPECT_EQ(order, (std::vector<NodeId>{7, 1, 5, 3, 0}));
  EXPECT_FALSE(heap.Contains(1));
}

// ------------------------------------- lazy == exhaustive (pinned graphs)

void ExpectLazyMatchesExhaustive(const Graph& g, int k, uint64_t seed) {
  const auto fe = ForestCfcmMaximize(g, k, Opts(seed, SelectionMode::kExhaustive));
  const auto fl = ForestCfcmMaximize(g, k, Opts(seed, SelectionMode::kLazy));
  ASSERT_TRUE(fe.ok());
  ASSERT_TRUE(fl.ok());
  EXPECT_EQ(fe->selected, fl->selected) << "forest seed " << seed;
  const auto se = SchurCfcmMaximize(g, k, Opts(seed, SelectionMode::kExhaustive));
  const auto sl = SchurCfcmMaximize(g, k, Opts(seed, SelectionMode::kLazy));
  ASSERT_TRUE(se.ok());
  ASSERT_TRUE(sl.ok());
  EXPECT_EQ(se->selected, sl->selected) << "schur seed " << seed;
}

TEST(LazyEqualsExhaustiveTest, KarateAllPinnedSeeds) {
  const Graph g = KarateClub();
  for (uint64_t seed : {1, 2, 5}) ExpectLazyMatchesExhaustive(g, 4, seed);
}

TEST(LazyEqualsExhaustiveTest, KarateWeighted) {
  const Graph g = KarateClubWeighted();
  for (uint64_t seed : {1, 2, 5}) ExpectLazyMatchesExhaustive(g, 4, seed);
}

TEST(LazyEqualsExhaustiveTest, ContiguousUsa) {
  ExpectLazyMatchesExhaustive(ContiguousUsa(), 5, 3);
}

TEST(LazyEqualsExhaustiveTest, LazyIsTheDefaultMode) {
  // The pinned-regression suite (weighted_regression_test.cc) runs the
  // solvers with default options; this asserts those pins exercise the
  // lazy path rather than silently testing the exhaustive scan.
  CfcmOptions options;
  EXPECT_EQ(options.selection, SelectionMode::kLazy);
  const auto result = ForestCfcmMaximize(KarateClub(), 4, Opts(1, options.selection));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selected, (std::vector<NodeId>{0, 25, 16, 18}));
}

// -------------------------------------------- determinism across threads

TEST(LazySelectionDeterminismTest, ThreadCountInvariantOnDecayedGraph) {
  // ba:400 is large enough (n >= 256) to enter the budgeted decayed
  // regime — the path where batches, decay calibration, and reduced
  // forest targets all interact — and must still be a pure function of
  // the seed.
  const Graph g = BarabasiAlbert(400, 4, 1);
  std::vector<NodeId> reference;
  for (int threads : {1, 2, 8}) {
    CfcmOptions options = Opts(9, SelectionMode::kLazy);
    options.num_threads = threads;
    const auto result = ForestCfcmMaximize(g, 6, options);
    ASSERT_TRUE(result.ok());
    if (reference.empty()) {
      reference = result->selected;
    } else {
      EXPECT_EQ(result->selected, reference) << "threads " << threads;
    }
  }
}

// --------------------------------------------- synthetic pruning oracle

TEST(LazyGreedySelectTest, ReproducesExactGreedyOnProportionalDecayOracle) {
  // Deterministic oracle: gain(u | S) = base(u) * 0.8^|S\{first}|, with
  // distinct per-node bases and zero width. Stale keys then order
  // candidates exactly like current gains, so the survival test prunes
  // aggressively and the lazy loop must still return the true greedy
  // sequence (argmax of base, repeatedly).
  const Graph g = KarateClub();
  const NodeId n = g.num_nodes();
  CfcmOptions options = Opts(1, SelectionMode::kLazy);
  ThreadPool& pool = ResolveSamplingPool(options);

  auto base = [n](NodeId u) {
    return 1.0 + static_cast<double>((u * 37) % n);
  };
  std::int64_t oracle_calls = 0;
  auto delta_fn = [&](const std::vector<NodeId>& s_nodes, uint64_t /*seed*/,
                      const DeltaScope& scope) {
    ++oracle_calls;
    DeltaEstimate d;
    d.delta.assign(static_cast<std::size_t>(n), 0.0);
    d.rel.assign(static_cast<std::size_t>(n), 0.0);
    d.forests = 1;
    double scale = 1.0;
    for (std::size_t j = 1; j < s_nodes.size(); ++j) scale *= 0.8;
    for (NodeId u = 0; u < n; ++u) {
      const bool in_s =
          std::find(s_nodes.begin(), s_nodes.end(), u) != s_nodes.end();
      if (in_s) continue;
      if (scope.subset != nullptr && !(*scope.subset)[u]) continue;
      d.delta[u] = base(u) * scale;
    }
    return d;
  };

  const int k = 6;
  const auto result =
      LazyGreedySelect(g, k, options, pool, delta_fn);
  ASSERT_TRUE(result.ok());

  // Expected: the real first pick, then base() argmax among the rest.
  std::vector<NodeId> expected = {result->selected[0]};
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  taken[expected[0]] = 1;
  for (int i = 1; i < k; ++i) {
    NodeId best = -1;
    for (NodeId u = 0; u < n; ++u) {
      if (taken[u]) continue;
      if (best < 0 || base(u) > base(best)) best = u;
    }
    taken[best] = 1;
    expected.push_back(best);
  }
  EXPECT_EQ(result->selected, expected);
  // The survival test must have pruned: strictly fewer re-scores than
  // the exhaustive loop's (k-1) full scans of the candidate set.
  EXPECT_LT(result->rescored_candidates,
            static_cast<std::int64_t>(k - 1) * (n - 1));
  EXPECT_GT(result->heap_pops, 0);
}

// ------------------------------------------------ within-round replay

TEST(LazyForestReuseTest, EscalationReplaysWithinRoundArena) {
  // When a round's first batch fails the survival test, the escalation
  // call replays the round arena instead of re-walking; the replayed
  // forests must show up in the counters. ba:2000 seed 1 escalates in
  // its pre-calibration round (pinned by determinism, like every other
  // trajectory detail).
  const Graph g = BarabasiAlbert(2000, 4, 1);
  const auto result = ForestCfcmMaximize(g, 6, Opts(1, SelectionMode::kLazy));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->forests_reused, 0);
}

// ------------------------------------------- work-counter ordering (§13)

TEST(LazyWorkCountersTest, LazyRescoresFewerCandidatesThanExhaustive) {
  // Every lazy round scores its candidates on fresh forests, so each
  // heap pop is exactly one re-score, for both sampled solvers. The
  // seed 6 / eps 0.3 trajectory has a round whose stale top dwarfs the
  // runner-up, the case where a pop could otherwise go unscored.
  const Graph g = BarabasiAlbert(400, 4, 1);
  const int k = 8;
  struct Input {
    uint64_t seed;
    double eps;
  };
  for (const Input input : {Input{1, 0.2}, Input{6, 0.3}}) {
    SCOPED_TRACE(::testing::Message() << "seed " << input.seed);
    CfcmOptions exhaustive = Opts(input.seed, SelectionMode::kExhaustive);
    exhaustive.eps = input.eps;
    CfcmOptions lazy = Opts(input.seed, SelectionMode::kLazy);
    lazy.eps = input.eps;
    const auto ex = ForestCfcmMaximize(g, k, exhaustive);
    const auto lz = ForestCfcmMaximize(g, k, lazy);
    const auto sl = SchurCfcmMaximize(g, k, lazy);
    ASSERT_TRUE(ex.ok());
    ASSERT_TRUE(lz.ok());
    ASSERT_TRUE(sl.ok());
    EXPECT_GT(ex->rescored_candidates, 0);
    EXPECT_LT(lz->rescored_candidates, ex->rescored_candidates);
    EXPECT_GT(lz->heap_pops, 0);
    EXPECT_EQ(ex->heap_pops, 0);  // the scan never touches a heap
    EXPECT_EQ(lz->heap_pops, lz->rescored_candidates);
    EXPECT_EQ(sl->heap_pops, sl->rescored_candidates);
  }
}

// Every work counter and the selection of one solve.
struct PinnedResult {
  std::vector<NodeId> selected;
  std::vector<int> forests_per_iteration;
  std::int64_t total_forests;
  std::int64_t total_walk_steps;
  std::int64_t rescored_candidates;
  std::int64_t heap_pops;
  std::int64_t forests_reused;
  int jl_rows;
};

void ExpectPinned(const StatusOr<CfcmResult>& result,
                  const PinnedResult& want) {
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->selected, want.selected);
  EXPECT_EQ(result->forests_per_iteration, want.forests_per_iteration);
  EXPECT_EQ(result->total_forests, want.total_forests);
  EXPECT_EQ(result->total_walk_steps, want.total_walk_steps);
  EXPECT_EQ(result->rescored_candidates, want.rescored_candidates);
  EXPECT_EQ(result->heap_pops, want.heap_pops);
  EXPECT_EQ(result->forests_reused, want.forests_reused);
  EXPECT_EQ(result->jl_rows, want.jl_rows);
}

TEST(LazyWorkCountersTest, FullResultsArePinned) {
  // Both sampled solvers under both selection loops on ba:400,4,1,
  // k = 8: selection, per-round forests and every work counter. The
  // exhaustive rows re-score all n - i candidates per round and never
  // touch the heap or an arena.
  const Graph g = BarabasiAlbert(400, 4, 1);
  const int k = 8;
  ExpectPinned(ForestCfcmMaximize(g, k, Opts(1, SelectionMode::kExhaustive)),
               {{99, 117, 12, 55, 6, 154, 16, 30},
                {217, 217, 217, 217, 217, 217, 217, 217},
                1736, 953929, 2772, 0, 0, 18});
  ExpectPinned(ForestCfcmMaximize(g, k, Opts(1, SelectionMode::kLazy)),
               {{99, 117, 12, 1, 6, 157, 8, 4},
                {217, 217, 217, 108, 108, 108, 108, 108},
                1191, 681744, 1025, 1025, 0, 18});
  ExpectPinned(SchurCfcmMaximize(g, k, Opts(1, SelectionMode::kExhaustive)),
               {{99, 4, 1, 6, 2, 288, 355, 7},
                {217, 217, 217, 217, 217, 217, 217, 217},
                1736, 773395, 2772, 0, 0, 18});
  ExpectPinned(SchurCfcmMaximize(g, k, Opts(1, SelectionMode::kLazy)),
               {{99, 4, 1, 196, 281, 5, 379, 15},
                {217, 217, 217, 108, 108, 108, 108, 108},
                1191, 535034, 1061, 1061, 0, 18});
}

// ------------------------------- weighted hub order (SchurCFCM T roots)

TEST(WeightedHubOrderTest, HubRemovalOrderUsesWeightedDegrees) {
  // Node 4 has only two edges but dominant conductances; the hub order
  // must rank it by weighted degree, ahead of the high-arity node 0.
  const Graph g = BuildWeightedGraph(
      6, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}, {0, 5, 1.0},
          {4, 1, 10.0}, {4, 2, 10.0}});
  const auto order = HubRemovalOrder(g, 2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 4);  // weighted degree 20 beats degree-4 node 0
  EXPECT_EQ(order[1], 0);
}

TEST(WeightedHubOrderTest, EqualWeightedDegreesKeepHistoricalTieBreak) {
  // Symmetric 4-cycle with uniform conductances: all weighted degrees
  // tie, and the heap must reproduce the historical (pre-weights)
  // tie-break — higher node id first — so unit-weighted graphs keep
  // their pinned T orders bit for bit. The cap clamps to n-2.
  const Graph g = BuildWeightedGraph(
      4, {{0, 1, 2.0}, {1, 2, 2.0}, {2, 3, 2.0}, {3, 0, 2.0}});
  const auto order = HubRemovalOrder(g, 4);
  EXPECT_EQ(order, (std::vector<NodeId>{3, 1}));
}

}  // namespace
}  // namespace cfcm
