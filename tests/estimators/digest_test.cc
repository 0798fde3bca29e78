// Byte-level pins of the sketched estimators' outputs.
//
// The JL pass is the hot kernel and the one most likely to be rewritten
// for speed. Pinned selections only show that argmaxes held; these
// digests show that every estimate is bitwise unchanged. The full-call
// ForestDelta/SchurDelta constants were recorded before the branch-free
// sign expansion landed; the first-pick and scoped ones before the three
// estimators shared one sampling schedule. A change that moves them has
// changed the arithmetic, not just the speed.
#include <cstdint>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/first_pick.h"
#include "estimators/forest_delta.h"
#include "estimators/schur_delta.h"
#include "graph/generators.h"
#include "test_util.h"

namespace cfcm {
namespace {

// FNV-1a over the raw bytes of each vector, in order.
uint64_t Fnv1a(std::initializer_list<const std::vector<double>*> parts) {
  uint64_t hash = 1469598103934665603ull;
  for (const std::vector<double>* part : parts) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(part->data());
    for (std::size_t i = 0; i < part->size() * sizeof(double); ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

EstimatorOptions PinnedOptions() {
  EstimatorOptions options;
  options.seed = 7;
  return options;
}

TEST(EstimatorDigestTest, ForestDeltaBytesArePinned) {
  const Graph graph = BarabasiAlbert(2000, 4, 1);  // ba:2000,4,1
  ThreadPool pool(2);
  const DeltaEstimate est =
      ForestDelta(graph, {0, 17}, PinnedOptions(), pool);
  EXPECT_EQ(est.forests, 275);
  EXPECT_EQ(Fnv1a({&est.delta, &est.z, &est.numerator, &est.rel}),
            0x9609203a7fd134c6ull);
}

TEST(EstimatorDigestTest, SchurDeltaBytesArePinned) {
  const Graph graph = BarabasiAlbert(2000, 4, 1);  // ba:2000,4,1
  ThreadPool pool(2);
  const SchurDeltaEstimate est =
      SchurDelta(graph, {0, 17}, {1, 2, 3, 5, 8}, PinnedOptions(), pool);
  EXPECT_EQ(est.forests, 275);
  EXPECT_EQ(Fnv1a({&est.delta}), 0xf24d738dbb9069ecull);
}

TEST(EstimatorDigestTest, FirstPickScoresArePinned) {
  const Graph graph = BarabasiAlbert(2000, 4, 1);  // ba:2000,4,1
  ThreadPool pool(2);
  const FirstPickResult first =
      EstimateFirstPick(graph, PinnedOptions(), pool);
  EXPECT_EQ(first.forests, 275);
  EXPECT_EQ(first.walk_steps, 663773);
  EXPECT_EQ(first.best, 11);
  EXPECT_EQ(Fnv1a({&first.scores}), 0x25043fa571d3fd98ull);
}

// Every third node: the candidate subset of the scoped pins below.
std::vector<char> EveryThirdNode(NodeId n) {
  std::vector<char> mask(static_cast<std::size_t>(n), 0);
  for (NodeId u = 0; u < n; u += 3) mask[static_cast<std::size_t>(u)] = 1;
  return mask;
}

TEST(EstimatorDigestTest, ScopedForestDeltaBytesArePinned) {
  // The scope wiring the lazy and warm selection paths use: a subset
  // mask, a reduced forest target, arena replay on a second call, and a
  // warm replay plan.
  const Graph graph = BarabasiAlbert(2000, 4, 1);  // ba:2000,4,1
  ThreadPool pool(2);
  const std::vector<char> subset = EveryThirdNode(graph.num_nodes());
  ForestArena arena;
  DeltaScope scope;
  scope.subset = &subset;
  scope.arena = &arena;
  scope.forest_scale = 0.5;
  const DeltaEstimate sampled =
      ForestDelta(graph, {0, 17}, PinnedOptions(), pool, scope);
  EXPECT_EQ(sampled.forests, 137);
  EXPECT_EQ(sampled.reused_forests, 0);
  EXPECT_EQ(sampled.walk_steps, 332367);
  EXPECT_EQ(Fnv1a({&sampled.delta, &sampled.z, &sampled.numerator,
                   &sampled.rel}),
            0xebdcea8d5330b6c0ull);

  // Same round again: every forest replays from the arena and the bytes
  // are those of the sampled call.
  const DeltaEstimate replayed =
      ForestDelta(graph, {0, 17}, PinnedOptions(), pool, scope);
  EXPECT_EQ(replayed.forests, sampled.forests);
  EXPECT_EQ(replayed.reused_forests, replayed.forests);
  EXPECT_EQ(replayed.walk_steps, 0);
  EXPECT_EQ(Fnv1a({&replayed.delta, &replayed.z, &replayed.numerator,
                   &replayed.rel}),
            Fnv1a({&sampled.delta, &sampled.z, &sampled.numerator,
                   &sampled.rel}));

  // Warm replay plan: odd committed slots are dirty and resample from a
  // salted stream; the full target extends past the committed forests.
  std::vector<char> clean(static_cast<std::size_t>(arena.committed()), 0);
  for (std::size_t f = 0; f < clean.size(); f += 2) clean[f] = 1;
  DeltaScope warm;
  warm.subset = &subset;
  warm.arena = &arena;
  warm.replay_clean = &clean;
  warm.resample_seed = 99;
  const DeltaEstimate repaired =
      ForestDelta(graph, {0, 17}, PinnedOptions(), pool, warm);
  EXPECT_EQ(repaired.forests, 275);
  EXPECT_EQ(repaired.reused_forests, 69);
  EXPECT_FALSE(repaired.converged);
  EXPECT_EQ(repaired.walk_steps, 500752);
  EXPECT_EQ(Fnv1a({&repaired.delta, &repaired.z, &repaired.numerator,
                   &repaired.rel}),
            0x577cdb33c4e29c43ull);
}

TEST(EstimatorDigestTest, ScopedSchurDeltaBytesArePinned) {
  const Graph graph = BarabasiAlbert(2000, 4, 1);  // ba:2000,4,1
  ThreadPool pool(2);
  const std::vector<char> subset = EveryThirdNode(graph.num_nodes());
  ForestArena arena;
  DeltaScope scope;
  scope.subset = &subset;
  scope.arena = &arena;
  const std::vector<NodeId> t_nodes = {1, 2, 3, 5, 8};
  const SchurDeltaEstimate sampled =
      SchurDelta(graph, {0, 17}, t_nodes, PinnedOptions(), pool, scope);
  EXPECT_EQ(sampled.forests, 275);
  EXPECT_EQ(sampled.reused_forests, 0);
  EXPECT_EQ(sampled.walk_steps, 636907);
  EXPECT_EQ(Fnv1a({&sampled.delta, &sampled.z, &sampled.numerator,
                   &sampled.rel}),
            0x9a93bc2366fda60cull);

  const SchurDeltaEstimate replayed =
      SchurDelta(graph, {0, 17}, t_nodes, PinnedOptions(), pool, scope);
  EXPECT_EQ(replayed.forests, sampled.forests);
  EXPECT_EQ(replayed.reused_forests, replayed.forests);
  EXPECT_EQ(Fnv1a({&replayed.delta, &replayed.z, &replayed.numerator,
                   &replayed.rel}),
            Fnv1a({&sampled.delta, &sampled.z, &sampled.numerator,
                   &sampled.rel}));
}

TEST(EstimatorDigestTest, EveryEstimatorRunsItsTarget) {
  // A star with its hub grounded is the easiest instance there is: the
  // leaves have zero variance, so any stop on the Lemma 3.6 widths would
  // end sampling after a few batches. Every estimator, full or
  // subset-restricted, still samples exactly its forest target.
  const Graph graph = StarGraph(64);
  ThreadPool pool(2);
  EstimatorOptions options = testing::FixedForestOptions(1 << 14);
  options.seed = PinnedOptions().seed;

  const FirstPickResult first = EstimateFirstPick(graph, options, pool);
  EXPECT_EQ(first.forests, 1 << 14);

  const DeltaEstimate forest = ForestDelta(graph, {0}, options, pool);
  EXPECT_EQ(forest.forests, 1 << 14);

  const std::vector<char> subset = EveryThirdNode(graph.num_nodes());
  DeltaScope scope;
  scope.subset = &subset;
  const DeltaEstimate scoped = ForestDelta(graph, {0}, options, pool, scope);
  EXPECT_EQ(scoped.forests, 1 << 14);

  const SchurDeltaEstimate schur = SchurDelta(graph, {0}, {1}, options, pool);
  EXPECT_EQ(schur.forests, 1 << 14);
}

}  // namespace
}  // namespace cfcm
