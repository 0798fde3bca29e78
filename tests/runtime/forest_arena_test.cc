// ForestArena storage contract: stored forests round-trip bitwise
// through LoadInto, across round changes that grow n at an unchanged
// capacity, and ContainsUpEdge agrees with the stored parent array.
#include "runtime/forest_arena.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "forest/wilson.h"
#include "graph/generators.h"

namespace cfcm {
namespace {

std::vector<RootedForest> SampleForests(const Graph& g, NodeId root,
                                        uint64_t seed, int count) {
  std::vector<char> is_root(static_cast<std::size_t>(g.num_nodes()), 0);
  is_root[static_cast<std::size_t>(root)] = 1;
  ForestSampler sampler(g);
  std::vector<RootedForest> forests;
  for (int f = 0; f < count; ++f) {
    Rng rng(seed, static_cast<uint64_t>(f));
    forests.push_back(sampler.Sample(is_root, &rng));
  }
  return forests;
}

void StoreAll(ForestArena* arena, const std::vector<RootedForest>& forests) {
  for (int f = 0; f < static_cast<int>(forests.size()); ++f) {
    arena->Store(f, forests[static_cast<std::size_t>(f)]);
  }
  arena->Commit(static_cast<int>(forests.size()));
}

void ExpectRoundTrip(const ForestArena& arena,
                     const std::vector<RootedForest>& forests) {
  ASSERT_EQ(arena.committed(), static_cast<int>(forests.size()));
  RootedForest out;
  for (int f = 0; f < arena.committed(); ++f) {
    arena.LoadInto(f, &out);
    const RootedForest& in = forests[static_cast<std::size_t>(f)];
    EXPECT_EQ(out.parent, in.parent) << "forest " << f;
    EXPECT_EQ(out.leaves_first, in.leaves_first) << "forest " << f;
    EXPECT_EQ(out.root_of, in.root_of) << "forest " << f;
  }
}

TEST(ForestArenaTest, LargerRoundAtSameCapacityRoundTrips) {
  // The slabs must follow the round's n, not only its capacity: a
  // 40-node round after a 10-node round at capacity 4 needs 4x the
  // memory of the first.
  const Graph small = BarabasiAlbert(10, 2, 1);
  const Graph large = BarabasiAlbert(40, 2, 1);
  ForestArena arena;
  arena.BeginRound(10, {0}, 1, 4);
  StoreAll(&arena, SampleForests(small, 0, 1, 4));

  arena.BeginRound(40, {0}, 2, 4);
  EXPECT_EQ(arena.committed(), 0);  // new signature forgets the forests
  EXPECT_EQ(arena.capacity(), 4);
  const std::vector<RootedForest> forests = SampleForests(large, 0, 2, 4);
  StoreAll(&arena, forests);
  ExpectRoundTrip(arena, forests);

  // Back down and up again: each round change resizes for its own n.
  arena.BeginRound(10, {0}, 3, 4);
  StoreAll(&arena, SampleForests(small, 0, 3, 4));
  arena.BeginRound(40, {0}, 4, 4);
  const std::vector<RootedForest> again = SampleForests(large, 0, 4, 4);
  StoreAll(&arena, again);
  ExpectRoundTrip(arena, again);
}

TEST(ForestArenaTest, MatchingRoundKeepsForestsWhileCapacityGrows) {
  const Graph g = BarabasiAlbert(30, 2, 7);
  ForestArena arena;
  arena.BeginRound(30, {0}, 5, 3);
  const std::vector<RootedForest> forests = SampleForests(g, 0, 5, 3);
  StoreAll(&arena, forests);

  arena.BeginRound(30, {0}, 5, 64);
  EXPECT_TRUE(arena.MatchesRound(30, {0}, 5));
  EXPECT_EQ(arena.capacity(), 64);
  ExpectRoundTrip(arena, forests);
}

TEST(ForestArenaTest, ContainsUpEdgeMatchesStoredParents) {
  const Graph g = BarabasiAlbert(30, 2, 3);
  ForestArena arena;
  arena.BeginRound(30, {0}, 9, 8);
  const std::vector<RootedForest> forests = SampleForests(g, 0, 9, 8);
  StoreAll(&arena, forests);
  for (int f = 0; f < arena.committed(); ++f) {
    const std::vector<NodeId>& parent =
        forests[static_cast<std::size_t>(f)].parent;
    for (const auto& [u, v] : g.Edges()) {
      const bool up = parent[static_cast<std::size_t>(u)] == v ||
                      parent[static_cast<std::size_t>(v)] == u;
      EXPECT_EQ(arena.ContainsUpEdge(f, u, v), up)
          << "forest " << f << " edge " << u << "-" << v;
      EXPECT_EQ(arena.ContainsUpEdge(f, v, u), up);
    }
    EXPECT_FALSE(arena.ContainsUpEdge(f, 0, 30));  // out of range
  }
}

}  // namespace
}  // namespace cfcm
