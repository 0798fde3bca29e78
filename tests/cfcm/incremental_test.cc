// Incremental re-solve pipeline (DESIGN.md §16).
//
// 1. Identity deltas (empty batch, no-op reweight) take the warm fast
//    path and return the stored cold result verbatim — selection and
//    cfcc bitwise — on every pinned regression graph.
// 2. Under a small reweight delta the warm repair's group is as good as
//    the cold re-solve's across its seed spread (exact CFCC).
// 3. Warm results are a pure function of the seed: 1/2/8 sampling
//    threads produce bitwise identical selections.
// 4. The DecideWarm fallback policy fires for every documented trigger
//    (missing state, k drift, parameter drift, oversized delta,
//    disconnection), and a kOn solve that falls back reports
//    cold_fallback without warm_started. An edge addition is not a
//    trigger: it runs warm and replays nothing.
// 5. AdvanceWarmState folds deltas into the running summary: touched
//    edges accumulate, structural flags flip on removals/additions, and
//    the retained forests pass the keep rule.
// 6. The keep rule samples the post-delta forest measure: after one or
//    several reweights of an edge, the share of committed forests that
//    use it matches fresh sampling on the new graph.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cfcm/cfcc.h"
#include "cfcm/incremental.h"
#include "cfcm/options.h"
#include "common/rng.h"
#include "forest/wilson.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace cfcm {
namespace {

CfcmOptions Opts(uint64_t seed, int threads = 1) {
  CfcmOptions options;
  options.seed = seed;
  options.num_threads = threads;
  options.selection = SelectionMode::kLazy;
  return options;
}

/// ForestSolveWithWarm through a WarmIo built from `mode` and `state`;
/// a non-null `deposit` receives the successor WarmState.
StatusOr<CfcmResult> WarmSolve(const Graph& g, int k, const CfcmOptions& o,
                               WarmMode mode,
                               std::shared_ptr<const WarmState> state,
                               std::shared_ptr<const WarmState>* deposit) {
  WarmIo io;
  io.mode = mode;
  io.state = std::move(state);
  StatusOr<CfcmResult> result = ForestSolveWithWarm(g, k, o, &io);
  if (deposit != nullptr) *deposit = std::move(io.deposit);
  return result;
}

/// Cold solve that also returns the deposited successor WarmState.
StatusOr<CfcmResult> ColdSolve(const Graph& g, int k, const CfcmOptions& o,
                               std::shared_ptr<const WarmState>* deposit) {
  return WarmSolve(g, k, o, WarmMode::kOff, nullptr, deposit);
}

// ------------------------------------------- identity-delta parity (§16)

void ExpectIdentityParity(const Graph& g, int k, uint64_t seed) {
  const CfcmOptions options = Opts(seed);
  std::shared_ptr<const WarmState> deposit;
  const auto cold = ColdSolve(g, k, options, &deposit);
  ASSERT_TRUE(cold.ok());
  ASSERT_NE(deposit, nullptr);

  // Empty delta: the successor state is identical, the warm solve must
  // short-circuit to the stored result.
  const GraphDelta empty;
  const auto advanced = AdvanceWarmState(*deposit, g, empty);
  const auto warm =
      WarmSolve(g, k, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started) << "seed " << seed;
  EXPECT_FALSE(warm->cold_fallback);
  EXPECT_EQ(warm->selected, cold->selected) << "seed " << seed;
  EXPECT_EQ(warm->total_forests, 0);  // no sampling on the fast path
  EXPECT_EQ(warm->total_walk_steps, 0);
}

TEST(WarmIdentityParityTest, Karate) {
  const Graph g = KarateClub();
  for (uint64_t seed : {1, 2, 5}) ExpectIdentityParity(g, 4, seed);
}

TEST(WarmIdentityParityTest, KarateWeighted) {
  const Graph g = KarateClubWeighted();
  for (uint64_t seed : {1, 2, 5}) ExpectIdentityParity(g, 4, seed);
}

TEST(WarmIdentityParityTest, ContiguousUsa) {
  ExpectIdentityParity(ContiguousUsa(), 5, 3);
}

TEST(WarmIdentityParityTest, BarabasiAlbert400) {
  ExpectIdentityParity(BarabasiAlbert(400, 4, 1), 6, 9);
}

TEST(WarmIdentityParityTest, NoOpReweightIsIdentity) {
  // Reweighting an edge to its current conductance changes nothing;
  // AdvanceWarmState must skip it so the fast path still fires.
  const Graph g = KarateClubWeighted();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  const auto cold = ColdSolve(g, 4, options, &deposit);
  ASSERT_TRUE(cold.ok());

  GraphDelta noop;
  noop.ReweightEdge(0, 1, g.EdgeWeight(0, 1));
  const auto g2 = g.Apply(noop);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, noop);
  EXPECT_TRUE(advanced->touched.empty());
  const auto warm =
      WarmSolve(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  EXPECT_EQ(warm->selected, cold->selected);
  EXPECT_EQ(warm->total_forests, 0);
}

// --------------------------- small-delta quality vs cold seed spread

TEST(WarmQualityTest, SmallReweightWithinColdSeedSpread) {
  const Graph g = KarateClub();
  const int k = 4;
  GraphDelta delta;
  delta.ReweightEdge(0, 1, 1.2);
  const auto g2 = g.Apply(delta);
  ASSERT_TRUE(g2.ok());

  auto tight = [](uint64_t seed) {
    CfcmOptions options = Opts(seed);
    options.eps = 0.1;  // enough samples that noise beats no repair
    return options;
  };

  // Cold re-solves across seeds set the quality floor: the warm repair
  // may land on a different (sampling-noise) group, but its exact CFCC
  // must not fall below the worst cold seed's.
  double cold_floor = 0.0;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    const auto cold = ColdSolve(*g2, k, tight(seed), nullptr);
    ASSERT_TRUE(cold.ok());
    const double cfcc = ExactGroupCfcc(*g2, cold->selected);
    cold_floor = cold_floor == 0.0 ? cfcc : std::min(cold_floor, cfcc);
  }

  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    const CfcmOptions options = tight(seed);
    std::shared_ptr<const WarmState> deposit;
    ASSERT_TRUE(ColdSolve(g, k, options, &deposit).ok());
    const auto advanced = AdvanceWarmState(*deposit, g, delta);
    const auto warm =
        WarmSolve(*g2, k, options, WarmMode::kOn, advanced, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->warm_started) << "seed " << seed;
    const double warm_cfcc = ExactGroupCfcc(*g2, warm->selected);
    EXPECT_GE(warm_cfcc, cold_floor * (1.0 - 1e-9)) << "seed " << seed;
  }
}

// ------------------------------------------ thread-count invariance

TEST(WarmDeterminismTest, ThreadCountInvariant) {
  const Graph g = BarabasiAlbert(400, 4, 1);
  GraphDelta delta;
  delta.ReweightEdge(0, 1, 1.5);
  const auto g2 = g.Apply(delta);
  ASSERT_TRUE(g2.ok());

  std::vector<NodeId> reference;
  for (int threads : {1, 2, 8}) {
    const CfcmOptions options = Opts(9, threads);
    std::shared_ptr<const WarmState> deposit;
    ASSERT_TRUE(ColdSolve(g, 6, options, &deposit).ok());
    const auto advanced = AdvanceWarmState(*deposit, g, delta);
    const auto warm =
        WarmSolve(*g2, 6, options, WarmMode::kOn, advanced, nullptr);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->warm_started) << "threads " << threads;
    if (reference.empty()) {
      reference = warm->selected;
    } else {
      EXPECT_EQ(warm->selected, reference) << "threads " << threads;
    }
  }
}

// ------------------------------------------------ successor deposit

TEST(WarmDepositTest, EvictedIncumbentKeepsItsPhaseAGain) {
  // A heavy reweight at the first pick makes Phase A swap out the final
  // pick (karate, k = 4, seed 1) and Phase B re-contest the first pick.
  // The successor state must fold Phase A's refreshed gains, so the
  // evicted incumbent re-enters the contender pool with a positive key
  // instead of the 0 it carried as a selection member.
  const Graph g = KarateClub();
  const int k = 4;
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  const auto cold = ColdSolve(g, k, options, &deposit);
  ASSERT_TRUE(cold.ok());
  ASSERT_NE(deposit, nullptr);

  const NodeId first = cold->selected.front();
  GraphDelta delta;
  delta.ReweightEdge(first, g.neighbors(first)[0],
                     1.0 + 0.5 * g.weighted_degree(first));
  const auto g2 = g.Apply(delta);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, delta);
  std::shared_ptr<const WarmState> next;
  const auto warm = WarmSolve(*g2, k, options, WarmMode::kOn, advanced, &next);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->warm_started);
  ASSERT_NE(next, nullptr);

  const NodeId evicted = cold->selected.back();
  ASSERT_NE(warm->selected.back(), evicted);  // Phase A swapped
  ASSERT_GE(warm->forests_per_iteration.size(), 2u);  // Phase B ran
  EXPECT_GT(next->gains[static_cast<std::size_t>(evicted)], 0.0);
  EXPECT_GT(next->keys[static_cast<std::size_t>(evicted)], 0.0);
}

// -------------------------------------------- DecideWarm fallback policy

TEST(DecideWarmTest, NullStateAndParameterDrift) {
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  EXPECT_STREQ(DecideWarm(g, nullptr, 4, options).reason, "no_warm_state");

  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());
  EXPECT_TRUE(DecideWarm(g, deposit.get(), 4, options).use_warm);
  EXPECT_STREQ(DecideWarm(g, deposit.get(), 4, options).reason, "ok");

  EXPECT_STREQ(DecideWarm(g, deposit.get(), 5, options).reason, "k_mismatch");
  EXPECT_STREQ(DecideWarm(g, deposit.get(), 1, options).reason,
               "k_too_small");
  EXPECT_STREQ(DecideWarm(g, deposit.get(), 4, Opts(2)).reason,
               "params_changed");
  CfcmOptions other_eps = options;
  other_eps.eps = options.eps * 0.5;
  EXPECT_STREQ(DecideWarm(g, deposit.get(), 4, other_eps).reason,
               "params_changed");
}

TEST(DecideWarmTest, OversizedDeltaFallsBackCold) {
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());

  // Touch well past kWarmMaxDeltaFraction (0.25) of karate's 78 edges.
  static_assert(kWarmMaxDeltaFraction * 78 < 30);
  GraphDelta big;
  const auto edges = g.Edges();
  const std::size_t count = std::min<std::size_t>(30, edges.size());
  for (std::size_t i = 0; i < count; ++i) {
    big.ReweightEdge(edges[i].first, edges[i].second, 2.0);
  }
  const auto g2 = g.Apply(big);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, big);
  EXPECT_STREQ(DecideWarm(*g2, advanced.get(), 4, options).reason,
               "delta_too_large");

  // A kOn solve still succeeds — cold, with the fallback reported.
  const auto solved =
      WarmSolve(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->warm_started);
  EXPECT_TRUE(solved->cold_fallback);
}

TEST(DecideWarmTest, HeavyAdditionRunsWarmAndReplaysNothing) {
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());
  ASSERT_NE(deposit->lease, nullptr);

  // No retained forest can contain a new edge, so the successor carries
  // no arena; the advance claims the predecessor's lease to free it.
  GraphDelta heavy;
  ASSERT_FALSE(g.HasEdge(15, 18));
  heavy.AddEdge(15, 18, 1000.0);
  const auto g2 = g.Apply(heavy);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, heavy);
  EXPECT_EQ(advanced->lease, nullptr);
  EXPECT_TRUE(advanced->clean.empty());
  EXPECT_FALSE(deposit->lease->TryClaim());
  EXPECT_STREQ(DecideWarm(*g2, advanced.get(), 4, options).reason, "ok");

  // The warm solve samples Phase A fresh and deposits that arena with
  // every slot clean.
  std::shared_ptr<const WarmState> next;
  const auto warm =
      WarmSolve(*g2, 4, options, WarmMode::kOn, advanced, &next);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  EXPECT_EQ(warm->forests_reused, 0);
  EXPECT_EQ(warm->forests_resampled, 0);
  ASSERT_NE(next, nullptr);
  ASSERT_NE(next->lease, nullptr);
  ASSERT_EQ(next->clean.size(),
            static_cast<std::size_t>(next->lease->arena.committed()));
  ASSERT_FALSE(next->clean.empty());
  for (char c : next->clean) EXPECT_NE(c, 0);

  // So the next epoch replays again.
  GraphDelta touch;
  touch.ReweightEdge(0, 1, 1.1);
  const auto g3 = g2->Apply(touch);
  ASSERT_TRUE(g3.ok());
  const auto advanced2 = AdvanceWarmState(*next, *g2, touch);
  ASSERT_NE(advanced2->lease, nullptr);
  const auto warm2 =
      WarmSolve(*g3, 4, options, WarmMode::kOn, advanced2, nullptr);
  ASSERT_TRUE(warm2.ok());
  EXPECT_TRUE(warm2->warm_started);
  EXPECT_GT(warm2->forests_reused, 0);
}

TEST(DecideWarmTest, DisconnectingDeltaFallsBackCold) {
  // Path 0-1-2-3-4-5; removing the middle edge splits it.
  const Graph g = BuildWeightedGraph(
      6, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {4, 5, 1.0}});
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 2, options, &deposit).ok());

  GraphDelta cut;
  cut.RemoveEdge(2, 3);
  const auto g2 = g.Apply(cut);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, cut);
  EXPECT_STREQ(DecideWarm(*g2, advanced.get(), 2, options).reason,
               "disconnected");
}

// ---------------------------------------- AdvanceWarmState bookkeeping

TEST(AdvanceWarmStateTest, AccumulatesTouchedEdgesAndFlags) {
  const Graph g = KarateClub();
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, Opts(1), &deposit).ok());
  EXPECT_TRUE(deposit->touched.empty());
  EXPECT_FALSE(deposit->structural);

  GraphDelta reweight;
  reweight.ReweightEdge(0, 1, 3.0);
  const auto s1 = AdvanceWarmState(*deposit, g, reweight);
  ASSERT_EQ(s1->touched.size(), 1u);
  EXPECT_EQ(s1->touched[0].u, 0);
  EXPECT_EQ(s1->touched[0].v, 1);
  EXPECT_DOUBLE_EQ(s1->touched[0].abs_dw, 2.0);
  EXPECT_FALSE(s1->structural);
  EXPECT_EQ(s1->epoch_salt, deposit->epoch_salt + 1);

  const auto g1 = g.Apply(reweight);
  ASSERT_TRUE(g1.ok());
  GraphDelta remove;
  remove.RemoveEdge(2, 3);
  const auto s2 = AdvanceWarmState(*s1, *g1, remove);
  EXPECT_EQ(s2->touched.size(), 2u);
  EXPECT_TRUE(s2->structural);
}

TEST(AdvanceWarmStateTest, RetainedForestsKeepCleanDirtySplit) {
  // The deposit carries the final greedy round's arena. Doubling the
  // weight of (0, 1) keeps every forest that uses it and half of the
  // others (rho = 2 over the bound 2), so both classes appear.
  const Graph g = KarateClub();
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, Opts(1), &deposit).ok());
  ASSERT_NE(deposit->lease, nullptr);
  ASSERT_FALSE(deposit->clean.empty());
  for (char c : deposit->clean) EXPECT_NE(c, 0);  // all clean at capture

  GraphDelta delta;
  delta.ReweightEdge(0, 1, 2.0);
  const auto advanced = AdvanceWarmState(*deposit, g, delta);
  ASSERT_NE(advanced->lease, nullptr);
  ASSERT_EQ(advanced->clean.size(), deposit->clean.size());
  const std::size_t clean_count = static_cast<std::size_t>(
      std::count_if(advanced->clean.begin(), advanced->clean.end(),
                    [](char c) { return c != 0; }));
  EXPECT_GT(clean_count, 0u);
  EXPECT_LT(clean_count, advanced->clean.size());  // (0,1) is a hub edge

  // The predecessor's lease was claimed by the advance; a second
  // claimant must lose.
  EXPECT_FALSE(deposit->lease->TryClaim());
}

TEST(AdvanceWarmStateTest, NodeAdditionCarriesNoArenaButStaysWarm) {
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());

  GraphDelta grow;
  grow.AddNodes(1);
  grow.AddEdge(34, 0, 1.0);
  const auto g2 = g.Apply(grow);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, grow);
  EXPECT_EQ(advanced->lease, nullptr);  // old-id-space arena dropped
  EXPECT_TRUE(advanced->structural);
  const WarmDecision decision =
      DecideWarm(*g2, advanced.get(), 4, options);
  EXPECT_TRUE(decision.use_warm) << decision.reason;

  const auto warm =
      WarmSolve(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
}

TEST(AdvanceWarmStateTest, RemovalOnlyDeltaKeepsPinnedClassification) {
  // A removal has rho = 0: the keep rule rejects exactly the forests
  // that use a removed edge and draws nothing. The classification and
  // the warm solve that replays it were recorded before the keep rule
  // replaced the clean/dirty test.
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());

  GraphDelta cut;
  cut.RemoveEdge(0, 31);
  cut.RemoveEdge(32, 33);
  const auto g2 = g.Apply(cut);
  ASSERT_TRUE(g2.ok());
  const auto advanced = AdvanceWarmState(*deposit, g, cut);
  ASSERT_NE(advanced->lease, nullptr);
  const ForestArena& arena = advanced->lease->arena;
  ASSERT_EQ(advanced->clean.size(),
            static_cast<std::size_t>(arena.committed()));
  uint64_t digest = 1469598103934665603ull;  // FNV-1a over the flags
  int kept = 0;
  for (int f = 0; f < arena.committed(); ++f) {
    const char c = advanced->clean[static_cast<std::size_t>(f)];
    EXPECT_EQ(c != 0, !arena.ContainsUpEdge(f, 0, 31) &&
                          !arena.ContainsUpEdge(f, 32, 33))
        << "forest " << f;
    kept += c != 0 ? 1 : 0;
    digest = (digest ^ static_cast<unsigned char>(c != 0)) * 1099511628211ull;
  }
  EXPECT_EQ(arena.committed(), 128);
  EXPECT_EQ(kept, 76);
  EXPECT_EQ(digest, 0x21efa66481234175ull);

  const auto warm =
      WarmSolve(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->warm_started);
  EXPECT_EQ(warm->selected, (std::vector<NodeId>{0, 25, 16, 33}));
  EXPECT_EQ(warm->forests_reused, 76);
  EXPECT_EQ(warm->forests_resampled, 52);
}

TEST(AdvanceWarmStateTest, RepeatedReweightUsesTheLastWeight) {
  // Apply lets the last reweight of an edge win. Here the last one
  // restores the old weight, so rho = 1 and every forest is kept.
  const Graph g = KarateClub();
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, Opts(1), &deposit).ok());
  GraphDelta there_and_back;
  there_and_back.ReweightEdge(0, 1, 2.0);
  there_and_back.ReweightEdge(0, 1, g.EdgeWeight(0, 1));
  const auto advanced = AdvanceWarmState(*deposit, g, there_and_back);
  ASSERT_NE(advanced->lease, nullptr);
  ASSERT_EQ(advanced->clean.size(), deposit->clean.size());
  for (char c : advanced->clean) EXPECT_NE(c, 0);
}

// ------------------------------- keep rule vs fresh sampling (§16)

/// Forests in `arena`'s committed prefix that use edge {u, v}.
int ForestsUsingEdge(const ForestArena& arena, NodeId u, NodeId v) {
  int count = 0;
  for (int f = 0; f < arena.committed(); ++f) {
    count += arena.ContainsUpEdge(f, u, v) ? 1 : 0;
  }
  return count;
}

/// Of `forests` fresh forests on `g` rooted at `roots`, those using
/// edge {u, v}.
int FreshForestsUsingEdge(const Graph& g, const std::vector<NodeId>& roots,
                          NodeId u, NodeId v, int forests, uint64_t seed) {
  std::vector<char> is_root(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId r : roots) is_root[static_cast<std::size_t>(r)] = 1;
  ForestSampler sampler(g);
  int count = 0;
  for (int f = 0; f < forests; ++f) {
    Rng rng(seed, static_cast<uint64_t>(f));
    const RootedForest& forest = sampler.Sample(is_root, &rng);
    count += forest.parent[static_cast<std::size_t>(u)] == v ||
                     forest.parent[static_cast<std::size_t>(v)] == u
                 ? 1
                 : 0;
  }
  return count;
}

/// Touches karate's edge (32, 33) `touches` times, each a x1.01
/// reweight followed by a warm solve (k = 2, 1024 forests per call), on
/// seeds 1-4. Expects the share of the last deposited arenas' forests
/// that use the edge within 4 sigma of fresh sampling on the final
/// graph. Keep-if-clean replay held about 0.02 after one touch against
/// 0.14 fresh, and squared its share with each further touch.
void ExpectFreshEdgeShare(int touches) {
  const NodeId u = 32;
  const NodeId v = 33;
  const int k = 2;
  const int fresh_forests = 8192;
  int arena_hits = 0;
  int arena_forests = 0;
  int fresh_hits = 0;
  int fresh_total = 0;
  for (uint64_t seed : {1, 2, 3, 4}) {
    CfcmOptions options = Opts(seed);
    options.eps = 0.05;  // saturates max_forests = 1024
    Graph g = KarateClub();
    std::shared_ptr<const WarmState> state;
    ASSERT_TRUE(ColdSolve(g, k, options, &state).ok());
    std::vector<NodeId> roots;
    for (int t = 0; t < touches; ++t) {
      GraphDelta touch;
      touch.ReweightEdge(u, v, g.EdgeWeight(u, v) * 1.01);
      auto next_graph = g.Apply(touch);
      ASSERT_TRUE(next_graph.ok());
      const auto advanced = AdvanceWarmState(*state, g, touch);
      ASSERT_NE(advanced->lease, nullptr) << "seed " << seed;
      g = std::move(*next_graph);
      const auto warm =
          WarmSolve(g, k, options, WarmMode::kOn, advanced, &state);
      ASSERT_TRUE(warm.ok());
      ASSERT_TRUE(warm->warm_started);
      ASSERT_NE(state->lease, nullptr) << "seed " << seed;
      roots.assign(warm->selected.begin(), warm->selected.end() - 1);
    }
    const ForestArena& arena = state->lease->arena;
    ASSERT_EQ(arena.roots(), roots);
    arena_hits += ForestsUsingEdge(arena, u, v);
    arena_forests += arena.committed();
    fresh_hits +=
        FreshForestsUsingEdge(g, roots, u, v, fresh_forests, 1000 + seed);
    fresh_total += fresh_forests;
  }
  ASSERT_GE(arena_forests, 4 * 1024);
  const double fresh = static_cast<double>(fresh_hits) / fresh_total;
  const double share = static_cast<double>(arena_hits) / arena_forests;
  const double sigma = std::sqrt(fresh * (1.0 - fresh) *
                                 (1.0 / arena_forests + 1.0 / fresh_total));
  EXPECT_GT(fresh, 0.1);
  EXPECT_NEAR(share, fresh, 4.0 * sigma)
      << touches << " touches: arena " << share << ", fresh " << fresh;
}

TEST(WarmReplayBiasTest, ReweightedEdgeShareMatchesFreshSampling) {
  ExpectFreshEdgeShare(1);
}

TEST(WarmReplayBiasTest, RepeatedTouchesKeepTheFreshShare) {
  ExpectFreshEdgeShare(4);
}

// ------------------------------------------------ warm-mode plumbing

TEST(WarmModeTest, NamesRoundTrip) {
  EXPECT_STREQ(WarmModeName(WarmMode::kOff), "off");
  EXPECT_STREQ(WarmModeName(WarmMode::kAuto), "auto");
  EXPECT_STREQ(WarmModeName(WarmMode::kOn), "on");
  EXPECT_EQ(ParseWarmMode("auto"), WarmMode::kAuto);
  EXPECT_EQ(ParseWarmMode("on"), WarmMode::kOn);
  EXPECT_EQ(ParseWarmMode("off"), WarmMode::kOff);
  EXPECT_EQ(ParseWarmMode("bogus"), std::nullopt);
}

TEST(WarmModeTest, AutoWithoutStateIsColdNotFallback) {
  const Graph g = KarateClub();
  const auto solved =
      WarmSolve(g, 4, Opts(1), WarmMode::kAuto, nullptr, nullptr);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved->warm_started);
  EXPECT_FALSE(solved->cold_fallback);  // nothing existed to fall back from
}

TEST(WarmModeTest, WarmSolveDepositsSuccessorState) {
  // The warm path itself must leave a state behind so chains of deltas
  // keep warm-starting epoch after epoch.
  const Graph g = KarateClub();
  const CfcmOptions options = Opts(1);
  std::shared_ptr<const WarmState> deposit;
  ASSERT_TRUE(ColdSolve(g, 4, options, &deposit).ok());

  GraphDelta d1;
  d1.ReweightEdge(0, 1, 1.1);
  const auto g1 = g.Apply(d1);
  ASSERT_TRUE(g1.ok());
  auto advanced = AdvanceWarmState(*deposit, g, d1);
  std::shared_ptr<const WarmState> redeposit;
  const auto warm1 =
      WarmSolve(*g1, 4, options, WarmMode::kOn, advanced, &redeposit);
  ASSERT_TRUE(warm1.ok());
  EXPECT_TRUE(warm1->warm_started);
  ASSERT_NE(redeposit, nullptr);

  GraphDelta d2;
  d2.ReweightEdge(0, 1, 1.2);
  const auto g2 = g1->Apply(d2);
  ASSERT_TRUE(g2.ok());
  advanced = AdvanceWarmState(*redeposit, *g1, d2);
  const auto warm2 =
      WarmSolve(*g2, 4, options, WarmMode::kOn, advanced, nullptr);
  ASSERT_TRUE(warm2.ok());
  EXPECT_TRUE(warm2->warm_started);
}

}  // namespace
}  // namespace cfcm
