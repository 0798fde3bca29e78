#include "linalg/hutchinson.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "linalg/laplacian.h"

namespace cfcm {
namespace {

TEST(HutchinsonTest, ConvergesToExactTrace) {
  const Graph g = KarateClub();
  const std::vector<NodeId> removed = {0, 33};
  const double exact = ExactTraceInverseSubmatrix(g, removed);
  const TraceEstimate est = HutchinsonTraceInverse(g, removed, 400, 7);
  EXPECT_NEAR(est.trace, exact, 0.05 * exact);
}

TEST(HutchinsonTest, StdErrorShrinksWithProbes) {
  const Graph g = ContiguousUsa();
  const std::vector<NodeId> removed = {10};
  const TraceEstimate few = HutchinsonTraceInverse(g, removed, 16, 3);
  const TraceEstimate many = HutchinsonTraceInverse(g, removed, 256, 3);
  EXPECT_LT(many.std_error, few.std_error);
}

TEST(HutchinsonTest, DeterministicInSeed) {
  const Graph g = KarateClub();
  const TraceEstimate a = HutchinsonTraceInverse(g, {5}, 32, 11);
  const TraceEstimate b = HutchinsonTraceInverse(g, {5}, 32, 11);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(HutchinsonTest, SingleProbeHasNoStdError) {
  const Graph g = CycleGraph(10);
  const TraceEstimate est = HutchinsonTraceInverse(g, {0}, 1, 2);
  EXPECT_EQ(est.probes, 1);
  EXPECT_EQ(est.std_error, 0.0);
}

TEST(HutchinsonTest, LargerGroundSetShrinksTrace) {
  // Monotonicity: Tr(L_{-S'}^{-1}) < Tr(L_{-S}^{-1}) for S ⊂ S'.
  const Graph g = BarabasiAlbert(300, 2, 9);
  const TraceEstimate small_s = HutchinsonTraceInverse(g, {0}, 64, 5);
  const TraceEstimate big_s = HutchinsonTraceInverse(g, {0, 1, 2, 3}, 64, 5);
  EXPECT_LT(big_s.trace, small_s.trace);
}

// Bits of a double, so EXPECT_EQ checks bitwise equality.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

struct PinnedTrace {
  const char* name;
  Graph graph;
  std::vector<NodeId> removed;
  SolverBackend backend;
  uint64_t trace_bits;
  uint64_t std_error_bits;
};

TEST(HutchinsonTest, ProbesOnAnyPoolSumToTheSerialBits) {
  // Both graphs keep more nodes than the dense ceiling. Each probe's
  // sample is stored in its own slot and the slots are summed in probe
  // order, so the result is the same with no pool and with 1, 2 or 8
  // workers — and equal to the bits the serial loop produced before the
  // probes ran on a pool (64 probes, seed 5).
  const PinnedTrace cases[] = {
      {"grid30_cg", GridGraph(30, 30), {0, 31, 450, 899}, SolverBackend::kCg,
       0x4090fa04183a1431ull, 0x4050d3cfca4a1eb6ull},
      {"grid30_ldlt", GridGraph(30, 30), {0, 31, 450, 899},
       SolverBackend::kSparseLdlt, 0x4090fa04183a1445ull,
       0x4050d3cfca4a1ed5ull},
      {"ba1000_cg", BarabasiAlbert(1000, 4, 1), {0, 1, 2, 17},
       SolverBackend::kCg, 0x4069973d1db22fa9ull, 0x3febe0cf794f98beull},
      {"ba1000_ldlt", BarabasiAlbert(1000, 4, 1), {0, 1, 2, 17},
       SolverBackend::kSparseLdlt, 0x4069973d1db22fabull,
       0x3febe0cf794f91c0ull},
  };
  for (const PinnedTrace& c : cases) {
    ASSERT_GT(c.graph.num_nodes() - static_cast<NodeId>(c.removed.size()),
              kDenseBackendMaxN);
    const TraceEstimate serial =
        HutchinsonTraceInverse(c.graph, c.removed, 64, 5, c.backend);
    EXPECT_EQ(serial.probes, 64) << c.name;
    EXPECT_EQ(Bits(serial.trace), c.trace_bits) << c.name;
    EXPECT_EQ(Bits(serial.std_error), c.std_error_bits) << c.name;
    for (std::size_t workers : {1u, 2u, 8u}) {
      ThreadPool pool(workers);
      const TraceEstimate pooled = HutchinsonTraceInverse(
          c.graph, c.removed, 64, 5, c.backend, CgOptions{}, &pool);
      EXPECT_EQ(Bits(pooled.trace), Bits(serial.trace))
          << c.name << " workers=" << workers;
      EXPECT_EQ(Bits(pooled.std_error), Bits(serial.std_error))
          << c.name << " workers=" << workers;
    }
  }
}

TEST(HutchinsonTest, CgOverloadMatchesTheCgBackend) {
  // The backend-free call is the serial CG backend.
  const Graph g = ContiguousUsa();
  const TraceEstimate plain = HutchinsonTraceInverse(g, {3, 20}, 32, 9);
  for (SolverBackend backend : {SolverBackend::kCg, SolverBackend::kAuto}) {
    const TraceEstimate routed =
        HutchinsonTraceInverse(g, {3, 20}, 32, 9, backend);
    EXPECT_EQ(Bits(routed.trace), Bits(plain.trace));
    EXPECT_EQ(Bits(routed.std_error), Bits(plain.std_error));
  }
}

TEST(HutchinsonTest, ConcurrentCallersShareOnePool) {
  // Several estimates at once on one pool, each nesting its probe loop
  // inside an outer ParallelFor (the engine scores solve jobs that way):
  // every one equals its serial value.
  const Graph g = BarabasiAlbert(400, 3, 2);
  ThreadPool pool(3);
  std::vector<TraceEstimate> got(6);
  pool.ParallelFor(got.size(), [&](std::size_t i) {
    const SolverBackend backend =
        i % 2 == 0 ? SolverBackend::kCg : SolverBackend::kSparseLdlt;
    got[i] = HutchinsonTraceInverse(g, {static_cast<NodeId>(i)}, 16, i,
                                    backend, CgOptions{}, &pool);
  });
  for (std::size_t i = 0; i < got.size(); ++i) {
    const SolverBackend backend =
        i % 2 == 0 ? SolverBackend::kCg : SolverBackend::kSparseLdlt;
    const TraceEstimate serial =
        HutchinsonTraceInverse(g, {static_cast<NodeId>(i)}, 16, i, backend);
    EXPECT_EQ(Bits(got[i].trace), Bits(serial.trace)) << i;
    EXPECT_EQ(Bits(got[i].std_error), Bits(serial.std_error)) << i;
  }
}

}  // namespace
}  // namespace cfcm
