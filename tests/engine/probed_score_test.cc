// Probed scores are bitwise the same at every session pool size.
//
// Above EngineOptions::exact_eval_max_n the engine scores a group with
// Hutchinson probes on the session pool. The samples are summed in probe
// order, so the reported C(S) must not depend on the pool: the pins below
// hold for 1-, 2- and 8-worker sessions and equal the bits the serial
// probe loop produced.
#include <bit>
#include <cstdint>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "graph/generators.h"
#include "obs/trace.h"

namespace cfcm::engine {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// ba:600,3,2 — k = 4 leaves 596 nodes, above the 512 exact ceiling.
Engine MakeEngine(int workers) {
  EngineOptions options;
  options.num_threads = workers;
  return Engine(BarabasiAlbert(600, 3, 2), options);
}

class ProbedScoreTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Workers, ProbedScoreTest,
                         ::testing::Values(1, 2, 8));

TEST_P(ProbedScoreTest, SolveScoreBitsArePinned) {
  const Engine engine = MakeEngine(GetParam());
  ASSERT_GT(600 - 4, EngineOptions{}.exact_eval_max_n);
  auto run = engine.Run(
      SolveJob{.algorithm = "forest", .k = 4, .eps = 0.3, .seed = 3});
  ASSERT_TRUE(run.ok()) << run.status().message();
  const auto& solve = std::get<SolveJobResult>(*run);
  EXPECT_EQ(solve.output.selected, (std::vector<NodeId>{38, 53, 9, 48}));
  EXPECT_EQ(Bits(solve.cfcc), 0x400b0438220aa54cull);
}

TEST_P(ProbedScoreTest, EvaluateBitsArePinned) {
  const Engine engine = MakeEngine(GetParam());
  const struct {
    SolverBackend backend;
    uint64_t cfcc, trace, std_error;
  } pins[] = {
      {SolverBackend::kAuto, 0x400b5f8b00b51a29ull, 0x4065eb5328d26988ull,
       0x3fe6e0e419c4016full},
      {SolverBackend::kSparseLdlt, 0x400b5f8b00b51a28ull,
       0x4065eb5328d26989ull, 0x3fe6e0e419c3f8c5ull},
  };
  for (const auto& pin : pins) {
    auto run = engine.Run(EvaluateJob{.group = {0, 1, 2}, .probes = 32,
                                      .seed = 4,
                                      .solver_backend = pin.backend});
    ASSERT_TRUE(run.ok()) << run.status().message();
    const auto& eval = std::get<EvaluateJobResult>(*run);
    const std::string name = SolverBackendName(pin.backend);
    EXPECT_EQ(Bits(eval.cfcc), pin.cfcc) << name;
    EXPECT_EQ(Bits(eval.trace), pin.trace) << name;
    EXPECT_EQ(Bits(eval.trace_std_error), pin.std_error) << name;
  }
}

// Annotations of the first span called `name`.
std::vector<std::pair<std::string, int64_t>> SpanAnnotations(
    const obs::TraceContext& trace, const std::string& name) {
  for (const auto& span : trace.spans()) {
    if (span.name == name) return span.annotations;
  }
  ADD_FAILURE() << "no span " << name;
  return {};
}

TEST(ProbedScoreSpanTest, ScoreSpanNamesProbesAndExecutors) {
  // Probed: 64 probes over the session pool's executors (2 workers plus
  // the caller).
  const Engine probed = MakeEngine(2);
  obs::TraceContext trace;
  ASSERT_TRUE(probed
                  .Run(SolveJob{.algorithm = "degree", .k = 4},
                       probed.session().snapshot(), &trace)
                  .ok());
  const std::vector<std::pair<std::string, int64_t>> want_probed = {
      {"score_probes", 64}, {"score_executors", 3}};
  EXPECT_EQ(SpanAnnotations(trace, "score"), want_probed);

  // A one-worker pool runs the probes inline on the caller.
  const Engine inline_pool = MakeEngine(1);
  obs::TraceContext inline_trace;
  ASSERT_TRUE(inline_pool
                  .Run(SolveJob{.algorithm = "degree", .k = 4},
                       inline_pool.session().snapshot(), &inline_trace)
                  .ok());
  const std::vector<std::pair<std::string, int64_t>> want_inline = {
      {"score_probes", 64}, {"score_executors", 1}};
  EXPECT_EQ(SpanAnnotations(inline_trace, "score"), want_inline);

  // Exact scoring below the ceiling: no probes, one thread.
  Engine exact{BarabasiAlbert(100, 3, 2), EngineOptions{.num_threads = 2}};
  obs::TraceContext exact_trace;
  ASSERT_TRUE(exact
                  .Run(SolveJob{.algorithm = "degree", .k = 4},
                       exact.session().snapshot(), &exact_trace)
                  .ok());
  const std::vector<std::pair<std::string, int64_t>> want_exact = {
      {"score_probes", 0}, {"score_executors", 1}};
  EXPECT_EQ(SpanAnnotations(exact_trace, "score"), want_exact);
}

}  // namespace
}  // namespace cfcm::engine
