// dynamic_ba2k: one caller drives ServeHandler::HandleLine in process on
// ba:2000,4. Each round is one mutate from a seeded sequence, then one
// "warm":"auto" forest solve with k=5. Most mutations reweight one edge,
// some add a node, and every kChurnPeriod-th round churns ~1% of the
// edges, a delta the warm path refuses (cold fallback).
#include <cstdio>
#include <memory>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "engine/session.h"
#include "graph/spec.h"

namespace perfbench {
namespace {

constexpr int kK = 5;
constexpr double kEps = 0.2;
constexpr int kPoolWorkers = 2;
constexpr int kSetups = 3;
constexpr int kMinRounds = 100;
constexpr int kChurnPeriod = 32;
constexpr double kNodeAddShare = 0.08;
constexpr std::size_t kMaxReplaySteps = 200;

std::string GraphSpec(uint64_t seed) {
  return "ba:2000,4," + std::to_string(seed);
}

/// The seeded mutation sequence. Reweights pick edges of the loaded
/// graph (never removed), node adds attach the new node to a random
/// existing one, and churn removes and re-adds a fixed set of ~1% new
/// edges at a fresh conductance.
class DeltaSource {
 public:
  DeltaSource(const cfcm::Graph& graph, uint64_t seed)
      : edges_(graph.Edges()), n_(graph.num_nodes()), rng_(seed, 0xd1ULL) {
    const std::size_t churn = std::max<std::size_t>(1, edges_.size() / 100);
    std::set<std::pair<NodeId, NodeId>> chosen;
    while (chosen.size() < churn) {
      NodeId u = static_cast<NodeId>(rng_.NextBounded(n_));
      NodeId v = static_cast<NodeId>(rng_.NextBounded(n_));
      if (u == v || graph.HasEdge(u, v)) continue;
      chosen.emplace(std::min(u, v), std::max(u, v));
    }
    churn_.assign(chosen.begin(), chosen.end());
  }

  NodeId num_nodes() const { return n_; }

  DeltaStep Next(int64_t round) {
    DeltaStep step;
    JsonValue::Object line{{"op", "mutate"}, {"graph", "g"}};
    if (round % kChurnPeriod == kChurnPeriod - 1) {
      step.kind = "churn";
      const double weight = 0.05 + 0.0001 * static_cast<double>(round);
      JsonValue::Array remove, add;
      for (const auto& [u, v] : churn_) {
        if (churn_present_) {
          step.delta.RemoveEdge(u, v);
          remove.push_back(JsonValue::Array{u, v});
        }
        step.delta.AddEdge(u, v, weight);
        add.push_back(JsonValue::Array{u, v, weight});
      }
      churn_present_ = true;
      if (!remove.empty()) line["remove"] = std::move(remove);
      line["add"] = std::move(add);
    } else if (rng_.NextDouble() < kNodeAddShare) {
      step.kind = "node_add";
      const NodeId u = n_++;
      const NodeId v = static_cast<NodeId>(rng_.NextBounded(u));
      step.delta.AddNodes(1);
      step.delta.AddEdge(u, v, 1.0);
      line["add_nodes"] = 1;
      line["add"] = JsonValue::Array{JsonValue::Array{u, v, 1.0}};
    } else {
      step.kind = "reweight";
      const auto& e =
          edges_[rng_.NextBounded(static_cast<uint32_t>(edges_.size()))];
      const double weight = 0.5 + rng_.NextDouble();
      step.delta.ReweightEdge(e.first, e.second, weight);
      line["reweight"] = JsonValue::Array{JsonValue::Array{e.first, e.second, weight}};
    }
    step.line = JsonValue(std::move(line)).Serialize();
    return step;
  }

 private:
  std::vector<std::pair<NodeId, NodeId>> edges_;
  NodeId n_;
  cfcm::Rng rng_;
  std::vector<std::pair<NodeId, NodeId>> churn_;
  bool churn_present_ = false;
};

std::string SolveLine(uint64_t seed, bool warm) {
  JsonValue::Object line{{"op", "solve"}, {"graph", "g"},
                         {"algorithm", "forest"}, {"k", kK},
                         {"eps", kEps},          {"seed", seed}};
  if (warm) line["warm"] = "auto";
  return JsonValue(std::move(line)).Serialize();
}

struct Setup {
  std::unique_ptr<cfcm::serve::ServeHandler> handler;
  std::shared_ptr<cfcm::engine::GraphSession> session;
  JsonValue first_solve;
};

// Handler, graph load with its derived state, and the first (cold)
// solve that deposits the warm state every later round starts from.
cfcm::StatusOr<Setup> BuildSetup(uint64_t seed) {
  Setup setup;
  cfcm::serve::HandlerOptions options;
  options.catalog.num_threads = kPoolWorkers;
  setup.handler = std::make_unique<cfcm::serve::ServeHandler>(options);
  const JsonValue loaded = setup.handler->HandleLine(
      JsonValue(JsonValue::Object{
                    {"op", "load"}, {"graph", "g"}, {"source", GraphSpec(seed)}})
          .Serialize());
  auto session = setup.handler->catalog().Acquire("g");
  if (!ResponseOk(loaded) || !session.ok()) {
    return cfcm::Status::FailedPrecondition("could not load " + GraphSpec(seed));
  }
  setup.session = *session;
  (void)setup.session->laplacian();
  (void)setup.session->pool();
  setup.first_solve = setup.handler->HandleLine(SolveLine(seed, true));
  if (!ResponseOk(setup.first_solve)) {
    return cfcm::Status::FailedPrecondition("first solve failed");
  }
  return setup;
}

struct LegStats {
  std::vector<double> round, mutate, solve, solve_cpu, requests, cfcc;
  int64_t warm = 0, cold_fallbacks = 0, swaps = 0;
  int64_t forests = 0, reused = 0;
  double wall_seconds = 0.0, cpu_seconds = 0.0;
  JsonValue last_solve;
};

LegStats RunLeg(const RunConfig& config, Setup& setup, DeltaSource& source,
                int64_t* round, std::vector<DeltaStep>* applied,
                Tally* tally) {
  LegStats leg;
  const std::string solve_line = SolveLine(config.seed, true);
  const double start = NowSeconds();
  const double cpu_start = CpuSeconds();
  for (int64_t r = 0; r < kMinRounds || NowSeconds() - start < config.seconds;
       ++r, ++*round) {
    DeltaStep step = source.Next(*round);
    const NodeId n = source.num_nodes();
    ScopedSpan round_span("round", *round);
    double mutate_s = 0.0, solve_s = 0.0;
    JsonValue mutated, solved;
    {
      ScopedSpan span("serve.mutate", *round);
      mutated = HandleTimed(*setup.handler, step.line, &mutate_s);
    }
    const JsonValue* nodes = mutated.Find("nodes");
    tally->Op(ResponseOk(mutated) && nodes != nullptr && nodes->is_int() &&
                  nodes->as_int() == n,
              step.kind + " mutate failed");
    const double cpu0 = CpuSeconds();
    {
      ScopedSpan span("serve.solve", *round);
      solved = HandleTimed(*setup.handler, solve_line, &solve_s);
    }
    leg.solve_cpu.push_back(CpuSeconds() - cpu0);
    std::vector<NodeId> group;
    const JsonValue* cfcc = solved.Find("cfcc");
    const bool ok = ResponseOk(solved) && SelectionOf(solved, &group) &&
                    ValidGroup(group, kK, n) && cfcc != nullptr &&
                    cfcc->is_number() && FinitePositive(cfcc->as_double());
    tally->Op(ok, "warm solve after " + step.kind + " returned an invalid group");
    if (ok) {
      leg.cfcc.push_back(cfcc->as_double());
      auto flag = [&](const char* key) {
        const JsonValue* v = solved.Find(key);
        return v != nullptr && v->is_bool() && v->as_bool();
      };
      auto count = [&](const char* key) -> int64_t {
        const JsonValue* v = solved.Find(key);
        return v != nullptr && v->is_number() ? v->as_int() : 0;
      };
      leg.warm += flag("warm_started") ? 1 : 0;
      leg.cold_fallbacks += flag("cold_fallback") ? 1 : 0;
      leg.swaps += count("swap_moves");
      leg.forests += count("forests");
      leg.reused += count("forests_reused");
    }
    leg.mutate.push_back(mutate_s);
    leg.solve.push_back(solve_s);
    leg.round.push_back(mutate_s + solve_s);
    leg.requests.push_back(mutate_s);
    leg.requests.push_back(solve_s);
    leg.last_solve = std::move(solved);
    applied->push_back(std::move(step));
  }
  leg.wall_seconds = NowSeconds() - start;
  leg.cpu_seconds = CpuSeconds() - cpu_start;
  return leg;
}

}  // namespace

int RunDynamic(const RunConfig& config, Result* result) {
  Spans::Get().set_enabled(false);
  std::vector<double> setup_seconds;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSeconds();
    cfcm::StatusOr<Setup> built = BuildSetup(config.seed);
    setup_seconds.push_back(NowSeconds() - t0);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(*built);
  }
  result->Add("setup_s", Median(setup_seconds), "s", kSetups);
  result->env["pool_workers"] = kPoolWorkers;
  result->env["executors"] = kPoolWorkers + 1;
  result->env["graph"] = GraphSpec(config.seed);
  result->env["k"] = kK;
  result->env["churn_period"] = kChurnPeriod;
  result->env["node_add_share"] = kNodeAddShare;

  const cfcm::Graph base = setup.session->graph();
  DeltaSource source(base, config.seed);
  int64_t round = 0;
  std::vector<DeltaStep> applied;
  const LegStats leg =
      RunLeg(config, setup, source, &round, &applied, &result->tally);
  result->env["rounds"] = static_cast<int64_t>(leg.round.size());
  const auto count = static_cast<int64_t>(leg.round.size());
  result->Add("solve_s", Median(leg.solve), "s", count);
  result->Add("solve_cpu_s", Median(leg.solve_cpu), "s", count);
  result->Add("cfcc", Mean(leg.cfcc), "cfcc", static_cast<int64_t>(leg.cfcc.size()));
  const std::vector<double> requests_ms = Scaled(leg.requests, 1e3);
  // Mutates and solves are half the requests each and differ ~50x in
  // cost, so the median is taken per kind and averaged.
  result->Add("req_p50_ms",
              0.5 * (Median(Scaled(leg.mutate, 1e3)) + Median(Scaled(leg.solve, 1e3))),
              "ms", static_cast<int64_t>(requests_ms.size()));
  result->Add("req_p99_ms", Percentile(requests_ms, 0.99), "ms",
              static_cast<int64_t>(requests_ms.size()));
  const std::vector<double> round_ms = Scaled(leg.round, 1e3);
  const double round_p50 = Median(round_ms);
  result->Add("round_p50_ms", round_p50, "ms", count);
  result->Add("round_p90_ms", Percentile(round_ms, 0.90), "ms", count);
  result->Add("mutate_p50_ms", Median(Scaled(leg.mutate, 1e3)), "ms", count);

  // A repeated solve with no mutation in between answers the same group.
  const JsonValue again =
      setup.handler->HandleLine(SolveLine(config.seed, true));
  std::vector<NodeId> a, b;
  const JsonValue* ca = leg.last_solve.Find("cfcc");
  const JsonValue* cb = again.Find("cfcc");
  result->tally.Op(ResponseOk(again) && SelectionOf(leg.last_solve, &a) &&
                       SelectionOf(again, &b) && ca != nullptr && cb != nullptr &&
                       SameAnswer(a, ca->as_double(), b, cb->as_double()),
                   "repeated warm solve changed its answer");

  // Cache hits of a plain (cacheable) solve on the mutated graph.
  const std::string plain = SolveLine(config.seed, false);
  const JsonValue miss = setup.handler->HandleLine(plain);
  result->tally.Op(ResponseOk(miss), "plain solve failed");
  const std::vector<double> hits = HitProbe(
      *setup.handler, plain, CanonicalAnswer(miss), kHitProbeRepeats,
      &result->tally);
  result->Add("hit_p50_us", Median(hits) * 1e6, "us",
              static_cast<int64_t>(hits.size()));

  if (!config.trace) return 0;
  Spans::Get().set_enabled(true);
  const LegStats traced =
      RunLeg(config, setup, source, &round, &applied, &result->tally);
  result->Add("bench.trace_overhead_pct",
              (Median(Scaled(traced.round, 1e3)) / round_p50 - 1) * 100, "pct",
              static_cast<int64_t>(traced.round.size()));
  result->Add("runtime.cpu_per_wall", traced.cpu_seconds / traced.wall_seconds,
              "ratio");
  result->Add("runtime.executors", kPoolWorkers + 1, "count");
  result->Add("serve.handle_mutate_ms",
              Median(Scaled(Spans::Get().DurationsNs("serve.mutate"), 1e-6)),
              "ms", static_cast<int64_t>(traced.mutate.size()));
  result->Add("serve.handle_hit_us", Median(hits) * 1e6, "us",
              static_cast<int64_t>(hits.size()));
  for (int i = 0; i < kSetups; ++i) {
    ScopedSpan span("graph.build", i);
    (void)cfcm::LoadGraphFromSpec(GraphSpec(config.seed));
  }
  result->Add("graph.build_ms",
              Median(Scaled(Spans::Get().DurationsNs("graph.build"), 1e-6)),
              "ms", kSetups);
  SolverLayers(setup.session->graph(), kK, kEps, config.seed, kPoolWorkers,
               result);
  // Warm-path counters of the traced rounds (after the cold replay above,
  // so cfcm.reuse_share here is the warm solves' share).
  const double solves = static_cast<double>(traced.round.size());
  result->Add("cfcm.warm_share", traced.warm / solves, "share",
              static_cast<int64_t>(solves));
  result->Add("cfcm.cold_fallbacks", traced.cold_fallbacks, "count",
              static_cast<int64_t>(solves));
  result->Add("cfcm.reuse_share",
              traced.forests > 0 ? static_cast<double>(traced.reused) /
                                       static_cast<double>(traced.forests)
                                 : 0.0,
              "share", traced.forests);
  result->Add("cfcm.swap_moves", traced.swaps, "count",
              static_cast<int64_t>(solves));
  if (applied.size() > kMaxReplaySteps) applied.resize(kMaxReplaySteps);
  MutationLayers(base, applied, result);
  return 0;
}

}  // namespace perfbench
