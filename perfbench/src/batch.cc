// batch_ba10k / batch_grid10k: offline solves through engine::Engine::Run
// on one cached GraphSession whose pool has 2 workers (3 executors with
// the calling thread).
#include <cstdio>
#include <map>
#include <memory>

#include "bench.h"
#include "engine/session.h"
#include "graph/spec.h"

namespace perfbench {
namespace {

constexpr int kK = 8;
constexpr double kEps = 0.2;
constexpr int kPoolWorkers = 2;
constexpr int kSetups = 21;

/// One job of a round: an algorithm and its solve seed. A round runs
/// every job once; later rounds repeat them, so each repeat is checked
/// against the first answer.
struct JobClass {
  std::string algorithm;
  uint64_t seed = 1;
  std::string name() const { return algorithm + "#" + std::to_string(seed); }
};

struct BatchSpec {
  std::string graph_spec;
  std::vector<JobClass> jobs;
};

// The grid is the same graph for every seed and its C(S) varies with the
// solve seed by a few percent, so its rounds average two solve seeds.
BatchSpec SpecFor(const RunConfig& config) {
  const uint64_t seed = config.seed;
  if (config.workload == "batch_ba10k") {
    return {"ba:10000,4," + std::to_string(seed),
            {{"forest", seed}, {"schur", seed}}};
  }
  return {"grid:100x100", {{"forest", 2 * seed}, {"forest", 2 * seed + 1}}};
}

struct Setup {
  std::shared_ptr<cfcm::engine::GraphSession> session;
  std::unique_ptr<cfcm::engine::Engine> engine;
};

// Graph build, session, derived snapshot state and the pool: everything
// the first timed solve would otherwise pay for lazily.
cfcm::StatusOr<Setup> BuildSetup(const std::string& spec) {
  cfcm::StatusOr<cfcm::Graph> graph = cfcm::Graph{};
  {
    ScopedSpan span("graph.build");
    graph = cfcm::LoadGraphFromSpec(spec);
  }
  if (!graph.ok()) return graph.status();
  Setup setup;
  setup.session = std::make_shared<cfcm::engine::GraphSession>(
      std::move(*graph), kPoolWorkers);
  const auto snapshot = setup.session->snapshot();
  if (!snapshot->is_connected()) {
    return cfcm::Status::InvalidArgument("workload graph is disconnected");
  }
  (void)snapshot->laplacian();
  (void)snapshot->degree_order();
  (void)snapshot->fingerprint();
  (void)setup.session->pool();
  cfcm::engine::EngineOptions options;
  options.num_threads = kPoolWorkers;
  setup.engine =
      std::make_unique<cfcm::engine::Engine>(setup.session, options);
  return setup;
}

struct LegStats {
  std::map<std::string, std::vector<double>> wall;  // per job class
  std::map<std::string, std::vector<double>> cpu;
  std::map<std::string, cfcm::engine::SolveJobResult> first;
  std::vector<double> all_wall;
  std::vector<double> rounds;
  double cpu_seconds = 0.0;
  double wall_seconds = 0.0;

  double PerClassMedian(
      const std::map<std::string, std::vector<double>>& samples) const {
    std::vector<double> medians;
    for (const auto& [name, values] : samples) medians.push_back(Median(values));
    return Mean(medians);
  }
};

LegStats RunLeg(const RunConfig& config, const BatchSpec& spec,
                cfcm::engine::Engine& engine, Tally* tally) {
  LegStats leg;
  const NodeId n = engine.session().num_nodes();
  const double start = NowSeconds();
  const double cpu_start = CpuSeconds();
  int64_t job_index = 0;
  while (leg.rounds.empty() || NowSeconds() - start < config.seconds) {
    double round_seconds = 0.0;
    for (const JobClass& job_class : spec.jobs) {
      const std::string name = job_class.name();
      cfcm::engine::SolveJob job;
      job.algorithm = job_class.algorithm;
      job.k = kK;
      job.eps = kEps;
      job.seed = job_class.seed;
      const double cpu0 = CpuSeconds();
      const double t0 = NowSeconds();
      cfcm::StatusOr<cfcm::engine::JobResult> run = cfcm::Status::FailedPrecondition("");
      {
        ScopedSpan span("engine.job", job_index++);
        run = engine.Run(job);
      }
      const double wall = NowSeconds() - t0;
      const double cpu = CpuSeconds() - cpu0;
      round_seconds += wall;
      leg.all_wall.push_back(wall);
      leg.wall[name].push_back(wall);
      leg.cpu[name].push_back(cpu);
      if (!run.ok()) {
        tally->Op(false, name + " job failed: " + run.status().ToString());
        continue;
      }
      const auto& solve = std::get<cfcm::engine::SolveJobResult>(*run);
      bool ok = ValidGroup(solve.output.selected, kK, n) &&
                FinitePositive(solve.cfcc);
      auto [it, fresh] = leg.first.emplace(name, solve);
      if (!fresh) {
        ok = ok && SameAnswer(it->second.output.selected, it->second.cfcc,
                              solve.output.selected, solve.cfcc);
      }
      tally->Op(ok, name + " job returned an invalid or changed group");
    }
    leg.rounds.push_back(round_seconds);
  }
  leg.wall_seconds = NowSeconds() - start;
  leg.cpu_seconds = CpuSeconds() - cpu_start;
  return leg;
}

std::string SolveLine(const std::string& algorithm, uint64_t seed) {
  return JsonValue(JsonValue::Object{{"op", "solve"},
                                     {"graph", "g"},
                                     {"algorithm", algorithm},
                                     {"k", kK},
                                     {"eps", kEps},
                                     {"seed", seed}})
      .Serialize();
}

}  // namespace

int RunBatch(const RunConfig& config, Result* result) {
  const BatchSpec spec = SpecFor(config);
  Spans::Get().set_enabled(config.trace);

  std::vector<double> setup_seconds;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSeconds();
    cfcm::StatusOr<Setup> built = BuildSetup(spec.graph_spec);
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
  result->env["graph"] = spec.graph_spec;
  result->env["k"] = kK;
  result->env["eps"] = kEps;

  // Serving-path probes on this workload's graph, run before the timed
  // loop while the heap is as set-up left it: 5000 cache hits of an
  // answer placed with ResultCache::Insert, and 1-edge reweights, each
  // through HandleLine. Run after the solves, the same probes varied
  // 1.7x from run to run with the allocator state.
  cfcm::serve::HandlerOptions handler_options;
  handler_options.catalog.num_threads = 1;
  cfcm::serve::ServeHandler handler(handler_options);
  const JsonValue loaded = handler.HandleLine(
      JsonValue(JsonValue::Object{
                    {"op", "load"}, {"graph", "g"}, {"source", spec.graph_spec}})
          .Serialize());
  auto handler_session = handler.catalog().Acquire("g");
  if (!ResponseOk(loaded) || !handler_session.ok()) {
    std::fprintf(stderr, "perfbench: probe handler could not load the graph\n");
    return 1;
  }
  const cfcm::Graph& graph = setup.session->graph();
  const JobClass& probe = spec.jobs[0];
  cfcm::engine::SolveJobResult cached;
  cached.algorithm = probe.algorithm;
  cached.output.selected.assign(setup.session->degree_order().begin(),
                                setup.session->degree_order().begin() + kK);
  cached.cfcc = 1.0;
  handler.cache().Insert(
      cfcm::serve::ResultCacheKey{(*handler_session)->fingerprint(),
                                  probe.algorithm, kK, kEps, probe.seed,
                                  cfcm::SelectionMode::kLazy,
                                  cfcm::SolverBackend::kAuto},
      cached);
  const std::string hit_line = SolveLine(probe.algorithm, probe.seed);
  const JsonValue hit = handler.HandleLine(hit_line);
  std::vector<NodeId> hit_group;
  result->tally.Op(ResponseOk(hit) && SelectionOf(hit, &hit_group) &&
                       hit_group == cached.output.selected,
                   "cached answer differs from the one inserted");
  const std::vector<double> hits =
      HitProbe(handler, hit_line, CanonicalAnswer(hit), kHitProbeRepeats,
               &result->tally);
  result->Add("hit_p50_us", Median(hits) * 1e6, "us",
              static_cast<int64_t>(hits.size()));
  const std::vector<DeltaStep> steps = ReweightSteps(graph, "g", 50, config.seed);
  const std::vector<double> mutates = MutateProbe(handler, steps, &result->tally);
  result->Add("mutate_p50_ms", Median(mutates) * 1e3, "ms",
              static_cast<int64_t>(mutates.size()));

  // Untraced leg: every end-to-end figure comes from here.
  Spans::Get().set_enabled(false);
  const LegStats leg = RunLeg(config, spec, *setup.engine, &result->tally);
  const double solve_s = leg.PerClassMedian(leg.wall);
  result->Add("solve_s", solve_s, "s", static_cast<int64_t>(leg.all_wall.size()));
  result->Add("solve_cpu_s", leg.PerClassMedian(leg.cpu), "s",
              static_cast<int64_t>(leg.all_wall.size()));
  std::vector<double> cfcc;
  for (const auto& [name, first] : leg.first) cfcc.push_back(first.cfcc);
  result->Add("cfcc", Mean(cfcc), "cfcc", static_cast<int64_t>(cfcc.size()));
  const std::vector<double> wall_ms = Scaled(leg.all_wall, 1e3);
  // Job classes differ in cost; like solve_s, the median is taken per
  // class so it cannot flip between them.
  result->Add("req_p50_ms", solve_s * 1e3, "ms",
              static_cast<int64_t>(wall_ms.size()));
  result->Add("req_p99_ms", Percentile(wall_ms, 0.99), "ms",
              static_cast<int64_t>(wall_ms.size()));
  const std::vector<double> round_ms = Scaled(leg.rounds, 1e3);
  result->Add("round_p50_ms", Median(round_ms), "ms",
              static_cast<int64_t>(round_ms.size()));
  result->Add("round_p90_ms", Percentile(round_ms, 0.90), "ms",
              static_cast<int64_t>(round_ms.size()));

  Spans::Get().set_enabled(config.trace);
  if (config.trace) {
    const LegStats traced = RunLeg(config, spec, *setup.engine, &result->tally);
    const double traced_solve_s = traced.PerClassMedian(traced.wall);
    result->Add("bench.trace_overhead_pct", (traced_solve_s / solve_s - 1) * 100,
                "pct", static_cast<int64_t>(traced.all_wall.size()));
    result->Add("runtime.cpu_per_wall", traced.cpu_seconds / traced.wall_seconds,
                "ratio");
  }

  if (config.trace) {
    result->Add("serve.handle_hit_us", Median(hits) * 1e6, "us",
                static_cast<int64_t>(hits.size()));
    result->Add("runtime.executors", kPoolWorkers + 1, "count");
    const std::vector<double> build_ms =
        Scaled(Spans::Get().DurationsNs("graph.build"), 1e-6);
    result->Add("graph.build_ms", Median(build_ms), "ms",
                static_cast<int64_t>(build_ms.size()));
    SolverLayers(graph, kK, kEps, probe.seed, kPoolWorkers, result);
    MutationLayers(graph, steps, result);
  }
  return 0;
}

}  // namespace perfbench
