// Per-layer replays for the traced run. Each module is timed through
// its own public functions on the workload's graph, with spans recorded
// around every call; the per-layer metrics are then read off the spans.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "cfcm/forest_cfcm.h"
#include "cfcm/lazy_greedy.h"
#include "cfcm/schur_cfcm.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/session.h"
#include "estimators/first_pick.h"
#include "estimators/forest_delta.h"
#include "estimators/jl_kernel.h"
#include "estimators/schur_delta.h"
#include "forest/bfs_tree.h"
#include "forest/subtree.h"
#include "forest/wilson.h"
#include "linalg/hutchinson.h"
#include "linalg/jl.h"
#include "runtime/mc_runtime.h"

namespace perfbench {
namespace {

using cfcm::ForestKernel;

constexpr double kNsPerMs = 1e6;

/// Forwarding kernel: times every ProcessForest / Accumulate call of
/// the wrapped kernel as a span, without changing what it computes.
class TimedKernel : public ForestKernel {
 public:
  TimedKernel(ForestKernel* inner, bool record)
      : inner_(inner), record_(record) {}
  std::int64_t ProcessForest(std::size_t slot,
                             std::uint64_t forest_index) override {
    if (!record_) return inner_->ProcessForest(slot, forest_index);
    ScopedSpan span("estimators.kernel_process",
                    static_cast<int64_t>(forest_index));
    return inner_->ProcessForest(slot, forest_index);
  }
  void Accumulate(std::size_t slot, NodeId begin, NodeId end) override {
    if (!record_) return inner_->Accumulate(slot, begin, end);
    ScopedSpan span("estimators.kernel_accumulate");
    inner_->Accumulate(slot, begin, end);
  }
  void AccumulateTail(std::size_t slot) override {
    inner_->AccumulateTail(slot);
  }

 private:
  ForestKernel* inner_;
  bool record_;
};

double SpanMs(const std::string& name) {
  return Spans::Get().TotalNs(name) / kNsPerMs;
}

}  // namespace

void SolverLayers(const cfcm::Graph& graph, int k, double eps, uint64_t seed,
                  int pool_workers, Result* result) {
  const NodeId n = graph.num_nodes();
  cfcm::ThreadPool pool(static_cast<std::size_t>(pool_workers));
  cfcm::CfcmOptions options;
  options.eps = eps;
  options.seed = seed;
  options.pool = &pool;
  const cfcm::EstimatorOptions est = cfcm::ToEstimatorOptions(options);
  const int w = cfcm::ResolveJlRows(est, n);

  // ---- engine: Engine::Run against the direct solver on the same input.
  auto session =
      std::make_shared<cfcm::engine::GraphSession>(cfcm::Graph(graph), &pool);
  cfcm::engine::Engine engine(session);
  cfcm::engine::SolveJob job;
  job.algorithm = "forest";
  job.k = k;
  job.eps = eps;
  job.seed = seed;
  {
    ScopedSpan span("engine.run");
    auto run = engine.Run(job);
    result->tally.Check(run.ok(), "engine replay solve failed");
  }
  cfcm::StatusOr<cfcm::CfcmResult> direct = cfcm::CfcmResult{};
  {
    ScopedSpan span("cfcm.forest_maximize");
    direct = cfcm::ForestCfcmMaximize(graph, k, options);
  }
  if (!direct.ok() || direct->selected.empty()) {
    result->tally.Check(false, "direct solver replay failed");
    return;
  }
  const std::vector<NodeId> selection = direct->selected;
  result->Add("engine.solver_ms", SpanMs("cfcm.forest_maximize"), "ms", 1);
  result->Add("engine.score_ms",
              std::max(0.0, SpanMs("engine.run") - SpanMs("cfcm.forest_maximize")),
              "ms", 1);
  result->Add("cfcm.reuse_share",
              direct->total_forests > 0
                  ? static_cast<double>(direct->forests_reused) /
                        static_cast<double>(direct->total_forests)
                  : 0.0,
              "share", direct->total_forests);

  // ---- cfcm: first pick, then the lazy loop with a timed delta function.
  {
    ScopedSpan span("cfcm.first_pick");
    (void)cfcm::EstimateFirstPick(graph, est, pool);
  }
  int delta_calls = 0;
  int converged = 0;
  std::vector<double> forests_per_call;
  int jl_rows = 0;
  const cfcm::LazyDeltaFn timed_delta =
      [&](const std::vector<NodeId>& s_nodes, uint64_t round_seed,
          const cfcm::DeltaScope& scope) {
        ScopedSpan span("estimators.delta_call");
        cfcm::EstimatorOptions call = est;
        call.seed = round_seed;
        cfcm::DeltaEstimate d = cfcm::ForestDelta(graph, s_nodes, call, pool, scope);
        ++delta_calls;
        converged += d.converged ? 1 : 0;
        forests_per_call.push_back(d.forests);
        jl_rows = d.jl_rows;
        return d;
      };
  cfcm::StatusOr<cfcm::CfcmResult> lazy = cfcm::CfcmResult{};
  {
    ScopedSpan span("cfcm.lazy_select");
    lazy = cfcm::LazyGreedySelect(graph, k, options, pool, timed_delta,
                                  /*allow_forest_reuse=*/true);
  }
  result->tally.Check(lazy.ok() && ValidGroup(lazy->selected, k, n),
                      "lazy selection replay returned an invalid group");
  result->Add("cfcm.first_pick_ms", SpanMs("cfcm.first_pick"), "ms", 1);
  result->Add("cfcm.delta_ms", SpanMs("estimators.delta_call"), "ms",
              delta_calls);
  result->Add("cfcm.selection_self_ms",
              Spans::Get().SelfNs("cfcm.lazy_select") / kNsPerMs, "ms", 1);
  result->Add("cfcm.delta_calls", delta_calls, "count");
  if (lazy.ok() && k > 1) {
    result->Add("cfcm.rescore_share",
                static_cast<double>(lazy->rescored_candidates) /
                    (static_cast<double>(k - 1) * n),
                "share");
  }
  result->Add("estimators.jl_rows", jl_rows, "count");
  result->Add("estimators.forests_per_call", Mean(forests_per_call), "count",
              delta_calls);
  result->Add("estimators.converged_share",
              delta_calls > 0 ? static_cast<double>(converged) / delta_calls : 0,
              "share", delta_calls);

  // ---- estimators: one full-graph call each at the round-2 root set.
  const std::vector<NodeId> roots{selection[0]};
  {
    ScopedSpan span("estimators.forest_delta");
    (void)cfcm::ForestDelta(graph, roots, est, pool);
  }
  std::vector<NodeId> t_nodes;
  for (NodeId t : cfcm::SelectAuxiliaryRoots(graph, options.t_cap)) {
    if (t != roots[0]) t_nodes.push_back(t);
  }
  if (!t_nodes.empty()) {
    ScopedSpan span("estimators.schur_delta");
    (void)cfcm::SchurDelta(graph, roots, t_nodes, est, pool);
  }
  result->Add("estimators.forest_delta_ms", SpanMs("estimators.forest_delta"),
              "ms", 1);
  result->Add("estimators.schur_delta_ms", SpanMs("estimators.schur_delta"),
              "ms", 1);
  result->Add("estimators.bytes_per_forest", 3.0 * n * w * 8.0, "bytes");

  // ---- forest: sampling and subtree sums on the solve's root sets.
  const cfcm::JlSketch sketch(w, n, seed);
  {
    cfcm::ForestSampler sampler(graph);
    std::vector<double> buf(static_cast<std::size_t>(n) * w);
    constexpr int kForestsPerRootSet = 8;
    int64_t steps = 0;
    int64_t forests = 0;
    for (int i = 0; i + 1 < k; ++i) {
      std::vector<char> is_root(static_cast<std::size_t>(n), 0);
      for (int j = 0; j <= i; ++j) is_root[selection[j]] = 1;
      for (int f = 0; f < kForestsPerRootSet; ++f) {
        cfcm::Rng rng(seed, static_cast<uint64_t>(i * kForestsPerRootSet + f));
        const cfcm::RootedForest* forest = nullptr;
        {
          ScopedSpan span("forest.sample", forests);
          forest = &sampler.Sample(is_root, &rng);
        }
        steps += sampler.last_walk_steps();
        {
          ScopedSpan span("forest.subtree", forests);
          cfcm::SubtreeJlSums(*forest, is_root, sketch, buf.data());
        }
        ++forests;
      }
    }
    result->Add("forest.walk_steps_per_forest",
                forests > 0 ? static_cast<double>(steps) / forests : 0, "count",
                forests);
    result->Add("forest.sample_ns_per_step",
                steps > 0 ? Spans::Get().TotalNs("forest.sample") / steps : 0,
                "ns", forests);
    result->Add("forest.subtree_ns_per_node_row",
                Spans::Get().TotalNs("forest.subtree") /
                    (static_cast<double>(forests) * n * w),
                "ns", forests);
  }

  // ---- linalg: JL columns and Hutchinson probes on the returned group.
  {
    std::vector<double> column(static_cast<std::size_t>(w));
    constexpr int kPasses = 3;
    for (int pass = 0; pass < kPasses; ++pass) {
      ScopedSpan span("linalg.jl_columns", pass);
      for (NodeId v = 0; v < n; ++v) sketch.ColumnInto(v, column.data());
    }
    result->Add("linalg.jl_column_ns",
                Spans::Get().TotalNs("linalg.jl_columns") /
                    (static_cast<double>(kPasses) * n),
                "ns", kPasses);
  }
  {
    ScopedSpan span("linalg.hutchinson");
    const cfcm::TraceEstimate trace =
        cfcm::HutchinsonTraceInverse(graph, selection, 64, seed);
    result->tally.Check(FinitePositive(trace.trace),
                        "hutchinson replay trace is not finite");
  }
  result->Add("linalg.hutchinson_ms", SpanMs("linalg.hutchinson"), "ms", 1);

  // ---- runtime: one RunForestBatch of a JlForestKernel per pool size.
  constexpr int kBatchForests = 64;
  const cfcm::TreeScaffold scaffold = cfcm::MakeTreeScaffold(graph, roots);
  int64_t e1_steps = 0;
  const struct {
    int workers;
    const char* metric;
    const char* span;
  } sizes[] = {{1, "runtime.batch_ms_e1", "runtime.batch_e1"},
               {2, "runtime.batch_ms_e3", "runtime.batch_e3"},
               {3, "runtime.batch_ms_e4", "runtime.batch_e4"}};
  for (const auto& size : sizes) {
    cfcm::ThreadPool batch_pool(static_cast<std::size_t>(size.workers));
    cfcm::JlForestKernel kernel(graph, scaffold, sketch, seed, w,
                                cfcm::McScratchSlots(batch_pool));
    TimedKernel timed(&kernel, /*record=*/size.workers == 1);
    cfcm::McRunOptions run_options;
    run_options.num_nodes = n;
    cfcm::McRunStats stats;
    {
      ScopedSpan span(size.span);
      stats = cfcm::RunForestBatch(batch_pool, run_options, 0, kBatchForests,
                                   timed);
    }
    if (size.workers == 1) e1_steps = stats.walk_steps;
    result->Add(size.metric, SpanMs(size.span), "ms", kBatchForests);
  }
  // Kernel time minus the sampling share (walk steps at the replayed
  // per-step cost), over forests * n * w.
  const Metric* ns_per_step = result->Find("forest.sample_ns_per_step");
  const double kernel_ns = Spans::Get().TotalNs("estimators.kernel_process") +
                           Spans::Get().TotalNs("estimators.kernel_accumulate");
  const double sample_ns =
      static_cast<double>(e1_steps) * (ns_per_step ? ns_per_step->value : 0.0);
  result->Add("estimators.pass_ns_per_node_row",
              std::max(0.0, kernel_ns - sample_ns) /
                  (static_cast<double>(kBatchForests) * n * w),
              "ns", kBatchForests);
}

void MutationLayers(const cfcm::Graph& base,
                    const std::vector<DeltaStep>& steps, Result* result) {
  cfcm::Graph current = base;
  int64_t index = 0;
  for (const DeltaStep& step : steps) {
    cfcm::StatusOr<cfcm::Graph> next = cfcm::Graph{};
    {
      ScopedSpan span("graph.apply", index++);
      next = current.Apply(step.delta);
    }
    result->tally.Check(next.ok(), "Graph::Apply replay failed");
    if (!next.ok()) return;
    current = std::move(*next);
  }
  cfcm::engine::GraphSession session(cfcm::Graph(base), 1);
  index = 0;
  for (const DeltaStep& step : steps) {
    ScopedSpan span("engine.mutate", index++);
    auto installed = session.Mutate(step.delta);
    result->tally.Check(installed.ok(), "GraphSession::Mutate replay failed");
  }
  const auto median_ms = [](const std::string& name) {
    return Median(Scaled(Spans::Get().DurationsNs(name), 1 / kNsPerMs));
  };
  result->Add("graph.apply_ms", median_ms("graph.apply"), "ms",
              static_cast<int64_t>(steps.size()));
  result->Add("engine.mutate_ms", median_ms("engine.mutate"), "ms",
              static_cast<int64_t>(steps.size()));
}

}  // namespace perfbench
