// Repository benchmark program (cfcm_perfbench).
//
//   cfcm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>] [--source-digest <hex>]
//
// Runs one workload (batch_ba10k, batch_grid10k, serve_mixed,
// dynamic_ba2k) for --seconds, checks every output, and prints each
// metric by name with its unit, then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with spans recorded around every module call, replays each
// module through its public functions, writes the spans to --spans and
// reports the per-layer metrics derived from them. Exits non-zero when
// any check fails. See perfbench/README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/build_info.h"

namespace perfbench {
namespace {

// Must match BENCHMARK.json: end_to_end (--trace 0) and per_layer
// (--trace 1), in that order.
const char* const kEndToEnd[] = {
    "setup_s",      "solve_s",      "solve_cpu_s",   "cfcc",
    "req_p50_ms",   "req_p99_ms",   "hit_p50_us",    "round_p50_ms",
    "round_p90_ms", "mutate_p50_ms", "success_rate", "peak_rss_mb"};

struct LayerMetric {
  const char* name;
  const char* unit;
};
// A layer a workload never reaches reports 0 (see README.md).
const LayerMetric kPerLayer[] = {
    {"graph.build_ms", "ms"},
    {"graph.apply_ms", "ms"},
    {"forest.walk_steps_per_forest", "count"},
    {"forest.sample_ns_per_step", "ns"},
    {"forest.subtree_ns_per_node_row", "ns"},
    {"linalg.jl_column_ns", "ns"},
    {"linalg.hutchinson_ms", "ms"},
    {"linalg.exact_eval_ms", "ms"},
    {"runtime.executors", "count"},
    {"runtime.batch_ms_e1", "ms"},
    {"runtime.batch_ms_e3", "ms"},
    {"runtime.batch_ms_e4", "ms"},
    {"runtime.cpu_per_wall", "ratio"},
    {"estimators.forest_delta_ms", "ms"},
    {"estimators.schur_delta_ms", "ms"},
    {"estimators.pass_ns_per_node_row", "ns"},
    {"estimators.bytes_per_forest", "bytes"},
    {"estimators.jl_rows", "count"},
    {"estimators.forests_per_call", "count"},
    {"estimators.converged_share", "share"},
    {"cfcm.first_pick_ms", "ms"},
    {"cfcm.delta_ms", "ms"},
    {"cfcm.selection_self_ms", "ms"},
    {"cfcm.delta_calls", "count"},
    {"cfcm.rescore_share", "share"},
    {"cfcm.warm_share", "share"},
    {"cfcm.cold_fallbacks", "count"},
    {"cfcm.reuse_share", "share"},
    {"cfcm.swap_moves", "count"},
    {"engine.solver_ms", "ms"},
    {"engine.score_ms", "ms"},
    {"engine.mutate_ms", "ms"},
    {"serve.parse_us", "us"},
    {"serve.serialize_us", "us"},
    {"serve.handle_hit_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.wait_ms", "ms"},
    {"serve.hit_share", "share"},
    {"serve.handle_mutate_ms", "ms"},
    {"obs.overhead_pct", "pct"},
    {"bench.trace_overhead_pct", "pct"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: cfcm_perfbench --workload "
               "<batch_ba10k|batch_grid10k|serve_mixed|dynamic_ba2k> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>] "
               "[--source-digest <hex>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string source_digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0) return Usage();
  int (*workload)(const RunConfig&, Result*) = nullptr;
  if (config.workload == "batch_ba10k" || config.workload == "batch_grid10k") {
    workload = RunBatch;
  } else if (config.workload == "serve_mixed") {
    workload = RunServeMixed;
  } else if (config.workload == "dynamic_ba2k") {
    workload = RunDynamic;
  } else {
    return Usage();
  }

  Result result;
  const cfcm::BuildInfo& build = cfcm::GetBuildInfo();
  result.env["workload"] = config.workload;
  result.env["seed"] = config.seed;
  result.env["seconds"] = config.seconds;
  result.env["trace"] = config.trace;
  result.env["nproc"] = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  result.env["compiler"] = build.compiler;
  result.env["build_type"] = build.build_type;
  result.env["version"] = build.version;
  result.env["source_digest"] = source_digest;

  Tally selfcheck;
  const bool selfcheck_ok = SelfCheck(&selfcheck);
  result.tally.Check(selfcheck_ok, "self-check failed");
  for (const std::string& problem : selfcheck.problems()) {
    std::fprintf(stderr, "perfbench: self-check: %s\n", problem.c_str());
  }

  if (workload(config, &result) != 0) return 1;

  const Tally& tally = result.tally;
  result.Add("success_rate",
             tally.attempted() > 0
                 ? static_cast<double>(tally.attempted() - tally.failed()) /
                       static_cast<double>(tally.attempted())
                 : 0.0,
             "share", tally.attempted());
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.tally.Check(tally.attempted() > 0, "no operation was attempted");

  JsonValue::Object metrics;
  auto emit = [&](const std::string& name, const std::string& unit,
                  bool required) {
    const Metric* m = result.Find(name);
    double value = m != nullptr ? m->value : 0.0;
    if (m == nullptr && required) {
      result.tally.Check(false, "metric " + name + " was not measured");
    }
    if (!std::isfinite(value)) {
      result.tally.Check(false, "metric " + name + " is not finite");
      value = 0.0;
    }
    std::printf("metric %-34s %16.6f %-6s n=%lld\n", name.c_str(), value,
                unit.c_str(), m ? static_cast<long long>(m->samples) : 0LL);
    metrics[name] = JsonValue(JsonValue::Object{{"value", value}, {"unit", unit}});
  };
  if (config.trace) {
    for (const LayerMetric& layer : kPerLayer) emit(layer.name, layer.unit, false);
    if (!config.spans_path.empty()) {
      result.tally.Check(Spans::Get().Write(config.spans_path),
                         "could not write spans to " + config.spans_path);
      std::printf("spans %zu written to %s\n", Spans::Get().size(),
                  config.spans_path.c_str());
    }
  } else {
    for (const char* name : kEndToEnd) {
      const Metric* m = result.Find(name);
      emit(name, m != nullptr ? m->unit : "", true);
    }
  }
  for (const std::string& problem : result.tally.problems()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::printf("env %s\n", JsonValue(result.env).Serialize().c_str());
  const bool correct = result.tally.correct();
  std::printf("%s\n", JsonValue(JsonValue::Object{
                                    {"correct", correct},
                                    {"attempted", result.tally.attempted()},
                                    {"failed", result.tally.failed()},
                                    {"metrics", JsonValue(std::move(metrics))}})
                          .Serialize()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
