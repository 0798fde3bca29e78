// Tiny self-check, run before every workload: each workload path once on
// karate, then every output check fed a corrupted copy of a real output.
// A check that accepts its corruption could never fail a run, so the
// self-check fails instead.
#include <cmath>
#include <limits>

#include "bench.h"
#include "engine/session.h"
#include "graph/spec.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {
namespace {

constexpr int kK = 3;

std::string Solve(const std::string& extra) {
  return R"({"op":"solve","graph":"g","algorithm":"forest","k":3,"eps":0.2,"seed":7)" +
         extra + "}";
}

}  // namespace

bool SelfCheck(Tally* tally) {
  auto karate = cfcm::LoadGraphFromSpec("karate");
  if (!karate.ok()) {
    tally->Check(false, "karate does not load");
    return false;
  }
  const NodeId n = karate->num_nodes();

  // Batch path: Engine::Run, twice per algorithm.
  cfcm::engine::Engine engine{cfcm::Graph(*karate)};
  std::vector<NodeId> batch_group;
  double batch_cfcc = 0.0;
  for (const char* algorithm : {"forest", "schur"}) {
    std::vector<cfcm::engine::SolveJobResult> runs;
    for (int rep = 0; rep < 2; ++rep) {
      cfcm::engine::SolveJob job;
      job.algorithm = algorithm;
      job.k = kK;
      job.seed = 7;
      auto run = engine.Run(job);
      if (run.ok()) runs.push_back(std::get<cfcm::engine::SolveJobResult>(*run));
    }
    const bool ok = runs.size() == 2 &&
                    ValidGroup(runs[0].output.selected, kK, n) &&
                    FinitePositive(runs[0].cfcc) &&
                    SameAnswer(runs[0].output.selected, runs[0].cfcc,
                               runs[1].output.selected, runs[1].cfcc);
    tally->Check(ok, std::string("batch path failed for ") + algorithm);
    if (ok) {
      batch_group = runs[0].output.selected;
      batch_cfcc = runs[0].cfcc;
    }
  }

  // Serve path: loopback miss, hit and evaluate.
  cfcm::serve::ServeHandler handler;
  JsonValue miss, hit, evaluate;
  {
    cfcm::serve::ServerOptions options;
    options.watchdog_interval_ms = 0;
    cfcm::serve::Server server(&handler, options);
    bool ok = server.Start().ok();
    if (ok) {
      auto client = cfcm::serve::ServeClient::Connect("127.0.0.1", server.port());
      ok = client.ok();
      if (ok) {
        auto call = [&](const std::string& line) {
          auto response = client->Call(*JsonValue::Parse(line));
          return response.ok() ? *response : JsonValue();
        };
        ok = ResponseOk(call(R"({"op":"load","graph":"g","source":"karate"})"));
        miss = call(Solve(""));
        hit = call(Solve(""));
        evaluate = call(R"({"op":"evaluate","graph":"g","group":[0,33],"probes":0})");
      }
    }
    server.Shutdown();
    std::vector<NodeId> group;
    const JsonValue* trace = evaluate.Find("trace");
    ok = ok && ResponseOk(miss) && ResponseOk(hit) && ResponseOk(evaluate) &&
         SelectionOf(miss, &group) && ValidGroup(group, kK, n) &&
         CanonicalAnswer(miss) == CanonicalAnswer(hit) && trace != nullptr &&
         trace->is_number() && FinitePositive(trace->as_double());
    tally->Check(ok, "serve path failed");
  }

  // Dynamic path: mutate, then a warm solve on the new graph.
  {
    cfcm::serve::ServeHandler dynamic;
    std::vector<NodeId> group;
    const bool ok =
        ResponseOk(dynamic.HandleLine(R"({"op":"load","graph":"g","source":"karate"})")) &&
        ResponseOk(dynamic.HandleLine(Solve(R"(,"warm":"auto")"))) &&
        ResponseOk(dynamic.HandleLine(
            R"({"op":"mutate","graph":"g","reweight":[[0,1,2.5]]})")) &&
        SelectionOf(dynamic.HandleLine(Solve(R"(,"warm":"auto")")), &group) &&
        ValidGroup(group, kK, n);
    tally->Check(ok, "dynamic path failed");
  }

  // Every check must refuse a corrupted output.
  const auto refuses = [&](bool accepted, const std::string& what) {
    tally->Check(!accepted, "check accepted a corrupted output: " + what);
  };
  JsonValue error = miss;
  if (error.is_object()) error.object()["status"] = "error";
  refuses(ResponseOk(error), "status error");
  if (batch_group.size() == static_cast<std::size_t>(kK)) {
    std::vector<NodeId> duplicate = batch_group;
    duplicate[1] = duplicate[0];
    refuses(ValidGroup(duplicate, kK, n), "duplicate id");
    std::vector<NodeId> out_of_range = batch_group;
    out_of_range[2] = n;
    refuses(ValidGroup(out_of_range, kK, n), "id out of range");
    std::vector<NodeId> short_group(batch_group.begin(), batch_group.end() - 1);
    refuses(ValidGroup(short_group, kK, n), "group of k-1 ids");
    std::vector<NodeId> changed = batch_group;
    changed[0] = (changed[0] + 1) % n;
    refuses(SameAnswer(batch_group, batch_cfcc, changed, batch_cfcc),
            "changed selection on a repeated seed");
    refuses(SameAnswer(batch_group, batch_cfcc, batch_group,
                       std::nextafter(batch_cfcc, 0.0)),
            "changed cfcc on a repeated seed");
  } else {
    tally->Check(false, "no batch group to corrupt");
  }
  JsonValue altered = hit;
  if (const JsonValue* cfcc = hit.Find("cfcc"); cfcc != nullptr) {
    altered.object()["cfcc"] = 1.0 + cfcc->as_double();
  }
  refuses(CanonicalAnswer(altered) == CanonicalAnswer(miss),
          "cache hit that differs from its miss");
  JsonValue bad_ids = miss;
  std::vector<NodeId> ignored;
  if (bad_ids.is_object()) {
    bad_ids.object()["selection"] = JsonValue::Array{JsonValue("0")};
  }
  refuses(SelectionOf(bad_ids, &ignored), "non-integer selection");
  refuses(FinitePositive(std::numeric_limits<double>::quiet_NaN()), "NaN trace");
  refuses(FinitePositive(std::numeric_limits<double>::infinity()), "infinite trace");
  refuses(FinitePositive(0.0), "zero trace");
  refuses(LatenessOk(0.5, 0.05), "generator late on half its sends");
  return tally->correct();
}

}  // namespace perfbench
