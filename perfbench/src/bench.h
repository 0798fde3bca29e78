// Shared pieces of the repository benchmark: run configuration, exact
// sample statistics, process counters, output checks, the in-memory span
// recorder and the result record every workload fills.
#ifndef CFCM_PERFBENCH_BENCH_H_
#define CFCM_PERFBENCH_BENCH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace perfbench {

using cfcm::NodeId;
using cfcm::serve::JsonValue;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its spans
};

// ------------------------------------------------------------ statistics
// Every figure comes from the sorted raw samples; nothing is bucketed.

double Median(std::vector<double> samples);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);
/// Every sample multiplied by `factor` (unit conversion).
std::vector<double> Scaled(std::vector<double> samples, double factor);

// ------------------------------------------------------ process counters

double NowSeconds();   ///< monotonic clock
double CpuSeconds();   ///< user + system time of the whole process
double PeakRssMb();    ///< peak resident set of the process

// ---------------------------------------------------------------- checks
// Pure predicates, so the self-check can feed each one a corrupted
// output and show that it rejects it.

bool ResponseOk(const JsonValue& response);
/// Reads the "selection" array of a solve response.
bool SelectionOf(const JsonValue& response, std::vector<NodeId>* out);
/// k distinct ids, each in [0, n).
bool ValidGroup(const std::vector<NodeId>& group, int k, NodeId n);
/// Same group and bit-identical C(S).
bool SameAnswer(const std::vector<NodeId>& a, double cfcc_a,
                const std::vector<NodeId>& b, double cfcc_b);
/// A response without its per-request members ("cache", "id"): a hit
/// must serialize byte-identically to the miss that filled it.
std::string CanonicalAnswer(const JsonValue& response);
/// A trace or C(S) that is finite and positive.
bool FinitePositive(double value);
/// Open-loop lateness: the share of sends later than the tolerance.
bool LatenessOk(double late_share, double max_late_share);

/// Counts attempted and failed operations plus run-level check failures.
class Tally {
 public:
  /// One operation: `ok` false counts it failed, with a reason.
  void Op(bool ok, const std::string& what);
  /// A check on the run as a whole (not an operation).
  void Check(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && check_failures_ == 0; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  void Note(const std::string& what);
  std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t check_failures_ = 0;
  std::vector<std::string> problems_;  // first few reasons
};

// ----------------------------------------------------------------- spans

/// One timed interval recorded by the benchmark around a call into a
/// module. `parent` is the span open on the same thread when this one
/// began (-1 at top level); `request` groups the spans of one operation.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
};

/// Process-wide span store. Spans stay in memory and are written once,
/// at the end of a traced run. Disabled, Begin/End cost one branch.
class Spans {
 public:
  static Spans& Get();
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  int64_t Begin(const std::string& name, int64_t request);
  void End(int64_t id);
  /// A span timed elsewhere (e.g. sent on one thread, answered on
  /// another), on the same monotonic clock as NowNs().
  void Record(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t request);
  static int64_t NowNs();
  /// Summed duration of every span called `name`.
  double TotalNs(const std::string& name) const;
  /// Summed duration minus the time covered by direct children.
  double SelfNs(const std::string& name) const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> DurationsNs(const std::string& name) const;
  bool Write(const std::string& path) const;
  std::size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, int64_t request = -1)
      : id_(Spans::Get().Begin(name, request)) {}
  ~ScopedSpan() { Spans::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

// ---------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  ///< raw samples behind the figure (0 = n/a)
};

struct Result {
  std::vector<Metric> metrics;
  Tally tally;
  JsonValue::Object env;  ///< environment stamp of the run

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0);
  const Metric* Find(const std::string& name) const;
};

// ------------------------------------------------------ shared helpers

/// ServeHandler::HandleLine parsed back, with its latency in seconds.
JsonValue HandleTimed(cfcm::serve::ServeHandler& handler,
                      const std::string& line, double* seconds);

/// A seeded sequence of 1-edge reweights over edges of `graph`, as
/// deltas and as protocol lines against the catalog name `name`.
struct DeltaStep {
  cfcm::GraphDelta delta;
  std::string line;
  std::string kind;
};
std::vector<DeltaStep> ReweightSteps(const cfcm::Graph& graph,
                                     const std::string& name, int count,
                                     uint64_t seed);

/// In-process cache hits take microseconds: enough of them that the
/// median is not one scheduler tick, in passes that rotate over the CPUs.
constexpr int kHitProbeRepeats = 5000;
constexpr int kHitProbePass = 500;

/// Times `repeats` hits of `solve_line` (whose answer is already cached)
/// through HandleLine, checking each against `expected` (canonical).
/// Each pass of kHitProbePass hits runs pinned to the next CPU.
std::vector<double> HitProbe(cfcm::serve::ServeHandler& handler,
                             const std::string& solve_line,
                             const std::string& expected, int repeats,
                             Tally* tally);

/// Times each mutate line through HandleLine, in order, each pinned to
/// the next CPU.
std::vector<double> MutateProbe(cfcm::serve::ServeHandler& handler,
                                const std::vector<DeltaStep>& steps,
                                Tally* tally);

/// Replays the solver-side modules (forest, linalg, runtime, estimators,
/// cfcm, engine) on `graph` through their public seams, adding the
/// per-layer metrics of those modules to `result`.
void SolverLayers(const cfcm::Graph& graph, int k, double eps, uint64_t seed,
                  int pool_workers, Result* result);

/// Replays Graph::Apply and GraphSession::Mutate over `steps` from
/// `base`, adding graph.apply_ms and engine.mutate_ms.
void MutationLayers(const cfcm::Graph& base,
                    const std::vector<DeltaStep>& steps, Result* result);

// ------------------------------------------------------------ workloads

int RunBatch(const RunConfig& config, Result* result);
int RunServeMixed(const RunConfig& config, Result* result);
int RunDynamic(const RunConfig& config, Result* result);
/// Every workload path on karate, plus each check fed a corrupted
/// output. Returns true when every path passed and every check refused
/// its corruption.
bool SelfCheck(Tally* tally);

}  // namespace perfbench

#endif  // CFCM_PERFBENCH_BENCH_H_
