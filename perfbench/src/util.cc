// Statistics, process counters, checks, spans and the probes shared by
// the workloads.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  return samples[index - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::vector<double> Scaled(std::vector<double> samples, double factor) {
  for (double& v : samples) v *= factor;
  return samples;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- checks

bool ResponseOk(const JsonValue& response) {
  const JsonValue* status = response.Find("status");
  return status != nullptr && status->is_string() &&
         status->as_string() == "ok";
}

bool SelectionOf(const JsonValue& response, std::vector<NodeId>* out) {
  out->clear();
  const JsonValue* selection = response.Find("selection");
  if (selection == nullptr || !selection->is_array()) return false;
  for (const JsonValue& id : selection->array()) {
    if (!id.is_int()) return false;
    out->push_back(static_cast<NodeId>(id.as_int()));
  }
  return true;
}

bool ValidGroup(const std::vector<NodeId>& group, int k, NodeId n) {
  if (static_cast<int>(group.size()) != k) return false;
  std::vector<NodeId> sorted = group;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return false;
  }
  return sorted.empty() || (sorted.front() >= 0 && sorted.back() < n);
}

bool SameAnswer(const std::vector<NodeId>& a, double cfcc_a,
                const std::vector<NodeId>& b, double cfcc_b) {
  return a == b && cfcc_a == cfcc_b;
}

std::string CanonicalAnswer(const JsonValue& response) {
  if (!response.is_object()) return response.Serialize();
  JsonValue copy = response;
  copy.object().erase("cache");
  copy.object().erase("id");
  return copy.Serialize();
}

bool FinitePositive(double value) { return std::isfinite(value) && value > 0; }

bool LatenessOk(double late_share, double max_late_share) {
  return std::isfinite(late_share) && late_share <= max_late_share;
}

void Tally::Note(const std::string& what) {
  if (problems_.size() < 16) problems_.push_back(what);
}

void Tally::Op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    Note(what);
  }
}

void Tally::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok) {
    ++check_failures_;
    Note(what);
  }
}

// ----------------------------------------------------------------- spans

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

int64_t Spans::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Spans::Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                   int64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<int64_t>(spans_.size());
  span.request = request;
  spans_.push_back(std::move(span));
}

Spans& Spans::Get() {
  static Spans spans;
  return spans;
}

int64_t Spans::Begin(const std::string& name, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.start_ns = NowNs();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    span.id = id;
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(id);
  return id;
}

void Spans::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

double Spans::TotalNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total;
}

double Spans::SelfNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, double> child_ns;
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double self = 0.0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    self += static_cast<double>(s.end_ns - s.start_ns) - child_ns[s.id];
  }
  return self;
}

std::vector<double> Spans::DurationsNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Spans::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  // One JSON object per line: name, start/end (ns, monotonic), id,
  // parent span and request id.
  for (const Span& s : spans_) {
    out << JsonValue(JsonValue::Object{{"name", s.name},
                                       {"start_ns", s.start_ns},
                                       {"end_ns", s.end_ns},
                                       {"id", s.id},
                                       {"parent", s.parent},
                                       {"request", s.request}})
               .Serialize()
        << '\n';
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------- result

void Result::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit, samples});
}

const Metric* Result::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ------------------------------------------------------ shared helpers

JsonValue HandleTimed(cfcm::serve::ServeHandler& handler,
                      const std::string& line, double* seconds) {
  const double start = NowSeconds();
  JsonValue response = handler.HandleLine(line);
  *seconds = NowSeconds() - start;
  return response;
}

std::vector<DeltaStep> ReweightSteps(const cfcm::Graph& graph,
                                     const std::string& name, int count,
                                     uint64_t seed) {
  const auto edges = graph.Edges();
  cfcm::Rng rng(seed, 0x5eedULL);
  std::vector<DeltaStep> steps;
  for (int i = 0; i < count; ++i) {
    const auto& e = edges[rng.NextBounded(static_cast<uint32_t>(edges.size()))];
    const double weight = 0.5 + rng.NextDouble();
    DeltaStep step;
    step.kind = "reweight";
    step.delta.ReweightEdge(e.first, e.second, weight);
    step.line = JsonValue(JsonValue::Object{
                              {"op", "mutate"},
                              {"graph", name},
                              {"reweight", JsonValue::Array{JsonValue::Array{
                                               e.first, e.second, weight}}}})
                    .Serialize();
    steps.push_back(std::move(step));
  }
  return steps;
}

namespace {

// Runs body(pass) for pass = 0..passes-1, one after another, each on a
// thread pinned to the next CPU the process may use. Microsecond probes
// differ by up to 1.7x between the cores of a shared host; rotating over
// every core keeps the median from resting on whichever core one run
// happened to get.
void RunPinnedPasses(int passes, const std::function<void(int)>& body) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  for (int pass = 0; pass < passes; ++pass) {
    std::thread worker([&, pass] {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[static_cast<std::size_t>(pass) % cpus.size()], &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      }
      body(pass);
    });
    worker.join();
  }
}

}  // namespace

std::vector<double> HitProbe(cfcm::serve::ServeHandler& handler,
                             const std::string& solve_line,
                             const std::string& expected, int repeats,
                             Tally* tally) {
  // Untimed warm-up: the first hits after a quiet spell run slower.
  for (int i = 0; i < kHitProbePass; ++i) (void)handler.HandleLine(solve_line);
  std::vector<double> seconds(static_cast<std::size_t>(repeats));
  const int passes = (repeats + kHitProbePass - 1) / kHitProbePass;
  RunPinnedPasses(passes, [&](int pass) {
    const int end = std::min(repeats, (pass + 1) * kHitProbePass);
    for (int i = pass * kHitProbePass; i < end; ++i) {
      JsonValue response;
      {
        ScopedSpan span("serve.handle_hit", i);
        response = HandleTimed(handler, solve_line,
                               &seconds[static_cast<std::size_t>(i)]);
      }
      const JsonValue* cache = response.Find("cache");
      const bool hit = cache != nullptr && cache->is_string() &&
                       cache->as_string() == "hit";
      tally->Op(ResponseOk(response) && hit &&
                    CanonicalAnswer(response) == expected,
                "hit probe answer differs from the answer that filled it");
    }
  });
  return seconds;
}

std::vector<double> MutateProbe(cfcm::serve::ServeHandler& handler,
                                const std::vector<DeltaStep>& steps,
                                Tally* tally) {
  std::vector<double> seconds(steps.size());
  RunPinnedPasses(static_cast<int>(steps.size()), [&](int i) {
    const auto index = static_cast<std::size_t>(i);
    const JsonValue response =
        HandleTimed(handler, steps[index].line, &seconds[index]);
    tally->Op(ResponseOk(response), "mutate probe failed");
  });
  return seconds;
}

}  // namespace perfbench
