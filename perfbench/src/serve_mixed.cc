// serve_mixed: a loopback serve::Server (2 workers, 1-worker catalog
// pool) with karate, ba:400,4 and ba:2000,4 loaded. One generator thread
// sends an open-loop, seeded Poisson schedule pipelined over 2
// connections; one reader per connection matches replies by "id".
// The mix: cache-hit solves over the key set pre-warmed in set-up,
// cache-miss solves on fresh seeds (forest and schur on ba400, k=5), and
// evaluate requests (exact on ba400, probed on ba2000).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.h"
#include "common/rng.h"
#include "graph/spec.h"
#include "linalg/solver.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace perfbench {
namespace {

/// Line client for the load generator: like serve::ServeClient, but
/// with Nagle's algorithm off, so a request leaves when it is sent
/// rather than when the previous one is acknowledged. Sending and
/// reading may run on different threads.
class LineClient {
 public:
  static cfcm::StatusOr<std::unique_ptr<LineClient>> Connect(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return cfcm::Status::IoError("socket failed");
    auto client = std::unique_ptr<LineClient>(new LineClient(fd));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return cfcm::Status::IoError("connect failed");
    }
    return client;
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool SendLine(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t wrote = ::send(fd_, framed.data() + sent,
                                   framed.size() - sent, MSG_NOSIGNAL);
      if (wrote <= 0) return false;
      sent += static_cast<std::size_t>(wrote);
    }
    return true;
  }
  /// Next response line; false once the connection is closed.
  bool ReadLine(std::string* line) {
    char chunk[4096];
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return false;
      // Acknowledge at once (Linux re-arms delayed ACKs after a read).
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }
  cfcm::StatusOr<JsonValue> Call(const JsonValue& request) {
    std::string line;
    if (!SendLine(request.Serialize()) || !ReadLine(&line)) {
      return cfcm::Status::IoError("connection closed");
    }
    return JsonValue::Parse(line);
  }

 private:
  explicit LineClient(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

constexpr int kK = 5;
constexpr double kEps = 0.2;
constexpr int kServerWorkers = 2;
constexpr int kCatalogThreads = 1;
constexpr int kConnections = 2;
constexpr int kSetups = 3;
// Offered load: about half the capacity of this mix measured on a
// 4-vCPU x86 host (see README.md). Fixed, so every commit is offered
// the same schedule; a leg sends at least kMinRequests.
constexpr double kRatePerSecond = 100.0;
constexpr std::size_t kMinRequests = 1000;
// Request kinds per deck of 100, dealt in a seeded shuffle so every run
// sends the same mix: hits, misses, exact and probed evaluates.
constexpr int kDeckHits = 90;
constexpr int kDeckMisses = 4;
constexpr int kDeckExact = 3;
constexpr int kDeckProbed = 3;
constexpr int kMutateProbes = 100;
// A send later than kLateToleranceS counts as late; more than
// kMaxLateShare late sends make the run invalid.
constexpr double kLateToleranceS = 0.010;
constexpr double kMaxLateShare = 0.05;
constexpr double kDrainTimeoutS = 90.0;
constexpr auto kSpinBeforeSend = std::chrono::microseconds(200);
constexpr int kProbes = 32;

struct GraphEntry {
  std::string name;
  std::string spec;
};

std::vector<GraphEntry> Graphs(uint64_t seed) {
  return {{"karate", "karate"},
          {"ba400", "ba:400,4," + std::to_string(seed)},
          {"ba2000", "ba:2000,4," + std::to_string(seed)}};
}

std::string SolveLine(const std::string& graph, const std::string& algorithm,
                      uint64_t seed) {
  return JsonValue(JsonValue::Object{{"op", "solve"},
                                     {"graph", graph},
                                     {"algorithm", algorithm},
                                     {"k", kK},
                                     {"eps", kEps},
                                     {"seed", seed}})
      .Serialize();
}

JsonValue WithId(const std::string& line, int64_t id) {
  JsonValue request = *JsonValue::Parse(line);
  request.object()["id"] = id;
  return request;
}

enum class Kind { kHit, kMiss, kEvalExact, kEvalProbed };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kHit: return "hit";
    case Kind::kMiss: return "miss";
    case Kind::kEvalExact: return "evaluate_exact";
    case Kind::kEvalProbed: return "evaluate_probed";
  }
  return "";
}

struct Request {
  double at = 0.0;  ///< scheduled send time, seconds from the leg start
  Kind kind = Kind::kHit;
  int klass = 0;     ///< hit key index or miss class
  std::string base;  ///< line without id (hit key / in-process replay)
  std::string line;  ///< wire line with id
  NodeId n = 0;      ///< node count of the target graph
};

struct Setup {
  std::unique_ptr<cfcm::serve::ServeHandler> handler;
  std::unique_ptr<cfcm::serve::Server> server;
  std::vector<std::unique_ptr<LineClient>> clients;
  std::vector<std::string> hit_lines;      // pre-warmed keys
  std::vector<std::string> hit_canonical;  // the miss that filled each
  std::map<std::string, NodeId> nodes;     // graph name -> n
  std::map<std::string, std::vector<NodeId>> groups;  // evaluate groups

  ~Setup() {
    clients.clear();
    if (server) server->Shutdown();
  }
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

// Server start, connections, graph loads and the cache pre-warm of the
// exact key set the hit requests use.
cfcm::StatusOr<std::unique_ptr<Setup>> BuildSetup(uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  cfcm::serve::HandlerOptions handler_options;
  handler_options.catalog.num_threads = kCatalogThreads;
  setup->handler = std::make_unique<cfcm::serve::ServeHandler>(handler_options);
  cfcm::serve::ServerOptions server_options;
  server_options.num_workers = kServerWorkers;
  server_options.max_queue = 4096;
  server_options.watchdog_interval_ms = 0;
  setup->server = std::make_unique<cfcm::serve::Server>(setup->handler.get(),
                                                        server_options);
  CFCM_RETURN_IF_ERROR(setup->server->Start());
  for (int c = 0; c < kConnections; ++c) {
    auto client = LineClient::Connect(setup->server->port());
    if (!client.ok()) return client.status();
    setup->clients.push_back(std::move(*client));
  }
  LineClient& client = *setup->clients[0];
  for (const GraphEntry& g : Graphs(seed)) {
    auto loaded = client.Call(JsonValue(JsonValue::Object{
        {"op", "load"}, {"graph", g.name}, {"source", g.spec}}));
    if (!loaded.ok() || !ResponseOk(*loaded)) {
      return cfcm::Status::FailedPrecondition("could not load " + g.spec);
    }
    setup->nodes[g.name] = static_cast<NodeId>(loaded->Find("nodes")->as_int());
    for (const char* algorithm : {"forest", "schur"}) {
      for (uint64_t key_seed : {1, 2}) {
        const std::string line = SolveLine(g.name, algorithm, key_seed);
        auto warmed = client.Call(*JsonValue::Parse(line));
        std::vector<NodeId> group;
        if (!warmed.ok() || !ResponseOk(*warmed) ||
            !SelectionOf(*warmed, &group) ||
            !ValidGroup(group, kK, setup->nodes[g.name])) {
          return cfcm::Status::FailedPrecondition("pre-warm failed: " + line);
        }
        setup->hit_lines.push_back(line);
        setup->hit_canonical.push_back(CanonicalAnswer(*warmed));
        if (setup->groups.count(g.name) == 0) setup->groups[g.name] = group;
      }
    }
  }
  return setup;
}

std::vector<Request> Schedule(const Setup& setup, uint64_t seed, int leg,
                              double seconds) {
  cfcm::Rng rng(seed, 0x5e7eULL + static_cast<uint64_t>(leg));
  std::vector<Request> schedule;
  double at = 0.0;
  int64_t misses = 0;
  std::vector<Kind> deck;
  auto group_json = [&](const std::string& name) {
    JsonValue::Array ids;
    for (NodeId id : setup.groups.at(name)) ids.push_back(id);
    return ids;
  };
  while (true) {
    at += -std::log(1.0 - rng.NextDouble()) / kRatePerSecond;
    if (at >= seconds && schedule.size() >= kMinRequests) break;
    Request r;
    r.at = at;
    if (deck.empty()) {
      deck.insert(deck.end(), kDeckHits, Kind::kHit);
      deck.insert(deck.end(), kDeckMisses, Kind::kMiss);
      deck.insert(deck.end(), kDeckExact, Kind::kEvalExact);
      deck.insert(deck.end(), kDeckProbed, Kind::kEvalProbed);
      for (std::size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
      }
    }
    r.kind = deck.back();
    deck.pop_back();
    if (r.kind == Kind::kHit) {
      r.klass = static_cast<int>(
          rng.NextBounded(static_cast<uint32_t>(setup.hit_lines.size())));
      r.base = setup.hit_lines[static_cast<std::size_t>(r.klass)];
    } else if (r.kind == Kind::kMiss) {
      // Fresh seeds, never pre-warmed: each leg has its own range. A
      // single-executor ba2000 miss holds a worker ~0.5 s, which at this
      // rate would make queueing, not the mix, set every percentile.
      static const char* const kClasses[][2] = {{"ba400", "forest"},
                                                {"ba400", "schur"}};
      r.klass = static_cast<int>(misses % 2);
      const uint64_t fresh = 1'000'000ULL * static_cast<uint64_t>(leg + 1) +
                             static_cast<uint64_t>(misses++);
      r.base = SolveLine(kClasses[r.klass][0], kClasses[r.klass][1], fresh);
      r.n = setup.nodes.at(kClasses[r.klass][0]);
    } else {
      const bool exact = r.kind == Kind::kEvalExact;
      const std::string graph = exact ? "ba400" : "ba2000";
      r.base = JsonValue(JsonValue::Object{
                             {"op", "evaluate"},
                             {"graph", graph},
                             {"group", group_json(graph)},
                             {"probes", exact ? 0 : kProbes},
                             {"seed", static_cast<int64_t>(schedule.size() + 1)}})
                   .Serialize();
    }
    r.line = WithId(r.base, static_cast<int64_t>(schedule.size())).Serialize();
    schedule.push_back(std::move(r));
  }
  return schedule;
}

struct Outcome {
  double sent = 0.0;
  double received = 0.0;
  std::string response;
  bool answered = false;
};

struct LegStats {
  std::vector<Request> schedule;
  std::vector<Outcome> outcomes;
  double start = 0.0;
  double late_share = 0.0;
  double max_late_s = 0.0;
  double cpu_seconds = 0.0;
  double wall_seconds = 0.0;
  std::vector<double> latency_ms;  // every request, from its scheduled time
  std::vector<double> hit_us;
  std::map<int, std::vector<double>> miss_s;     // latency per miss class
  std::map<int, std::vector<double>> miss_cfcc;  // per miss class
  std::vector<double> computing_ms;  // misses and evaluates
  int64_t misses = 0;
  int64_t hits = 0;
};

LegStats RunLeg(const RunConfig& config, Setup& setup, int leg_index,
                Tally* tally) {
  LegStats leg;
  leg.schedule = Schedule(setup, config.seed, leg_index, config.seconds);
  const std::size_t total = leg.schedule.size();
  leg.outcomes.resize(total);

  std::mutex mu;
  std::condition_variable cv;
  int readers_done = 0;
  std::vector<std::thread> readers;
  for (int c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      const std::size_t expected = (total + kConnections - 1 - c) / kConnections;
      for (std::size_t got = 0; got < expected; ++got) {
        std::string line;
        if (!setup.clients[c]->ReadLine(&line)) break;
        const double now = NowSeconds();
        cfcm::StatusOr<JsonValue> parsed = JsonValue::Parse(line);
        const JsonValue* id = parsed.ok() ? parsed->Find("id") : nullptr;
        if (id == nullptr || !id->is_int() || id->as_int() < 0 ||
            static_cast<std::size_t>(id->as_int()) >= total) {
          continue;
        }
        Outcome& out = leg.outcomes[static_cast<std::size_t>(id->as_int())];
        out.received = now;
        out.response = std::move(line);
        out.answered = true;
      }
      std::lock_guard<std::mutex> lock(mu);
      ++readers_done;
      cv.notify_all();
    });
  }

  // Generator: the main thread sends each request at its scheduled time.
  const double cpu_start = CpuSeconds();
  const auto clock_start = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(50);
  // NowSeconds() reads the same steady clock.
  leg.start = std::chrono::duration<double>(clock_start.time_since_epoch()).count();
  int64_t late = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const Request& r = leg.schedule[i];
    // Sleep to just short of the send time, then spin: a late wake-up
    // would add the scheduler's jitter to every latency.
    const auto due =
        clock_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(r.at));
    std::this_thread::sleep_until(due - kSpinBeforeSend);
    while (std::chrono::steady_clock::now() < due) {
    }
    const double now = NowSeconds();
    leg.outcomes[i].sent = now;
    const double lateness = now - (leg.start + r.at);
    leg.max_late_s = std::max(leg.max_late_s, lateness);
    if (lateness > kLateToleranceS) ++late;
    if (!setup.clients[i % kConnections]->SendLine(r.line)) break;
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    const bool drained = cv.wait_for(
        lock, std::chrono::duration<double>(kDrainTimeoutS),
        [&] { return readers_done == kConnections; });
    if (!drained) {
      lock.unlock();
      tally->Check(false, "responses did not arrive before the drain timeout");
      setup.server->Shutdown();  // closes connections; readers see EOF
    }
  }
  for (std::thread& t : readers) t.join();
  leg.wall_seconds = NowSeconds() - leg.start;
  leg.cpu_seconds = CpuSeconds() - cpu_start;
  leg.late_share = total > 0 ? static_cast<double>(late) / total : 0.0;
  tally->Check(LatenessOk(leg.late_share, kMaxLateShare),
               "open-loop generator ran late: run invalid");

  for (std::size_t i = 0; i < total; ++i) {
    const Request& r = leg.schedule[i];
    const Outcome& out = leg.outcomes[i];
    if (!out.answered) {
      tally->Op(false, std::string(KindName(r.kind)) + " request unanswered");
      continue;
    }
    const double latency = out.received - (leg.start + r.at);
    leg.latency_ms.push_back(latency * 1e3);
    cfcm::StatusOr<JsonValue> parsed = JsonValue::Parse(out.response);
    if (!parsed.ok() || !ResponseOk(*parsed)) {
      tally->Op(false, std::string(KindName(r.kind)) + " request failed: " +
                           out.response.substr(0, 160));
      continue;
    }
    const JsonValue& response = *parsed;
    const JsonValue* cache = response.Find("cache");
    const std::string cache_state =
        cache != nullptr && cache->is_string() ? cache->as_string() : "";
    switch (r.kind) {
      case Kind::kHit: {
        ++leg.hits;
        leg.hit_us.push_back(latency * 1e6);
        tally->Op(cache_state == "hit" &&
                      CanonicalAnswer(response) ==
                          setup.hit_canonical[static_cast<std::size_t>(r.klass)],
                  "cache hit differs from the miss that filled it");
        break;
      }
      case Kind::kMiss: {
        leg.computing_ms.push_back(latency * 1e3);
        leg.miss_s[r.klass].push_back(latency);
        ++leg.misses;
        std::vector<NodeId> group;
        const JsonValue* cfcc = response.Find("cfcc");
        const bool ok = cache_state == "miss" && SelectionOf(response, &group) &&
                        ValidGroup(group, kK, r.n) && cfcc != nullptr &&
                        cfcc->is_number() && FinitePositive(cfcc->as_double());
        if (ok) leg.miss_cfcc[r.klass].push_back(cfcc->as_double());
        tally->Op(ok, "cache-miss solve returned an invalid group");
        break;
      }
      case Kind::kEvalExact:
      case Kind::kEvalProbed: {
        leg.computing_ms.push_back(latency * 1e3);
        const JsonValue* trace = response.Find("trace");
        tally->Op(trace != nullptr && trace->is_number() &&
                      FinitePositive(trace->as_double()),
                  "evaluate trace is not finite");
        break;
      }
    }
  }
  return leg;
}

// Per-class figures are averaged rather than pooled, so a pooled median
// cannot flip between classes of different cost.
double PerClass(const std::map<int, std::vector<double>>& samples,
                double (*reduce)(std::vector<double>)) {
  std::vector<double> per_class;
  for (const auto& [klass, values] : samples) per_class.push_back(reduce(values));
  return Mean(per_class);
}

double MeanOf(std::vector<double> samples) { return Mean(samples); }

/// Metrics-off and metrics-on legs of in-process hits over the pre-warmed
/// keys, interleaved; the median of the paired ratios is the overhead.
void ObsOverhead(Setup& setup, Result* result) {
  constexpr int kPairs = 7;
  constexpr int kPasses = 40;
  std::vector<double> ratios, off_legs, on_legs;
  auto leg = [&](bool enabled) {
    cfcm::obs::SetMetricsEnabled(enabled);
    const double t0 = NowSeconds();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const std::string& line : setup.hit_lines) {
        (void)setup.handler->HandleLine(line);
      }
    }
    return NowSeconds() - t0;
  };
  for (int pair = 0; pair < kPairs; ++pair) {
    // Alternate which leg runs first so drift does not favour either.
    double off = 0.0, on = 0.0;
    if (pair % 2 == 0) {
      off = leg(false);
      on = leg(true);
    } else {
      on = leg(true);
      off = leg(false);
    }
    off_legs.push_back(off);
    on_legs.push_back(on);
    ratios.push_back(on / off - 1.0);
  }
  cfcm::obs::SetMetricsEnabled(true);
  auto spread = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return (*hi - *lo) / Median(v);
  };
  const double overhead = Median(ratios);
  const double legs_spread = std::max(spread(off_legs), spread(on_legs));
  result->tally.Check(overhead >= -legs_spread,
                      "implausible obs overhead: metrics-on faster than "
                      "metrics-off by more than the legs' spread");
  result->Add("obs.overhead_pct", overhead * 100, "pct", kPairs);
}

}  // namespace

int RunServeMixed(const RunConfig& config, Result* result) {
  Spans::Get().set_enabled(false);
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    const double t0 = NowSeconds();
    auto built = BuildSetup(config.seed);
    setup_seconds.push_back(NowSeconds() - t0);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(*built);
  }
  result->Add("setup_s", Median(setup_seconds), "s", kSetups);
  result->env["server_workers"] = kServerWorkers;
  result->env["catalog_pool_workers"] = kCatalogThreads;
  result->env["executors"] = kServerWorkers;  // one per in-flight job
  result->env["connections"] = kConnections;
  result->env["offered_rate_per_s"] = kRatePerSecond;
  result->env["mix"] = JsonValue(JsonValue::Object{
      {"hit", kDeckHits}, {"miss", kDeckMisses},
      {"evaluate_exact", kDeckExact}, {"evaluate_probed", kDeckProbed}});

  const LegStats leg = RunLeg(config, *setup, 0, &result->tally);
  result->env["requests"] = static_cast<int64_t>(leg.schedule.size());
  result->env["generator_late_share"] = leg.late_share;
  result->env["cpu_per_wall"] = leg.cpu_seconds / leg.wall_seconds;
  result->env["generator_max_late_ms"] = leg.max_late_s * 1e3;
  result->env["late_tolerance_ms"] = kLateToleranceS * 1e3;
  result->env["max_late_share"] = kMaxLateShare;
  const auto requests = static_cast<int64_t>(leg.latency_ms.size());
  const double req_p50 = Median(leg.latency_ms);
  result->Add("req_p50_ms", req_p50, "ms", requests);
  result->Add("req_p99_ms", Percentile(leg.latency_ms, 0.99), "ms", requests);
  // A round here is one computing request (a miss or an evaluate): the
  // p90 of all requests would sit on the boundary between hits and
  // computing requests, and misses alone are too few for a p90.
  result->Add("round_p50_ms", Median(leg.computing_ms), "ms",
              static_cast<int64_t>(leg.computing_ms.size()));
  result->Add("round_p90_ms", Percentile(leg.computing_ms, 0.90), "ms",
              static_cast<int64_t>(leg.computing_ms.size()));
  result->Add("hit_p50_us", Median(leg.hit_us), "us",
              static_cast<int64_t>(leg.hit_us.size()));
  const int64_t misses = leg.misses;
  result->Add("solve_s", PerClass(leg.miss_s, Median), "s", misses);
  result->Add("solve_cpu_s", misses > 0 ? leg.cpu_seconds / misses : 0.0, "s",
              misses);
  result->Add("cfcc", PerClass(leg.miss_cfcc, MeanOf), "cfcc", misses);

  if (config.trace) {
    Spans::Get().set_enabled(true);
    const LegStats traced = RunLeg(config, *setup, 1, &result->tally);
    for (std::size_t i = 0; i < traced.schedule.size(); ++i) {
      const Outcome& out = traced.outcomes[i];
      if (!out.answered) continue;
      // NowSeconds() and span times read the same steady clock.
      const double scheduled = traced.start + traced.schedule[i].at;
      Spans::Get().Record(
          std::string("serve.request.") + KindName(traced.schedule[i].kind),
          static_cast<int64_t>(scheduled * 1e9),
          static_cast<int64_t>(out.received * 1e9), static_cast<int64_t>(i));
    }
    result->Add("bench.trace_overhead_pct",
                (Median(traced.latency_ms) / req_p50 - 1) * 100, "pct",
                static_cast<int64_t>(traced.latency_ms.size()));
    result->Add("runtime.cpu_per_wall", traced.cpu_seconds / traced.wall_seconds,
                "ratio");
    result->Add("runtime.executors", kCatalogThreads, "count");
    result->Add("serve.hit_share",
                static_cast<double>(traced.hits) /
                    static_cast<double>(traced.schedule.size()),
                "share", static_cast<int64_t>(traced.schedule.size()));

    // Parse / serialize on this leg's own request and response lines.
    {
      ScopedSpan span("serve.parse");
      for (const Request& r : traced.schedule) (void)JsonValue::Parse(r.line);
    }
    std::vector<JsonValue> responses;
    for (const Outcome& out : traced.outcomes) {
      if (out.answered) responses.push_back(*JsonValue::Parse(out.response));
    }
    {
      ScopedSpan span("serve.serialize");
      for (const JsonValue& r : responses) (void)r.Serialize();
    }
    result->Add("serve.parse_us",
                Spans::Get().TotalNs("serve.parse") / 1e3 / traced.schedule.size(),
                "us", static_cast<int64_t>(traced.schedule.size()));
    result->Add("serve.serialize_us",
                Spans::Get().TotalNs("serve.serialize") / 1e3 /
                    std::max<std::size_t>(1, responses.size()),
                "us", static_cast<int64_t>(responses.size()));

    // In-process hit against the same hit over loopback.
    std::vector<double> in_process;
    for (std::size_t key = 0; key < setup->hit_lines.size(); ++key) {
      const std::vector<double> s =
          HitProbe(*setup->handler, setup->hit_lines[key],
                   setup->hit_canonical[key], 20, &result->tally);
      in_process.insert(in_process.end(), s.begin(), s.end());
    }
    std::vector<double> loopback;
    for (int rep = 0; rep < 20; ++rep) {
      for (const std::string& line : setup->hit_lines) {
        ScopedSpan span("serve.loopback_hit", rep);
        const double t0 = NowSeconds();
        auto response = setup->clients[0]->Call(*JsonValue::Parse(line));
        loopback.push_back(NowSeconds() - t0);
        result->tally.Op(response.ok() && ResponseOk(*response),
                         "loopback hit failed");
      }
    }
    const double handle_hit_us = Median(in_process) * 1e6;
    result->Add("serve.handle_hit_us", handle_hit_us, "us",
                static_cast<int64_t>(in_process.size()));
    result->Add("serve.transport_us", Median(loopback) * 1e6 - handle_hit_us,
                "us", static_cast<int64_t>(loopback.size()));

    // Waiting: client latency minus the same request's in-process
    // service time, replayed with a cold cache for the non-hit requests.
    setup->handler->cache().Clear();
    std::vector<double> waits_ms;
    for (std::size_t i = 0; i < traced.schedule.size() && waits_ms.size() < 60; ++i) {
      const Request& r = traced.schedule[i];
      if (r.kind == Kind::kHit || !traced.outcomes[i].answered) continue;
      double service = 0.0;
      {
        ScopedSpan span("serve.replay", static_cast<int64_t>(i));
        (void)HandleTimed(*setup->handler, r.base, &service);
      }
      const double latency =
          traced.outcomes[i].received - (traced.start + r.at);
      waits_ms.push_back((latency - service) * 1e3);
    }
    result->Add("serve.wait_ms", Mean(waits_ms), "ms",
                static_cast<int64_t>(waits_ms.size()));
    // Re-fill the pre-warmed keys the overhead legs hit.
    for (const std::string& line : setup->hit_lines) {
      (void)setup->handler->HandleLine(line);
    }
    ObsOverhead(*setup, result);

    // linalg exact evaluation and the graph layer on this mix's graphs;
    // graph.build_ms is the three builds summed.
    std::map<std::string, cfcm::Graph> graphs;
    for (const GraphEntry& g : Graphs(config.seed)) {
      cfcm::StatusOr<cfcm::Graph> graph = cfcm::Graph{};
      {
        ScopedSpan span("graph.build");
        graph = cfcm::LoadGraphFromSpec(g.spec);
      }
      if (graph.ok()) graphs.emplace(g.name, std::move(*graph));
    }
    result->Add("graph.build_ms", Spans::Get().TotalNs("graph.build") / 1e6, "ms",
                3);
    const cfcm::Graph& ba400 = graphs.at("ba400");
    for (int rep = 0; rep < 5; ++rep) {
      ScopedSpan span("linalg.exact_eval", rep);
      auto trace = cfcm::TraceInverseSubmatrix(ba400, setup->groups.at("ba400"),
                                               cfcm::SolverBackend::kAuto);
      result->tally.Check(trace.ok() && FinitePositive(*trace),
                          "exact evaluation replay failed");
    }
    result->Add("linalg.exact_eval_ms",
                Median(Scaled(Spans::Get().DurationsNs("linalg.exact_eval"), 1e-6)),
                "ms", 5);
    SolverLayers(graphs.at("ba2000"), kK, kEps, config.seed,
                 kCatalogThreads, result);
  }

  // Mutations: 1-edge reweights of ba400 through HandleLine, as in the
  // other workloads; last, because they change ba400's fingerprint and so
  // its cache keys.
  const cfcm::Graph ba400 = *cfcm::LoadGraphFromSpec(Graphs(config.seed)[1].spec);
  const std::vector<DeltaStep> steps =
      ReweightSteps(ba400, "ba400", kMutateProbes, config.seed);
  const std::vector<double> mutates =
      MutateProbe(*setup->handler, steps, &result->tally);
  result->Add("mutate_p50_ms", Median(mutates) * 1e3, "ms",
              static_cast<int64_t>(mutates.size()));
  if (config.trace) MutationLayers(ba400, steps, result);
  return 0;
}

}  // namespace perfbench
