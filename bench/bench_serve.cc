// Loopback throughput bench for the serving layer: an in-process daemon
// on an ephemeral port, hammered by C client connections issuing solve
// requests. Two phases per graph — a cold phase of distinct seeds
// (every request computes) and a hot phase replaying the same seeds
// (every request is a cache hit) — so the JSON rows separate solver
// throughput from serving-stack overhead. Each phase also records every
// request's client-visible latency into a log2 histogram and reports
// p50/p95/p99/max alongside throughput.
//
// An admin_scrape phase prices the diagnostics plane (DESIGN.md §15):
// with cache-hit traffic running in the background, it scrapes the
// admin HTTP /metrics endpoint repeatedly and reports scrape latency as
// its own row.
//
// Instrumentation overhead is not measured here: the repo benchmark's
// obs.overhead_pct (interleaved metrics-off/on pairs over pre-warmed
// keys, perfbench/) is the measurement of record (DESIGN.md §12).
//
//   bench_serve [--smoke] [--json BENCH_serve.json]
//               [--connections C] [--requests N]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using cfcm::Timer;
using cfcm::bench::LatencyJson;
using cfcm::obs::LatencyHistogram;
using cfcm::serve::HandlerOptions;
using cfcm::serve::JsonValue;
using cfcm::serve::ServeClient;
using cfcm::serve::ServeHandler;
using cfcm::serve::Server;
using cfcm::serve::ServerOptions;

struct PhaseRow {
  std::string graph;
  std::string phase;  // "cold", "hot" or "admin_scrape"
  int connections = 0;
  int requests = 0;
  double seconds = 0.0;
  double rps = 0.0;
  long long cache_hits = 0;
  LatencyHistogram::Snapshot latency;  // client-visible request latency
};

// Each connection thread sends `per_connection` solve requests, seeds
// chosen so the whole phase covers [seed_base, seed_base + requests).
// Per-request round-trip times are recorded into `latency` (the
// histogram's lock-free Record makes one shared instance safe across
// connection threads).
void RunPhase(int port, const std::string& graph, int connections,
              int per_connection, uint64_t seed_base,
              LatencyHistogram& latency, PhaseRow* row) {
  Timer phase_timer;
  std::vector<std::thread> threads;
  std::vector<int> failures(static_cast<std::size_t>(connections), 0);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([=, &failures, &latency] {
      auto client = ServeClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures[static_cast<std::size_t>(c)] = per_connection;
        return;
      }
      for (int i = 0; i < per_connection; ++i) {
        const uint64_t seed =
            seed_base + static_cast<uint64_t>(c * per_connection + i);
        const std::string request =
            R"({"op":"solve","graph":")" + graph +
            R"(","algorithm":"forest","k":3,"eps":0.3,"seed":)" +
            std::to_string(seed) + "}";
        Timer request_timer;
        if (!client->SendLine(request).ok() || !client->ReadLine().ok()) {
          ++failures[static_cast<std::size_t>(c)];
        } else {
          latency.Record(request_timer.Micros());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = phase_timer.Seconds();
  row->connections = connections;
  row->requests = connections * per_connection;
  for (int f : failures) row->requests -= f;  // report successes only
  row->seconds = seconds;
  row->rps = seconds > 0 ? row->requests / seconds : 0.0;
  row->latency = latency.snapshot();
}

// Minimal blocking HTTP/1.1 GET against the admin plane; returns the
// full response (headers + body), or "" on any socket error.
std::string HttpGet(int port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = std::string("GET ") + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  int connections = 4;
  int per_connection = 32;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      per_connection = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json <path>] [--connections C] "
                   "[--requests N-per-connection]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    connections = 2;
    per_connection = 8;
  }

  // Suite: one small and one mid-size graph (smoke keeps just karate).
  std::vector<std::pair<std::string, std::string>> graphs = {
      {"karate", "karate"}};
  if (!smoke) graphs.emplace_back("ba2000", "ba:2000,4,1");

  HandlerOptions handler_options;
  ServeHandler handler{handler_options};
  ServerOptions server_options;
  server_options.num_workers = 4;
  server_options.max_queue = 256;
  server_options.admin_port = 0;  // ephemeral, for the admin_scrape phase
  server_options.watchdog_interval_ms = 0;  // scrape-driven sampling only
  Server server{&handler, server_options};
  if (!server.Start().ok()) {
    std::fprintf(stderr, "bench_serve: failed to start server\n");
    return 1;
  }

  std::printf("# bench_serve: loopback serving throughput\n");
  std::printf("# connections=%d requests_per_connection=%d workers=%d\n",
              connections, per_connection, server_options.num_workers);
  std::printf("%-8s %-5s %6s %8s %9s %10s %6s %8s %8s %8s\n", "graph",
              "phase", "conns", "requests", "seconds", "req/s", "hits",
              "p50_us", "p99_us", "max_us");

  std::vector<PhaseRow> rows;
  for (const auto& [name, spec] : graphs) {
    {
      auto client = ServeClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) return 1;
      const std::string load =
          R"({"op":"load","graph":")" + name + R"(","source":")" + spec +
          "\"}";
      (void)client->SendLine(load);
      (void)client->ReadLine();
    }
    for (const char* phase : {"cold", "hot"}) {
      PhaseRow row;
      row.graph = name;
      row.phase = phase;
      const auto before = handler.cache().stats();
      // The hot phase replays the cold phase's seed range, so every
      // request is answerable from the cache.
      LatencyHistogram latency;
      RunPhase(server.port(), name, connections, per_connection,
               /*seed_base=*/1, latency, &row);
      const auto after = handler.cache().stats();
      row.cache_hits = static_cast<long long>(after.hits - before.hits);
      std::printf(
          "%-8s %-5s %6d %8d %9.3f %10.1f %6lld %8lld %8lld %8lld\n",
          row.graph.c_str(), row.phase.c_str(), row.connections,
          row.requests, row.seconds, row.rps, row.cache_hits,
          static_cast<long long>(row.latency.Percentile(0.50)),
          static_cast<long long>(row.latency.Percentile(0.99)),
          static_cast<long long>(row.latency.max));
      rows.push_back(row);
    }
  }

  // Admin-scrape phase: cache-hit traffic keeps hammering in the
  // background while we repeatedly GET /metrics off the admin plane, so
  // the scrape latency row reflects a loaded daemon, not an idle one.
  {
    const std::string& scrape_graph = graphs.front().first;
    const int scrapes = smoke ? 32 : 200;
    PhaseRow row;
    row.graph = scrape_graph;
    row.phase = "admin_scrape";
    std::atomic<bool> stop_traffic{false};
    std::thread traffic([&] {
      auto client = ServeClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) return;
      uint64_t i = 0;
      while (!stop_traffic.load(std::memory_order_acquire)) {
        const uint64_t seed =
            1 + i++ % static_cast<uint64_t>(connections * per_connection);
        const std::string request =
            R"({"op":"solve","graph":")" + scrape_graph +
            R"(","algorithm":"forest","k":3,"eps":0.3,"seed":)" +
            std::to_string(seed) + "}";
        if (!client->SendLine(request).ok() || !client->ReadLine().ok()) break;
      }
    });
    LatencyHistogram scrape_latency;
    Timer scrape_timer;
    int ok_scrapes = 0;
    for (int i = 0; i < scrapes; ++i) {
      Timer one;
      const std::string response = HttpGet(server.admin_port(), "/metrics");
      if (response.find("200 OK") != std::string::npos &&
          response.find("# TYPE") != std::string::npos) {
        scrape_latency.Record(one.Micros());
        ++ok_scrapes;
      }
    }
    const double seconds = scrape_timer.Seconds();
    stop_traffic.store(true, std::memory_order_release);
    traffic.join();
    row.connections = 1;
    row.requests = ok_scrapes;
    row.seconds = seconds;
    row.rps = seconds > 0 ? ok_scrapes / seconds : 0.0;
    row.latency = scrape_latency.snapshot();
    std::printf("%-8s %-12s %6d %8d %9.3f %10.1f %6lld %8lld %8lld %8lld\n",
                row.graph.c_str(), row.phase.c_str(), row.connections,
                row.requests, row.seconds, row.rps, row.cache_hits,
                static_cast<long long>(row.latency.Percentile(0.50)),
                static_cast<long long>(row.latency.Percentile(0.99)),
                static_cast<long long>(row.latency.max));
    if (ok_scrapes != scrapes) {
      std::fprintf(stderr, "bench_serve: only %d/%d /metrics scrapes ok\n",
                   ok_scrapes, scrapes);
      server.Shutdown();
      return 1;
    }
    rows.push_back(row);
  }

  server.Shutdown();

  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"benchmark\": \"serve_loopback\",\n"
                 "  \"smoke\": %s,\n  \"rows\": [\n",
                 smoke ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const PhaseRow& r = rows[i];
      std::fprintf(out,
                   "    {\"graph\":\"%s\",\"phase\":\"%s\","
                   "\"connections\":%d,\"requests\":%d,\"seconds\":%.6f,"
                   "\"rps\":%.1f,\"cache_hits\":%lld,\"latency\":%s}%s\n",
                   r.graph.c_str(), r.phase.c_str(), r.connections,
                   r.requests, r.seconds, r.rps, r.cache_hits,
                   LatencyJson(r.latency).c_str(),
                   i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("# wrote %zu serving perf rows to %s\n", rows.size(),
                json_path);
  }
  return 0;
}
