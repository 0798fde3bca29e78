#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/build_info.h"
#include "common/timer.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace cfcm::serve {

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServeHandler* handler, ServerOptions options)
    : handler_(handler), options_(std::move(options)) {
  handler_->set_admission_stats(&stats_);
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::IoError(std::string("bind ") + options_.host + ":" +
                                    std::to_string(options_.port) + ": " +
                                    std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  // Bring the admin plane up BEFORE workers/acceptor so a failed admin
  // bind aborts cleanly (nothing else to unwind yet) and /healthz can
  // answer from the first instant the data port accepts.
  if (options_.admin_port >= 0) {
    watchdog_ = std::make_unique<obs::Watchdog>(
        obs::Watchdog::Options{options_.watchdog_interval_ms});
    watchdog_->AddSampler("server", [this] { SampleGauges(); });
    if (obs::SloTracker* slo = handler_->slo_tracker()) {
      watchdog_->AddSampler("slo", [slo] { slo->Tick(MonotonicNanos()); });
    }
    AdminHooks hooks;
    hooks.refresh = [this] { watchdog_->TickOnce(); };
    hooks.ready = [this](std::string* reason) { return Ready(reason); };
    hooks.statusz = [this](JsonValue::Object* status) { FillStatusz(status); };
    hooks.flight = handler_->flight_recorder();
    admin_ = std::make_unique<AdminPlane>(
        std::move(hooks),
        AdminPlaneOptions{options_.host, options_.admin_port, 5});
    std::string admin_error;
    if (!admin_->Start(&admin_error)) {
      admin_.reset();
      watchdog_.reset();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::IoError(admin_error);
    }
    watchdog_->Start();
  }

  {
    // Under mu_: admin connection threads may already be calling Ready().
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  obs::LogEvent(obs::LogLevel::kInfo, "listening")
      .Str("host", options_.host)
      .Int("port", port_)
      .Int("admin_port", admin_port())
      .Int("workers", options_.num_workers);
  return Status::Ok();
}

std::size_t Server::queue_high_watermark() const {
  if (options_.queue_high_watermark > 0) {
    return std::min(options_.queue_high_watermark, options_.max_queue);
  }
  return std::max<std::size_t>(1, 3 * options_.max_queue / 4);
}

bool Server::Ready(std::string* reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      if (reason != nullptr) *reason = "not_accepting";
      return false;
    }
    if (queue_.size() >= queue_high_watermark()) {
      if (reason != nullptr) *reason = "queue_high_watermark";
      return false;
    }
  }
  // Outside mu_: the catalog has its own lock.
  if (handler_->catalog().over_budget()) {
    if (reason != nullptr) *reason = "catalog_over_budget";
    return false;
  }
  return true;
}

void Server::FillStatusz(JsonValue::Object* status) {
  const BuildInfo& build = GetBuildInfo();
  (*status)["build"] = JsonValue(JsonValue::Object{
      {"version", build.version},
      {"compiler", build.compiler},
      {"build_type", build.build_type},
      {"cxx_standard", build.cxx_standard},
  });
  (*status)["uptime_s"] = obs::ProcessUptimeSeconds();

  std::string reason;
  const bool ready = Ready(&reason);
  (*status)["ready"] = ready;
  if (!ready) (*status)["not_ready_reason"] = reason;

  std::size_t queue_depth;
  std::size_t in_flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = queue_.size();
    in_flight = in_flight_;
  }
  (*status)["config"] = JsonValue(JsonValue::Object{
      {"host", options_.host},
      {"port", port_},
      {"admin_port", admin_port()},
      {"workers", options_.num_workers},
      {"max_queue", static_cast<int64_t>(options_.max_queue)},
      {"queue_high_watermark", static_cast<int64_t>(queue_high_watermark())},
      {"max_line_bytes", static_cast<int64_t>(options_.max_line_bytes)},
      {"slow_request_ms", options_.slow_request_ms},
      {"watchdog_interval_ms", options_.watchdog_interval_ms},
      {"pool_threads",
       static_cast<int64_t>(handler_->catalog().pool().num_threads())},
  });
  (*status)["queue"] = JsonValue(JsonValue::Object{
      {"depth", static_cast<int64_t>(queue_depth)},
      {"in_flight", static_cast<int64_t>(in_flight)},
  });
  (*status)["admission"] = JsonValue(JsonValue::Object{
      {"connections", stats_.connections.load(std::memory_order_relaxed)},
      {"accepted", stats_.accepted.load(std::memory_order_relaxed)},
      {"rejected", stats_.rejected.load(std::memory_order_relaxed)},
      {"served", stats_.served.load(std::memory_order_relaxed)},
  });

  const CatalogStats catalog = handler_->catalog().stats();
  JsonValue::Array sessions;
  for (const CatalogSessionInfo& info : catalog.sessions) {
    sessions.push_back(JsonValue(JsonValue::Object{
        {"name", info.name},
        {"resident", info.resident},
        {"mutated", info.mutated},
        {"bytes", static_cast<int64_t>(info.bytes)},
        {"epoch", static_cast<int64_t>(info.epoch)},
    }));
  }
  (*status)["catalog"] = JsonValue(JsonValue::Object{
      {"resident_bytes", static_cast<int64_t>(catalog.resident_bytes)},
      {"budget_bytes",
       static_cast<int64_t>(handler_->catalog().memory_budget_bytes())},
      {"sessions", JsonValue(std::move(sessions))},
  });

  const ResultCacheStats cache = handler_->cache().stats();
  (*status)["cache"] = JsonValue(JsonValue::Object{
      {"entries", cache.entries},
      {"capacity", cache.capacity},
      {"hits", cache.hits},
      {"misses", cache.misses},
  });

  if (obs::FlightRecorder* flight = handler_->flight_recorder()) {
    (*status)["flight"] = JsonValue(JsonValue::Object{
        {"capacity", static_cast<int64_t>(flight->options().capacity)},
        {"pinned_capacity",
         static_cast<int64_t>(flight->options().pinned_capacity)},
        {"slow_us", flight->options().slow_us},
        {"committed", flight->committed()},
    });
  }
  if (obs::SloTracker* slo = handler_->slo_tracker()) {
    JsonValue::Array objectives;
    for (const obs::SloObjective& objective : slo->objectives()) {
      objectives.push_back(JsonValue(JsonValue::Object{
          {"op", objective.op},
          {"threshold_us", objective.threshold_us},
      }));
    }
    (*status)["slo"] = JsonValue(std::move(objectives));
  }
}

void Server::SampleGauges() {
  auto& registry = obs::MetricsRegistry::Global();
  std::size_t queue_depth;
  std::size_t in_flight;
  bool accepting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth = queue_.size();
    in_flight = in_flight_;
    accepting = started_ && !stopping_;
  }
  registry.gauge("serve.queue.depth")
      .Set(static_cast<int64_t>(queue_depth));
  registry.gauge("serve.queue.high_watermark")
      .Set(static_cast<int64_t>(queue_high_watermark()));
  registry.gauge("serve.workers.in_flight")
      .Set(static_cast<int64_t>(in_flight));
  registry.gauge("serve.workers.total").Set(options_.num_workers);
  registry.gauge("serve.accepting").Set(accepting ? 1 : 0);
  registry.gauge("serve.pool.threads")
      .Set(static_cast<int64_t>(handler_->catalog().pool().num_threads()));

  const CatalogStats catalog = handler_->catalog().stats();
  registry.gauge("catalog.bytes")
      .Set(static_cast<int64_t>(catalog.resident_bytes));
  registry.gauge("catalog.budget_bytes")
      .Set(static_cast<int64_t>(handler_->catalog().memory_budget_bytes()));
  registry.gauge("catalog.sessions")
      .Set(static_cast<int64_t>(catalog.sessions.size()));
  for (const CatalogSessionInfo& info : catalog.sessions) {
    registry.gauge("serve.session." + info.name + ".epoch")
        .Set(static_cast<int64_t>(info.epoch));
  }

  registry.gauge("serve.cache.entries")
      .Set(static_cast<int64_t>(handler_->cache().stats().entries));
}

void Server::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed during shutdown (or fatal error)
    }
    // Responses are single small writes: send each one at once instead
    // of holding it back for the peer's delayed ACK (Nagle).
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    if (options_.write_timeout_seconds > 0) {
      timeval timeout{};
      timeout.tv_sec = options_.write_timeout_seconds;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    }
    auto connection = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;  // raced with shutdown: Connection dtor closes fd
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    // Closed connections drop their weak_ptr entries here, so the vector
    // tracks live connections, not all-time accepts.
    std::erase_if(connections_,
                  [](const std::weak_ptr<Connection>& w) { return w.expired(); });
    connections_.push_back(connection);
    {
      std::lock_guard<std::mutex> reader_lock(reader_sync_->mu);
      ++reader_sync_->active;
    }
    std::thread([this, sync = reader_sync_,
                 connection = std::move(connection)]() mutable {
      ReadConnection(std::move(connection));
      std::lock_guard<std::mutex> reader_lock(sync->mu);
      --sync->active;
      sync->cv.notify_all();
    }).detach();
  }
}

void Server::ReadConnection(std::shared_ptr<Connection> connection) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    Timer recv_timer;
    const ssize_t got = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (got <= 0) return;  // EOF, peer reset, or fd shut down by Shutdown()
    // Attributed to every line this chunk completes; includes the wait
    // for the client to send, so it is the client-visible read phase.
    const int64_t read_ns = recv_timer.Nanos();
    buffer.append(chunk, static_cast<std::size_t>(got));
    if (buffer.size() > options_.max_line_bytes) {
      WriteResponse(*connection,
                    MakeErrorResponse(
                        Status::InvalidArgument("request line too long"),
                        nullptr));
      return;
    }
    std::size_t start = 0;
    std::size_t newline;
    while ((newline = buffer.find('\n', start)) != std::string::npos) {
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      bool admitted = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!stopping_ && queue_.size() < options_.max_queue) {
          queue_.push_back(
              Task{connection, std::move(line), read_ns, MonotonicNanos()});
          admitted = true;
        }
      }
      if (admitted) {
        stats_.accepted.fetch_add(1, std::memory_order_relaxed);
        queue_cv_.notify_one();
      } else {
        // Explicit backpressure: reject now, never block the reader.
        stats_.rejected.fetch_add(1, std::memory_order_relaxed);
        obs::LogEvent(obs::LogLevel::kWarn, "over_capacity")
            .Int("queue", static_cast<int64_t>(options_.max_queue));
        WriteResponse(*connection, MakeOverCapacityResponse());
      }
    }
    buffer.erase(0, start);
  }
}

void Server::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || workers_stop_; });
      if (queue_.empty()) return;  // workers_stop_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    static obs::LatencyHistogram* const queue_wait_us =
        &obs::MetricsRegistry::Global().histogram("serve.queue_wait_us");
    RequestInfo info;
    info.read_ns = task.read_ns;
    info.queue_wait_ns = MonotonicNanos() - task.enqueued_ns;
    queue_wait_us->Record(info.queue_wait_ns / 1000);

    RequestOutcome outcome;
    Timer handle_timer;
    const JsonValue response = handler_->HandleLine(task.line, info, &outcome);
    const int64_t total_us =
        (info.read_ns + info.queue_wait_ns) / 1000 + handle_timer.Micros();
    WriteResponse(*task.connection, response);
    stats_.served.fetch_add(1, std::memory_order_relaxed);

    const bool slow = options_.slow_request_ms > 0 &&
                      total_us >= options_.slow_request_ms * 1000;
    if (slow || obs::MinLogLevel() <= obs::LogLevel::kDebug) {
      obs::LogEvent event(slow ? obs::LogLevel::kWarn : obs::LogLevel::kDebug,
                          slow ? "slow_request" : "request");
      event.Str("op", outcome.op)
          .Bool("ok", outcome.ok)
          .Int("total_us", total_us)
          .Int("queue_us", info.queue_wait_ns / 1000);
      if (!outcome.ok) event.Str("error", outcome.error_code);
      if (!outcome.trace_id.empty()) event.Str("trace_id", outcome.trace_id);
    }
    const bool shutdown_op = handler_->shutdown_requested();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
      if (shutdown_op && !shutdown_signal_) {
        shutdown_signal_ = true;
        shutdown_cv_.notify_all();
      }
    }
  }
}

void Server::WriteResponse(Connection& connection, const JsonValue& response) {
  std::string line = response.Serialize();
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(connection.write_mu);
  std::size_t sent = 0;
  while (sent < line.size()) {
    // MSG_NOSIGNAL: a peer that hung up must not SIGPIPE the server.
    const ssize_t wrote = ::send(connection.fd, line.data() + sent,
                                 line.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) return;  // peer gone; response is moot
    sent += static_cast<std::size_t>(wrote);
  }
}

void Server::Wait() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_cv_.wait(lock, [this] { return shutdown_signal_ || stopping_; });
  }
  Shutdown();
}

void Server::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!started_) {
      finished_ = true;
      return;
    }
    if (stopping_) {
      // Another thread is already shutting down; wait for it to finish.
      shutdown_cv_.wait(lock, [this] { return finished_; });
      return;
    }
    stopping_ = true;  // readers stop admitting from here on
    shutdown_signal_ = true;
    shutdown_cv_.notify_all();
  }

  // 1. Stop accepting: close the listener to unblock accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  acceptor_.join();

  // 2. Drain: every admitted request still gets executed and answered.
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (workers_.empty()) {
      queue_.clear();  // admit-only test mode: nothing will drain it
    }
    drained_cv_.wait(lock,
                     [this] { return queue_.empty() && in_flight_ == 0; });
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();

  // 3. Unblock readers (they sit in recv) and wait for every detached
  // reader to finish — after this no thread touches the server again.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& weak : connections_) {
      if (auto connection = weak.lock()) {
        ::shutdown(connection->fd, SHUT_RDWR);
      }
    }
  }
  {
    std::unique_lock<std::mutex> reader_lock(reader_sync_->mu);
    reader_sync_->cv.wait(reader_lock,
                          [this] { return reader_sync_->active == 0; });
  }

  // 4. Take down the admin plane LAST among the listeners: /healthz and
  // /readyz keep answering through the drain (readiness already flipped
  // to 503 when stopping_ was set), so a router sees the replica leave
  // rotation before the health endpoint disappears.
  if (admin_ != nullptr) admin_->Shutdown();
  if (watchdog_ != nullptr) watchdog_->Stop();

  std::lock_guard<std::mutex> lock(mu_);
  connections_.clear();
  finished_ = true;
  shutdown_cv_.notify_all();
}

}  // namespace cfcm::serve
