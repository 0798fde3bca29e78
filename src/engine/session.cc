#include "engine/session.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "graph/components.h"

namespace cfcm::engine {

namespace {

// FNV-1a, the standard 64-bit offset basis / prime.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

GraphSnapshot::GraphSnapshot(Graph graph) : graph_(std::move(graph)) {}

bool GraphSnapshot::is_connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!connected_.has_value()) connected_ = IsConnected(graph_);
  return *connected_;
}

const std::vector<NodeId>& GraphSnapshot::degree_order() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!degree_order_.has_value()) {
    std::vector<NodeId> order(graph_.num_nodes());
    std::iota(order.begin(), order.end(), NodeId{0});
    std::stable_sort(order.begin(), order.end(), [this](NodeId a, NodeId b) {
      return graph_.degree(a) != graph_.degree(b)
                 ? graph_.degree(a) > graph_.degree(b)
                 : a < b;
    });
    degree_order_ = std::move(order);
  }
  return *degree_order_;
}

const CsrMatrix& GraphSnapshot::laplacian() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!laplacian_.has_value()) {
    const NodeId n = graph_.num_nodes();
    std::vector<std::tuple<int, int, double>> triplets;
    triplets.reserve(static_cast<std::size_t>(n) +
                     graph_.raw_neighbors().size());
    for (NodeId u = 0; u < n; ++u) {
      triplets.emplace_back(u, u, graph_.weighted_degree(u));
      const auto adj = graph_.neighbors(u);
      const auto w = graph_.weights(u);
      for (std::size_t k = 0; k < adj.size(); ++k) {
        triplets.emplace_back(u, adj[k], w.empty() ? -1.0 : -w[k]);
      }
    }
    laplacian_ = CsrMatrix::FromTriplets(n, n, std::move(triplets));
  }
  return *laplacian_;
}

uint64_t GraphSnapshot::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!fingerprint_.has_value()) {
    const NodeId n = graph_.num_nodes();
    const EdgeId m = graph_.num_edges();
    uint64_t hash = kFnvOffset;
    hash = FnvMix(hash, &n, sizeof(n));
    hash = FnvMix(hash, &m, sizeof(m));
    hash = FnvMix(hash, graph_.offsets().data(),
                  graph_.offsets().size() * sizeof(EdgeId));
    hash = FnvMix(hash, graph_.raw_neighbors().data(),
                  graph_.raw_neighbors().size() * sizeof(NodeId));
    hash = FnvMix(hash, graph_.raw_weights().data(),
                  graph_.raw_weights().size() * sizeof(double));
    fingerprint_ = hash;
  }
  return *fingerprint_;
}

std::size_t EstimateSessionBytes(NodeId n_nodes, EdgeId m_edges,
                                 bool weighted) {
  const auto n = static_cast<std::size_t>(n_nodes);
  const std::size_t adjacency = 2 * static_cast<std::size_t>(m_edges);
  // Graph CSR: offsets + neighbors (+ weights and weighted degrees when
  // conductances are stored).
  std::size_t bytes = (n + 1) * sizeof(EdgeId) + adjacency * sizeof(NodeId);
  if (weighted) {
    bytes += adjacency * sizeof(double) + n * sizeof(double);
  }
  // Lazy caches at full materialization: CSR Laplacian (n + 2m entries of
  // value + column index, n + 1 row offsets) and the degree order.
  bytes += (n + adjacency) * (sizeof(double) + sizeof(int)) +
           (n + 1) * sizeof(EdgeId);
  bytes += n * sizeof(NodeId);
  return bytes;
}

std::size_t GraphSnapshot::memory_bytes() const {
  return EstimateSessionBytes(graph_.num_nodes(), graph_.num_edges(),
                              !graph_.is_unit_weighted());
}

GraphSession::GraphSession(Graph graph, int num_threads)
    : num_threads_(num_threads),
      snapshot_(std::make_shared<const GraphSnapshot>(std::move(graph))) {}

GraphSession::GraphSession(Graph graph, ThreadPool* shared_pool)
    : num_threads_(0),
      shared_pool_(shared_pool),
      snapshot_(std::make_shared<const GraphSnapshot>(std::move(graph))) {}

std::shared_ptr<const GraphSnapshot> GraphSession::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

uint64_t GraphSession::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

GraphSession::VersionedSnapshot GraphSession::versioned_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {snapshot_, epoch_};
}

namespace {

// Warm/staleness state kept per session is bounded: epoch records this
// deep cover any realistic "max_epochs" staleness request.
constexpr std::size_t kEpochHistoryCap = 64;

}  // namespace

StatusOr<GraphSession::VersionedSnapshot> GraphSession::Mutate(
    const GraphDelta& delta) {
  // Mutators serialize on mutate_mu_ so concurrent deltas compose
  // (second applies to first's result, no lost update); readers only
  // contend on mu_ for the pointer swap, never the CSR rebuild.
  std::lock_guard<std::mutex> mutate_lock(mutate_mu_);
  const std::shared_ptr<const GraphSnapshot> current = snapshot();

  // Staleness bound of this transition (needs PRE-delta conductances;
  // see EpochRecord). Only reweight-only deltas are boundable.
  EpochRecord record;
  record.boundable = delta.add_nodes() == 0 && delta.add_edges().empty() &&
                     delta.remove_edges().empty();
  if (record.boundable) {
    for (const auto& e : delta.reweight_edges()) {
      const double old_w = current->graph().EdgeWeight(e.u, e.v);
      if (!(old_w > 0.0)) {
        record.boundable = false;  // missing edge; Apply rejects below
        break;
      }
      const double ratio = e.weight / old_w;
      record.cfcc_lo = std::min(record.cfcc_lo, ratio);
      record.cfcc_hi = std::max(record.cfcc_hi, ratio);
    }
  }

  StatusOr<Graph> next = current->graph().Apply(delta);
  if (!next.ok()) return next.status();
  auto fresh = std::make_shared<const GraphSnapshot>(std::move(*next));
  record.parent_fingerprint = current->fingerprint();

  // Advance the warm state across the delta (the keep rule over the
  // retained forests; serialized with other mutators by mutate_mu_).
  std::shared_ptr<const cfcm::WarmState> advanced;
  {
    std::shared_ptr<const cfcm::WarmState> base;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (warm_.state != nullptr && warm_.target.lock() == current) {
        base = warm_.state;
      }
    }
    if (base != nullptr) {
      advanced = cfcm::AdvanceWarmState(*base, current->graph(), delta);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  snapshot_ = fresh;
  ++epoch_;
  record.epoch = epoch_;
  prev_warm_ = std::move(warm_);  // in-flight jobs pinned on `current`
  warm_ = WarmSlot{fresh, std::move(advanced)};
  history_.push_front(record);
  if (history_.size() > kEpochHistoryCap) history_.pop_back();
  return VersionedSnapshot{std::move(fresh), epoch_};
}

void GraphSession::DepositWarmState(
    const std::shared_ptr<const GraphSnapshot>& target,
    std::shared_ptr<const cfcm::WarmState> state) {
  if (state == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (target == snapshot_) {
    warm_ = WarmSlot{target, std::move(state)};
  } else if (prev_warm_.target.lock() == target) {
    prev_warm_.state = std::move(state);
  }
  // Older targets: the delta summary can no longer be brought current —
  // drop the deposit.
}

std::shared_ptr<const cfcm::WarmState> GraphSession::WarmStateFor(
    const GraphSnapshot* snap) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (warm_.state != nullptr && warm_.target.lock().get() == snap) {
    return warm_.state;
  }
  if (prev_warm_.state != nullptr && prev_warm_.target.lock().get() == snap) {
    return prev_warm_.state;
  }
  return nullptr;
}

std::vector<GraphSession::EpochRecord> GraphSession::EpochHistory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {history_.begin(), history_.end()};
}

ThreadPool& GraphSession::pool() const {
  if (shared_pool_ != nullptr) return *shared_pool_;
  std::lock_guard<std::mutex> lock(mu_);
  if (!pool_) {
    pool_ = std::make_unique<ThreadPool>(
        num_threads_ > 0 ? static_cast<std::size_t>(num_threads_) : 0);
  }
  return *pool_;
}

}  // namespace cfcm::engine
