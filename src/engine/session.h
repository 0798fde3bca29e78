// Graph session: one loaded graph plus cached derived state shared by
// every job served against it. Since DESIGN.md §11 the graph is no
// longer frozen at load time: the session holds a sequence of immutable
// snapshots and Mutate(delta) swaps in the next one.
#ifndef CFCM_ENGINE_SESSION_H_
#define CFCM_ENGINE_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cfcm/incremental.h"
#include "common/thread_pool.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "linalg/csr.h"

namespace cfcm::engine {

/// The deterministic session footprint of a graph with `n` nodes and
/// `m` undirected edges — the closed-form behind
/// GraphSnapshot::memory_bytes(), exposed so the serving catalog can
/// project a mutation's post-delta charge BEFORE paying for the
/// rebuild.
std::size_t EstimateSessionBytes(NodeId n, EdgeId m, bool weighted);

/// \brief One immutable graph version plus its lazily-built derived
/// state (connectivity, degree order, CSR Laplacian, content
/// fingerprint, memory charge).
///
/// A snapshot never changes after construction: mutation produces a NEW
/// snapshot via Graph::Apply, so derived caches are invalidated
/// wholesale by being snapshot-scoped — there is no per-field staleness
/// protocol to get wrong. Jobs pin the snapshot they start on with a
/// shared_ptr and are therefore immune to concurrent mutations.
///
/// All accessors are thread-safe (lazy construction happens under a
/// mutex) and idempotent.
class GraphSnapshot {
 public:
  explicit GraphSnapshot(Graph graph);

  const Graph& graph() const { return graph_; }
  NodeId num_nodes() const { return graph_.num_nodes(); }
  EdgeId num_edges() const { return graph_.num_edges(); }

  /// True if the graph is connected (computed once, cached).
  bool is_connected() const;

  /// Node ids by descending degree, ties broken by smaller id (cached).
  const std::vector<NodeId>& degree_order() const;

  /// Sparse weighted Laplacian L = D_w - A_w of the snapshot graph
  /// (cached); the unweighted L = D - A when the graph is unit-weighted.
  const CsrMatrix& laplacian() const;

  /// \brief 64-bit content fingerprint of the snapshot graph (FNV-1a
  /// over the CSR arrays and conductances), computed once and cached.
  ///
  /// Two snapshots over byte-identical graphs share a fingerprint, so it
  /// is the graph component of serving-layer cache keys: per-seed
  /// bitwise-deterministic solves make (fingerprint, algorithm, k, eps,
  /// seed) fully identify a solve result, across mutations — a mutation
  /// changes the bytes and therefore the key, and reverting restores
  /// both (DESIGN.md §10–11).
  uint64_t fingerprint() const;

  /// \brief Deterministic resident footprint in bytes: the graph's CSR
  /// arrays plus every lazy cache *as if materialized* (Laplacian,
  /// degree order, connectivity flag).
  ///
  /// Counting caches up front makes the value a pure function of
  /// (n, m, weighted) — the serving catalog charges it against its byte
  /// budget before any cache is built, and the charge never drifts as
  /// caches fill in. Mutation re-derives it on the new snapshot, so the
  /// catalog can re-charge exactly.
  std::size_t memory_bytes() const;

 private:
  const Graph graph_;

  mutable std::mutex mu_;
  mutable std::optional<bool> connected_;
  mutable std::optional<std::vector<NodeId>> degree_order_;
  mutable std::optional<CsrMatrix> laplacian_;
  mutable std::optional<uint64_t> fingerprint_;
};

/// \brief A versioned graph plus the worker pool shared by every job
/// served against it (DESIGN.md §6, §11).
///
/// A session outlives any number of jobs: expensive derived structures
/// live on the current GraphSnapshot and are built once on first use,
/// so repeated queries never re-pay setup costs. Mutate(delta) swaps in
/// a new snapshot under the session mutex and bumps the epoch; jobs
/// that pinned the previous snapshot (Engine does this at job start)
/// finish against it untouched, while new jobs observe the new graph.
///
/// The convenience accessors (graph(), laplacian(), ...) read the
/// *current* snapshot. References they return stay valid until the next
/// Mutate — concurrent readers that must survive mutations hold
/// snapshot() instead. The worker pool is epoch-independent and is
/// deliberately NOT invalidated by mutations.
class GraphSession {
 public:
  /// Takes ownership of `graph`. `num_threads` sizes the shared pool
  /// (0 = DefaultPoolWorkers()); the pool itself is created on first use.
  explicit GraphSession(Graph graph, int num_threads = 0);

  /// Variant that runs on a borrowed pool instead of owning one — the
  /// serving catalog creates every session with one shared pool so N
  /// loaded graphs never hold N idle worker sets. `shared_pool` must
  /// outlive the session.
  GraphSession(Graph graph, ThreadPool* shared_pool);

  /// Pins the current snapshot. Jobs hold the returned shared_ptr for
  /// their whole run: a concurrent Mutate cannot change — or free —
  /// what a pinned job computes on.
  std::shared_ptr<const GraphSnapshot> snapshot() const;

  /// Number of mutations applied so far; bumped by every successful
  /// Mutate. Stale derived values cannot leak across a bump because
  /// they live on the snapshot the epoch identifies.
  uint64_t epoch() const;

  /// A snapshot together with the epoch that produced it.
  struct VersionedSnapshot {
    std::shared_ptr<const GraphSnapshot> snapshot;
    uint64_t epoch = 0;
  };

  /// Atomically pins the current snapshot AND its epoch — one locked
  /// read, so callers reporting both (the serve layer's response
  /// summaries) can never pair epoch N with epoch-N+1 graph state.
  VersionedSnapshot versioned_snapshot() const;

  /// \brief Applies `delta` to the current graph and swaps in the
  /// resulting snapshot (copy-on-write; all-or-nothing).
  ///
  /// On success the epoch is bumped, every snapshot-derived value
  /// (connectivity, degree order, Laplacian, fingerprint, memory_bytes)
  /// is re-derived lazily on the new snapshot, and the INSTALLED
  /// (snapshot, epoch) pair is returned — callers reporting what their
  /// delta produced use it rather than re-reading the session, which a
  /// concurrent mutation may already have moved past. On failure the
  /// session is unchanged. Mutations serialize against each other;
  /// readers are only blocked for the pointer swap, not the rebuild.
  StatusOr<VersionedSnapshot> Mutate(const GraphDelta& delta);

  // ---- convenience accessors over the current snapshot ----
  const Graph& graph() const { return snapshot()->graph(); }
  NodeId num_nodes() const { return snapshot()->num_nodes(); }
  EdgeId num_edges() const { return snapshot()->num_edges(); }
  bool is_weighted() const { return !graph().is_unit_weighted(); }
  double total_weight() const { return graph().total_weight(); }
  bool is_connected() const { return snapshot()->is_connected(); }
  const std::vector<NodeId>& degree_order() const {
    return snapshot()->degree_order();
  }
  const CsrMatrix& laplacian() const { return snapshot()->laplacian(); }
  uint64_t fingerprint() const { return snapshot()->fingerprint(); }
  std::size_t memory_bytes() const { return snapshot()->memory_bytes(); }

  /// Shared worker pool, created on first use (or the borrowed pool when
  /// the session was constructed with one). Survives mutations.
  ThreadPool& pool() const;

  // ---- incremental warm state (DESIGN.md §16) ----

  /// \brief Retains the warm state a solve produced against `target`.
  ///
  /// Kept only while `target` is the current snapshot or the one-deep
  /// predecessor slot's target; a deposit against an older snapshot is
  /// dropped (its delta summary can no longer be brought current).
  void DepositWarmState(const std::shared_ptr<const GraphSnapshot>& target,
                        std::shared_ptr<const cfcm::WarmState> state);

  /// The warm state targeting exactly `snap` (the current snapshot or
  /// the one-deep predecessor), or null. Jobs pass the snapshot they
  /// pinned, so a solve admitted just before a Mutate still finds the
  /// state that matches its graph.
  std::shared_ptr<const cfcm::WarmState> WarmStateFor(
      const GraphSnapshot* snap) const;

  /// \brief One epoch transition's staleness-bound record.
  ///
  /// A reweight-only delta with per-edge conductance ratios
  /// rho_e = w'_e / w_e satisfies a·L ⪯ L' ⪯ b·L with a = min(1, min
  /// rho) and b = max(1, max rho) (Loewner order), hence
  /// C'(S) ∈ [a·C(S), b·C(S)] for every group — the factors compose
  /// multiplicatively across epochs. Structural deltas are not
  /// boundable this way and carry boundable = false.
  struct EpochRecord {
    uint64_t epoch = 0;               ///< the epoch this record created
    uint64_t parent_fingerprint = 0;  ///< fingerprint of epoch - 1
    double cfcc_lo = 1.0;             ///< factor a (≤ 1)
    double cfcc_hi = 1.0;             ///< factor b (≥ 1)
    bool boundable = false;
  };

  /// Recent epoch transitions, newest first (bounded ring). The serve
  /// layer's staleness cache mode walks this to find a ≤E-epoch-old
  /// cached answer and attach the composed bound.
  std::vector<EpochRecord> EpochHistory() const;

 private:
  struct WarmSlot {
    std::weak_ptr<const GraphSnapshot> target;
    std::shared_ptr<const cfcm::WarmState> state;
  };

  const int num_threads_;
  ThreadPool* const shared_pool_ = nullptr;  ///< borrowed; owns none

  mutable std::mutex mu_;         ///< guards snapshot_/epoch_/pool_/warm
  std::mutex mutate_mu_;          ///< serializes mutators (rebuild phase)
  std::shared_ptr<const GraphSnapshot> snapshot_;  ///< never null
  uint64_t epoch_ = 0;
  mutable std::unique_ptr<ThreadPool> pool_;
  WarmSlot warm_;        ///< state for the current snapshot
  WarmSlot prev_warm_;   ///< one-deep predecessor (in-flight warm jobs)
  std::deque<EpochRecord> history_;  ///< newest first, capped
};

}  // namespace cfcm::engine

#endif  // CFCM_ENGINE_SESSION_H_
