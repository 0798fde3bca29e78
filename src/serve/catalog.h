// Named, ref-counted registry of GraphSessions with lazy loading and
// LRU eviction under a byte budget (DESIGN.md §10).
#ifndef CFCM_SERVE_CATALOG_H_
#define CFCM_SERVE_CATALOG_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/session.h"
#include "graph/delta.h"

namespace cfcm::serve {

struct CatalogOptions {
  /// Soft ceiling on the summed memory_bytes() of resident sessions;
  /// 0 = unlimited. Loading past the budget evicts least-recently-used
  /// sessions (never the one being acquired), but a single graph larger
  /// than the whole budget still loads — the budget bounds hoarding, not
  /// the workload.
  std::size_t memory_budget_bytes = 0;

  /// Size of the one worker pool shared by every session in the catalog
  /// (0 = DefaultPoolWorkers(), one less than the hardware threads).
  /// Results never depend on it.
  int num_threads = 0;
};

/// Per-name view for `stats`.
struct CatalogSessionInfo {
  std::string name;
  std::string source;
  bool resident = false;
  bool mutated = false;   ///< diverged from its source spec via Mutate
  std::size_t bytes = 0;  ///< memory_bytes() of the loaded session
  uint64_t loads = 0;     ///< times this name was (re)loaded
  uint64_t epoch = 0;     ///< session mutation epoch (0 = as loaded)
};

struct CatalogStats {
  uint64_t loads = 0;      ///< graph loads, including eviction reloads
  uint64_t evictions = 0;  ///< sessions dropped by the byte budget
  uint64_t mutations = 0;  ///< deltas applied through Mutate
  std::size_t resident_bytes = 0;
  std::vector<CatalogSessionInfo> sessions;  ///< sorted by name
};

/// \brief Multi-graph session registry for one serving process.
///
/// Names map to source specs (LoadGraphFromSpec vocabulary); the graph
/// itself loads lazily on first Acquire and transparently reloads after
/// an eviction — callers never observe whether a session was resident.
/// Acquire hands out shared_ptr leases, so eviction only drops the
/// catalog's reference: jobs running on an evicted session finish
/// safely, and the memory is reclaimed when the last lease ends.
///
/// Sessions are mutable through Mutate (DESIGN.md §11): the delta
/// rebuilds the graph as a new immutable snapshot inside the session,
/// the byte budget is re-charged, and the entry is pinned from eviction
/// because its source spec no longer describes its contents.
///
/// All sessions run on one shared worker pool (CatalogOptions::
/// num_threads); loading happens outside the catalog lock, and two
/// concurrent Acquires of the same name coordinate so the graph is
/// loaded exactly once. Thread-safe.
class SessionCatalog {
 public:
  explicit SessionCatalog(CatalogOptions options = {});

  SessionCatalog(const SessionCatalog&) = delete;
  SessionCatalog& operator=(const SessionCatalog&) = delete;

  /// Registers `name` -> `source` without loading. Redefining an
  /// existing name with a *different* source is rejected (unload it
  /// first); redefining with the same source is a no-op.
  Status Define(const std::string& name, const std::string& source);

  /// Returns a lease on the named session, loading (or reloading) the
  /// graph from its source spec if it is not resident. Bumps the name's
  /// recency and then evicts least-recently-used *other* sessions while
  /// the budget is exceeded.
  StatusOr<std::shared_ptr<engine::GraphSession>> Acquire(
      const std::string& name);

  /// A successful mutation: the session lease plus the exact
  /// (snapshot, epoch) this delta installed — response builders report
  /// it instead of re-reading the session, which a concurrent mutation
  /// may already have moved past.
  struct MutateResult {
    std::shared_ptr<engine::GraphSession> session;
    engine::GraphSession::VersionedSnapshot installed;
    /// The snapshot this delta retired. The catalog also keeps it alive
    /// one mutation deep (Entry::predecessor), so warm solves admitted
    /// against the pre-mutation snapshot can still resolve their warm
    /// state — WarmStateFor matches by snapshot identity through a
    /// weak_ptr, which must not expire the instant the last in-flight
    /// job finishes.
    std::shared_ptr<const engine::GraphSnapshot> predecessor;
  };

  /// \brief Applies `delta` to the named session (loading it first if
  /// needed).
  ///
  /// The byte budget is re-charged with the post-mutation
  /// memory_bytes() — growth can trigger eviction of *other* sessions.
  /// A mutated session is pinned resident: its source spec no longer
  /// describes its contents, so an eviction-reload would silently undo
  /// the mutation. Because the pin makes it unevictable, a mutation is
  /// REJECTED up front when its projected post-delta footprint plus
  /// every other pinned session's charge exceeds the byte budget
  /// (unlike loads, whose overage is evictable and therefore
  /// transient); mutations of one graph serialize, so the projection
  /// always measures the latest snapshot. Unload/Forget still drop it
  /// (explicitly
  /// discarding the mutations; a later Acquire reloads the pristine
  /// source). In-flight jobs pinned to the pre-mutation snapshot are
  /// unaffected.
  StatusOr<MutateResult> Mutate(const std::string& name,
                                const GraphDelta& delta);

  /// Drops the resident session (if any) but keeps the definition; a
  /// later Acquire reloads from the source spec. NotFound for unknown
  /// names.
  Status Unload(const std::string& name);

  /// Removes the definition entirely (dropping any resident session).
  Status Forget(const std::string& name);

  /// Registered names, ascending.
  std::vector<std::string> Names() const;

  CatalogStats stats() const;

  /// True when resident bytes exceed a non-zero budget — the admin
  /// plane's readiness check; transient by design (eviction runs on the
  /// next Acquire).
  bool over_budget() const {
    std::lock_guard<std::mutex> lock(mu_);
    return options_.memory_budget_bytes > 0 &&
           resident_bytes_ > options_.memory_budget_bytes;
  }

  std::size_t memory_budget_bytes() const {
    return options_.memory_budget_bytes;
  }

  /// The pool shared by all catalog sessions.
  ThreadPool& pool() const { return *pool_; }

 private:
  struct Entry {
    std::string source;
    std::shared_ptr<engine::GraphSession> session;  // null = not resident
    // One-deep lease on the snapshot the latest Mutate retired; keeps
    // the session's predecessor warm slot resolvable (its weak target
    // stays lockable) until the next mutation or unload.
    std::shared_ptr<const engine::GraphSnapshot> predecessor;
    std::size_t bytes = 0;
    uint64_t last_use = 0;    // catalog tick of the latest Acquire
    uint64_t loads = 0;
    uint64_t generation = 0;  // unique per Define: a loader must not
                              // install into a Forget+re-Define'd entry
                              // that merely reuses the name
    bool loading = false;  // one Acquire is loading; others wait on cv_
    bool mutated = false;  // diverged from source; pinned from eviction
    bool mutating = false;  // one Mutate is rebuilding; others wait on
                            // cv_, and the entry is pinned from
                            // eviction meanwhile
    std::size_t projected_bytes = 0;  // in-flight mutation's projected
                                      // post-delta footprint (budget
                                      // admission for OTHER mutators)
  };

  /// Evicts LRU resident entries (skipping `keep`) until the budget
  /// holds or nothing is evictable. Requires mu_ held.
  void EvictOverBudgetLocked(const std::string& keep);

  const CatalogOptions options_;
  ThreadPool* const pool_;  // process-shared, never owned

  mutable std::mutex mu_;
  std::condition_variable cv_;  // signals loading transitions
  std::map<std::string, Entry> entries_;
  std::size_t resident_bytes_ = 0;
  uint64_t tick_ = 0;
  uint64_t loads_ = 0;
  uint64_t evictions_ = 0;
  uint64_t mutations_ = 0;
  uint64_t next_generation_ = 1;
};

}  // namespace cfcm::serve

#endif  // CFCM_SERVE_CATALOG_H_
