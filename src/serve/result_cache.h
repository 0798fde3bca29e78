// Deterministic solve-result cache for the serving layer (DESIGN.md §10).
//
// Exact-hit caching is sound because every registered solver is bitwise
// deterministic per seed (DESIGN.md §9): the tuple
// (graph fingerprint, algorithm, k, eps, seed) fully determines the
// selected group and its score, so a cached entry can be replayed
// without re-running the solver and without any staleness protocol —
// graphs are immutable and content-addressed by fingerprint.
#ifndef CFCM_SERVE_RESULT_CACHE_H_
#define CFCM_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"

namespace cfcm::serve {

/// Identity of one solve: the graph content plus every input that can
/// change the (deterministic) output. Selection mode is part of the
/// identity even though lazy and exhaustive are pinned to the same
/// groups on the regression suite: their work counters (and, off the
/// pinned graphs, conceivably the groups) differ, and a cache must
/// never conflate two request shapes that the engine treats as inputs.
struct ResultCacheKey {
  uint64_t fingerprint = 0;  ///< GraphSession::fingerprint()
  std::string algorithm;
  int k = 0;
  double eps = 0.0;  ///< compared exactly (requests carry literal eps)
  uint64_t seed = 0;
  SelectionMode selection = SelectionMode::kLazy;
  /// Requested kernel (DESIGN.md §14): backends agree only to tolerance,
  /// so results computed under different backends never alias.
  SolverBackend solver_backend = SolverBackend::kAuto;

  bool operator==(const ResultCacheKey&) const = default;
};

/// The key of `job` solved on the graph whose content is `fingerprint`.
ResultCacheKey CacheKeyFor(uint64_t fingerprint, const engine::SolveJob& job);

/// Monotonic counters surfaced in server responses and `stats`.
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;  ///< currently resident
  uint64_t capacity = 0;
  int shards = 0;
};

/// \brief Sharded, bounded LRU over SolveJobResult.
///
/// Keys hash to one of `num_shards` independent LRU lists, each with its
/// own mutex, so concurrent request workers rarely contend. Capacity is
/// divided evenly across shards (rounded up); each shard evicts its own
/// least-recently-used entry when full. Thread-safe.
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity = 1024, int num_shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result and refreshes its recency, or nullopt.
  /// Counts one hit or one miss.
  std::optional<engine::SolveJobResult> Lookup(const ResultCacheKey& key);

  /// Inserts (or refreshes) `result` under `key`, evicting the shard's
  /// LRU entry if the shard is full.
  void Insert(const ResultCacheKey& key, const engine::SolveJobResult& result);

  /// Drops every entry (counters are preserved).
  void Clear();

  ResultCacheStats stats() const;

 private:
  struct Entry {
    ResultCacheKey key;
    engine::SolveJobResult result;
  };
  struct KeyHash {
    std::size_t operator()(const ResultCacheKey& key) const;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<ResultCacheKey, std::list<Entry>::iterator, KeyHash>
        index;
  };

  Shard& ShardFor(const ResultCacheKey& key);

  const std::size_t shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace cfcm::serve

#endif  // CFCM_SERVE_RESULT_CACHE_H_
