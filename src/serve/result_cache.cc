#include "serve/result_cache.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"

namespace cfcm::serve {
namespace {

// Process-wide mirrors of the per-instance counters. The instance
// atomics keep each cache's own story (unit tests, multiple caches);
// the registry copies are what `stats`/`metrics` snapshot coherently.
obs::Counter& CacheHits() {
  static obs::Counter* const c =
      &obs::MetricsRegistry::Global().counter("serve.cache.hits");
  return *c;
}
obs::Counter& CacheMisses() {
  static obs::Counter* const c =
      &obs::MetricsRegistry::Global().counter("serve.cache.misses");
  return *c;
}
obs::Counter& CacheEvictions() {
  static obs::Counter* const c =
      &obs::MetricsRegistry::Global().counter("serve.cache.evictions");
  return *c;
}

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

ResultCacheKey CacheKeyFor(uint64_t fingerprint, const engine::SolveJob& job) {
  return ResultCacheKey{fingerprint, job.algorithm,    job.k,
                        job.eps,     job.seed,         job.selection,
                        job.solver_backend};
}

std::size_t ResultCache::KeyHash::operator()(const ResultCacheKey& key) const {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, &key.fingerprint, sizeof(key.fingerprint));
  hash = FnvMix(hash, key.algorithm.data(), key.algorithm.size());
  hash = FnvMix(hash, &key.k, sizeof(key.k));
  const uint64_t eps_bits = std::bit_cast<uint64_t>(key.eps);
  hash = FnvMix(hash, &eps_bits, sizeof(eps_bits));
  hash = FnvMix(hash, &key.seed, sizeof(key.seed));
  const int selection = static_cast<int>(key.selection);
  hash = FnvMix(hash, &selection, sizeof(selection));
  const int backend = static_cast<int>(key.solver_backend);
  hash = FnvMix(hash, &backend, sizeof(backend));
  return static_cast<std::size_t>(hash);
}

ResultCache::ResultCache(std::size_t capacity, int num_shards)
    : shard_capacity_(std::max<std::size_t>(
          1, (std::max<std::size_t>(1, capacity) +
              static_cast<std::size_t>(std::max(1, num_shards)) - 1) /
                 static_cast<std::size_t>(std::max(1, num_shards)))),
      shards_(static_cast<std::size_t>(std::max(1, num_shards))) {}

ResultCache::Shard& ResultCache::ShardFor(const ResultCacheKey& key) {
  return shards_[KeyHash{}(key) % shards_.size()];
}

std::optional<engine::SolveJobResult> ResultCache::Lookup(
    const ResultCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    CacheMisses().Add(1);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  CacheHits().Add(1);
  return it->second->result;
}

void ResultCache::Insert(const ResultCacheKey& key,
                         const engine::SolveJobResult& result) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->result = result;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    CacheEvictions().Add(1);
  }
  shard.lru.push_front(Entry{key, result});
  shard.index.emplace(key, shard.lru.begin());
}

void ResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.entries += shard.lru.size();
  }
  stats.capacity = shard_capacity_ * shards_.size();
  stats.shards = static_cast<int>(shards_.size());
  return stats;
}

}  // namespace cfcm::serve
