#include "runtime/forest_arena.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cfcm {

void ForestArena::BeginRound(NodeId n, const std::vector<NodeId>& roots,
                             uint64_t seed, int capacity) {
  if (!MatchesRound(n, roots, seed)) {
    n_ = n;
    roots_ = roots;
    seed_ = seed;
    committed_ = 0;
    leaves_len_ = n - static_cast<NodeId>(roots.size());
  }
  capacity_ = std::max(capacity_, capacity);
  // Sized from this round's n, not only when capacity grows: a round
  // with a larger n at the same capacity needs larger slabs.
  const std::size_t cap = static_cast<std::size_t>(capacity_);
  parent_slab_.resize(cap * static_cast<std::size_t>(n_));
  leaves_slab_.resize(cap * static_cast<std::size_t>(leaves_len_));
  root_of_slab_.resize(cap * static_cast<std::size_t>(n_));
}

bool ForestArena::MatchesRound(NodeId n, const std::vector<NodeId>& roots,
                               uint64_t seed) const {
  return n == n_ && seed == seed_ && roots == roots_;
}

void ForestArena::Store(int f, const RootedForest& forest) {
  assert(f >= 0 && f < capacity_);
  assert(static_cast<NodeId>(forest.parent.size()) == n_);
  assert(static_cast<NodeId>(forest.leaves_first.size()) == leaves_len_);
  const std::size_t nf = static_cast<std::size_t>(f);
  std::memcpy(parent_slab_.data() + nf * static_cast<std::size_t>(n_),
              forest.parent.data(), sizeof(NodeId) * forest.parent.size());
  std::memcpy(leaves_slab_.data() + nf * static_cast<std::size_t>(leaves_len_),
              forest.leaves_first.data(),
              sizeof(NodeId) * forest.leaves_first.size());
  std::memcpy(root_of_slab_.data() + nf * static_cast<std::size_t>(n_),
              forest.root_of.data(), sizeof(NodeId) * forest.root_of.size());
}

bool ForestArena::ContainsUpEdge(int f, NodeId u, NodeId v) const {
  assert(f >= 0 && f < committed_);
  if (u < 0 || v < 0 || u >= n_ || v >= n_) return false;
  const NodeId* parents =
      parent_slab_.data() + static_cast<std::size_t>(f) * n_;
  return parents[static_cast<std::size_t>(u)] == v ||
         parents[static_cast<std::size_t>(v)] == u;
}

void ForestArena::Commit(int upto) {
  committed_ = std::max(committed_, std::min(upto, capacity_));
}

void ForestArena::LoadInto(int f, RootedForest* out) const {
  assert(f >= 0 && f < committed_);
  const std::size_t nf = static_cast<std::size_t>(f);
  out->parent.assign(
      parent_slab_.data() + nf * static_cast<std::size_t>(n_),
      parent_slab_.data() + (nf + 1) * static_cast<std::size_t>(n_));
  out->leaves_first.assign(
      leaves_slab_.data() + nf * static_cast<std::size_t>(leaves_len_),
      leaves_slab_.data() + (nf + 1) * static_cast<std::size_t>(leaves_len_));
  out->root_of.assign(
      root_of_slab_.data() + nf * static_cast<std::size_t>(n_),
      root_of_slab_.data() + (nf + 1) * static_cast<std::size_t>(n_));
}

}  // namespace cfcm
