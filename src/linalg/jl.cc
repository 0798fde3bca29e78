#include "linalg/jl.h"

#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace cfcm {

JlSketch::JlSketch(int num_rows, NodeId num_cols, uint64_t seed)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      num_words_((num_rows + 63) / 64),
      scale_(1.0 / std::sqrt(static_cast<double>(num_rows))),
      neg_scale_bits_(std::bit_cast<uint64_t>(-scale_)) {
  assert(num_rows >= 1 && num_cols >= 0);
  words_.resize(static_cast<std::size_t>(num_cols) * num_words_);
  uint64_t sm = seed ^ 0x8f1bbcdcbfa53e0bULL;
  for (auto& w : words_) w = SplitMix64(&sm);
}

void JlSketch::ColumnInto(NodeId v, double* out) const {
  const uint64_t* words = &words_[static_cast<std::size_t>(v) * num_words_];
  for (int j = 0; j < num_rows_; ++j) out[j] = SignedScale(words[j >> 6], j);
}

int JlTheoryRows(NodeId n, double eps) {
  return static_cast<int>(
      std::ceil(24.0 / (eps * eps) * std::log(std::max<NodeId>(2, n))));
}

}  // namespace cfcm
