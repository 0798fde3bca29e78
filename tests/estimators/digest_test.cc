// Byte-level pins of the sketched estimators' outputs.
//
// The JL pass is the hot kernel and the one most likely to be rewritten
// for speed. Pinned selections only show that argmaxes held; these
// digests show that every estimate is bitwise unchanged. The expected
// constants were recorded before the branch-free sign expansion landed.
// A kernel change that moves them has changed the arithmetic, not just
// the speed.
#include <cstdint>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/forest_delta.h"
#include "estimators/schur_delta.h"
#include "graph/generators.h"

namespace cfcm {
namespace {

// FNV-1a over the raw bytes of each vector, in order.
uint64_t Fnv1a(std::initializer_list<const std::vector<double>*> parts) {
  uint64_t hash = 1469598103934665603ull;
  for (const std::vector<double>* part : parts) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(part->data());
    for (std::size_t i = 0; i < part->size() * sizeof(double); ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

EstimatorOptions PinnedOptions() {
  EstimatorOptions options;
  options.seed = 7;
  return options;
}

TEST(EstimatorDigestTest, ForestDeltaBytesArePinned) {
  const Graph graph = BarabasiAlbert(2000, 4, 1);  // ba:2000,4,1
  ThreadPool pool(2);
  const DeltaEstimate est =
      ForestDelta(graph, {0, 17}, PinnedOptions(), pool);
  EXPECT_EQ(est.forests, 275);
  EXPECT_EQ(Fnv1a({&est.delta, &est.z, &est.numerator, &est.rel}),
            0x9609203a7fd134c6ull);
}

TEST(EstimatorDigestTest, SchurDeltaBytesArePinned) {
  const Graph graph = BarabasiAlbert(2000, 4, 1);  // ba:2000,4,1
  ThreadPool pool(2);
  const SchurDeltaEstimate est =
      SchurDelta(graph, {0, 17}, {1, 2, 3, 5, 8}, PinnedOptions(), pool);
  EXPECT_EQ(est.forests, 275);
  EXPECT_EQ(Fnv1a({&est.delta}), 0xf24d738dbb9069ecull);
}

}  // namespace
}  // namespace cfcm
