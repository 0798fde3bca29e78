#include "estimators/bernstein.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "estimators/options.h"
#include "graph/generators.h"

namespace cfcm {
namespace {

TEST(BernsteinTest, ZeroVarianceLeavesOnlySupTerm) {
  // 100 identical samples of value 5: variance term vanishes.
  const double h = EmpiricalBernsteinHalfWidth(100, 500.0, 2500.0, 5.0, 0.1);
  EXPECT_NEAR(h, 3.0 * 5.0 * std::log(30.0) / 100.0, 1e-12);
}

TEST(BernsteinTest, ShrinksWithSampleCount) {
  // Bernoulli-ish moments: mean .5, second moment .5.
  const double h1 = EmpiricalBernsteinHalfWidth(100, 50, 50, 1.0, 0.05);
  const double h2 = EmpiricalBernsteinHalfWidth(10000, 5000, 5000, 1.0, 0.05);
  EXPECT_LT(h2, h1);
  EXPECT_NEAR(h1 / h2, std::sqrt(100.0), 30);  // ~ 1/sqrt(r) scaling
}

TEST(BernsteinTest, GrowsAsDeltaShrinks) {
  const double loose = EmpiricalBernsteinHalfWidth(100, 50, 50, 1.0, 0.5);
  const double tight = EmpiricalBernsteinHalfWidth(100, 50, 50, 1.0, 1e-6);
  EXPECT_LT(loose, tight);
}

TEST(BernsteinTest, InfiniteOnZeroSamples) {
  EXPECT_TRUE(std::isinf(EmpiricalBernsteinHalfWidth(0, 0, 0, 1.0, 0.1)));
}

TEST(BernsteinTest, CoversTrueMeanEmpirically) {
  // Draw batches of uniform[0,1] samples; the half-width at delta=0.05
  // must cover the true mean 0.5 in ~95%+ of repetitions.
  Rng rng(123);
  int covered = 0;
  constexpr int kReps = 300;
  constexpr int kPerRep = 200;
  for (int rep = 0; rep < kReps; ++rep) {
    double sum = 0, sum_sq = 0;
    for (int i = 0; i < kPerRep; ++i) {
      const double x = rng.NextDouble();
      sum += x;
      sum_sq += x * x;
    }
    const double h =
        EmpiricalBernsteinHalfWidth(kPerRep, sum, sum_sq, 1.0, 0.05);
    if (std::fabs(sum / kPerRep - 0.5) <= h) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(0.95 * kReps));
}

TEST(EstimatorOptionsTest, JlRowsClampedAndOverridable) {
  EstimatorOptions opts;
  const int auto_rows = ResolveJlRows(opts, 1000);
  EXPECT_GE(auto_rows, 8);
  EXPECT_LE(auto_rows, opts.max_jl_rows);
  opts.jl_rows = 5;
  EXPECT_EQ(ResolveJlRows(opts, 1000), 5);
}

TEST(EstimatorOptionsTest, TargetForestsScalesWithEps) {
  EstimatorOptions tight, loose;
  tight.eps = 0.15;
  loose.eps = 0.3;
  tight.max_forests = loose.max_forests = 1 << 20;
  const int r_tight = ResolveTargetForests(tight, 10000);
  const int r_loose = ResolveTargetForests(loose, 10000);
  // eps^{-2} scaling: (0.3/0.15)^2 = 4x.
  EXPECT_NEAR(static_cast<double>(r_tight) / r_loose, 4.0, 0.2);
}

TEST(EstimatorOptionsTest, TargetForestsRespectsCap) {
  EstimatorOptions opts;
  opts.eps = 0.01;
  opts.max_forests = 100;
  EXPECT_EQ(ResolveTargetForests(opts, 1 << 20), 100);
}

TEST(EstimatorOptionsTest, TinyEpsSaturatesAtCap) {
  // eps^-2 log2 n exceeds INT_MAX here; the target must still be the cap,
  // not whatever an out-of-range double-to-int conversion yields.
  EstimatorOptions opts;
  for (double eps : {1e-5, 1e-6}) {
    opts.eps = eps;
    EXPECT_EQ(ResolveTargetForests(opts, 34), opts.max_forests) << eps;
    EXPECT_EQ(ResolveTargetForests(opts, 10000), opts.max_forests) << eps;
  }
}

TEST(EstimatorOptionsTest, DeltaDefaultsToOneOverN) {
  EstimatorOptions opts;
  EXPECT_DOUBLE_EQ(ResolveBernsteinDelta(opts, 500), 1.0 / 500);
  opts.bernstein_delta = 0.01;
  EXPECT_DOUBLE_EQ(ResolveBernsteinDelta(opts, 500), 0.01);
}

}  // namespace
}  // namespace cfcm
