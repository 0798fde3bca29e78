#include "linalg/jl.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

namespace cfcm {
namespace {

TEST(JlSketchTest, EntriesArePlusMinusScale) {
  const JlSketch sketch(16, 100, 42);
  const double s = sketch.scale();
  EXPECT_NEAR(s, 0.25, 1e-12);
  for (int j = 0; j < 16; ++j) {
    for (NodeId v = 0; v < 100; v += 7) {
      const double e = sketch.Entry(j, v);
      EXPECT_TRUE(e == s || e == -s);
    }
  }
}

TEST(JlSketchTest, DeterministicInSeed) {
  const JlSketch a(8, 50, 1), b(8, 50, 1), c(8, 50, 2);
  int diffs = 0;
  for (int j = 0; j < 8; ++j) {
    for (NodeId v = 0; v < 50; ++v) {
      EXPECT_EQ(a.Entry(j, v), b.Entry(j, v));
      diffs += a.Entry(j, v) != c.Entry(j, v);
    }
  }
  EXPECT_GT(diffs, 100);  // different seeds give a different sketch
}

TEST(JlSketchTest, ColumnIntoMatchesEntry) {
  const JlSketch sketch(70, 20, 9);  // > 64 rows: crosses word boundary
  std::vector<double> col(70);
  sketch.ColumnInto(13, col.data());
  for (int j = 0; j < 70; ++j) EXPECT_EQ(col[j], sketch.Entry(j, 13));
}

TEST(JlSketchTest, ColumnIntoBitExactAcrossWordBoundaries) {
  // Every entry must be exactly the bit pattern of +scale or -scale (so
  // no -0.0 and no NaN), and ColumnInto must agree with Entry byte for
  // byte, for row counts on both sides of each 64-bit sign word.
  for (const int w : {1, 8, 27, 63, 64, 65, 128, 130}) {
    const JlSketch sketch(w, 40, 17);
    const double plus = sketch.scale();
    const double minus = -sketch.scale();
    ASSERT_GT(plus, 0.0);
    std::vector<double> col(static_cast<std::size_t>(w));
    for (NodeId v = 0; v < 40; ++v) {
      sketch.ColumnInto(v, col.data());
      for (int j = 0; j < w; ++j) {
        const double entry = sketch.Entry(j, v);
        EXPECT_EQ(std::memcmp(&col[j], &entry, sizeof(double)), 0)
            << "w=" << w << " v=" << v << " j=" << j;
        EXPECT_TRUE(std::memcmp(&col[j], &plus, sizeof(double)) == 0 ||
                    std::memcmp(&col[j], &minus, sizeof(double)) == 0)
            << "w=" << w << " v=" << v << " j=" << j;
      }
    }
  }
}

TEST(JlSketchTest, NormPreservationOnAverage) {
  // ||W e_v||^2 = 1 exactly (w entries of magnitude 1/sqrt(w)).
  const JlSketch sketch(32, 10, 5);
  for (NodeId v = 0; v < 10; ++v) {
    double norm = 0;
    for (int j = 0; j < 32; ++j) {
      norm += sketch.Entry(j, v) * sketch.Entry(j, v);
    }
    EXPECT_NEAR(norm, 1.0, 1e-12);
  }
}

TEST(JlSketchTest, PairwiseDistancePreservedApproximately) {
  // Distortion check on standard basis pairs: ||W(e_u - e_v)||^2 should
  // concentrate around ||e_u - e_v||^2 = 2.
  const int w = 256;
  const JlSketch sketch(w, 40, 11);
  double worst = 0;
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = u + 1; v < 40; v += 9) {
      double norm = 0;
      for (int j = 0; j < w; ++j) {
        const double d = sketch.Entry(j, u) - sketch.Entry(j, v);
        norm += d * d;
      }
      worst = std::max(worst, std::fabs(norm - 2.0) / 2.0);
    }
  }
  EXPECT_LT(worst, 0.5);  // well within the JL regime for w=256
}

TEST(JlTheoryRowsTest, MatchesLemma) {
  // w >= 24 eps^-2 ln n.
  EXPECT_EQ(JlTheoryRows(1000, 0.5),
            static_cast<int>(std::ceil(24.0 / 0.25 * std::log(1000.0))));
  EXPECT_GT(JlTheoryRows(1000, 0.1), JlTheoryRows(1000, 0.3));
}

}  // namespace
}  // namespace cfcm
