#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

namespace ads::common {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkIsIndependentOfParentFutureDraws) {
  Rng a(7);
  Rng child = a.Fork();
  double c1 = child.Uniform();
  // Replaying: same seed, same fork point yields the same child stream.
  Rng b(7);
  Rng child2 = b.Fork();
  EXPECT_DOUBLE_EQ(c1, child2.Uniform());
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng r(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformInt(2, 4);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 4);
    saw_lo |= (v == 2);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.Uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng r(13);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    double v = r.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, ZipfIsSkewedTowardSmallIndices) {
  Rng r(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[static_cast<size_t>(r.Zipf(10, 1.2))];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[1], counts[8]);
}

TEST(RngTest, ZipfTableDrawMatchesLinearScan) {
  // The inverse-CDF draw as a linear scan over the support — the shape
  // ZipfTable replaces. Same uniform, same index, on every draw.
  auto linear_draw = [](Rng& rng, const std::vector<double>& terms) {
    double total = 0.0;
    for (double t : terms) total += t;
    const double u = rng.Uniform(0.0, total);
    double acc = 0.0;
    for (size_t k = 0; k < terms.size(); ++k) {
      acc += terms[k];
      if (u <= acc) return static_cast<int64_t>(k);
    }
    return static_cast<int64_t>(terms.size()) - 1;
  };
  const std::vector<std::pair<int64_t, double>> cases = {
      {1, 0.8}, {2, 0.0}, {25, 0.8}, {1500, 0.5}, {2000, 0.6}, {7, 2.5}};
  for (const auto& [n, s] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
    std::vector<double> terms;
    for (int64_t k = 0; k < n; ++k) terms.push_back(1.0 / std::pow(k + 1, s));
    const ZipfTable table(n, s);
    ASSERT_EQ(table.size(), n);
    const auto seed = 1000 + static_cast<uint64_t>(n);
    Rng fast(seed);
    Rng slow(seed);
    Rng wrapper(seed);
    for (int i = 0; i < 100000; ++i) {
      const int64_t want = linear_draw(slow, terms);
      ASSERT_EQ(table.Draw(fast), want) << "draw " << i;
      // Rng::Zipf builds a table per call: check its first draws only.
      if (i < 1000) {
        ASSERT_EQ(wrapper.Zipf(n, s), want) << "draw " << i;
      }
    }
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng r(19);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[r.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.Pareto(5.0, 2.0), 5.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  r.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, BernoulliProbabilityRespected) {
  Rng r(31);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (r.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

}  // namespace
}  // namespace ads::common
