#ifndef ADS_COMMON_RNG_H_
#define ADS_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/logging.h"

namespace ads::common {

/// Deterministic random number generator used throughout the library.
///
/// All stochastic components (workload generators, simulators, ML training)
/// draw from an Rng seeded by the caller, so every experiment is exactly
/// reproducible. Fork() derives an independent child stream, which keeps
/// subsystems decoupled: adding draws in one module does not perturb another.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Derives an independent child generator; deterministic given this
  /// generator's current state.
  Rng Fork() { return Rng(engine_()); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    ADS_CHECK(lo <= hi) << "UniformInt bounds inverted: " << lo << ".." << hi;
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal draw.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal draw (parameters are of the underlying normal).
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential draw with the given rate (events per unit time).
  double Exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Poisson draw with the given mean.
  int64_t Poisson(double mean) {
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  /// Bernoulli draw.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Pareto draw with scale x_m and shape alpha (heavy-tailed sizes).
  double Pareto(double x_m, double alpha) {
    double u = Uniform(1e-12, 1.0);
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Zipf-like categorical draw over [0, n): P(k) proportional to
  /// 1/(k+1)^s. Used for skewed template popularity. Builds a ZipfTable
  /// per call; callers drawing many times from one support keep a table.
  int64_t Zipf(int64_t n, double s);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Inverse-CDF table for Zipf draws over [0, n): P(k) proportional to
/// 1/(k+1)^s. Built once in O(n); each Draw is one Uniform(0, total) and a
/// binary search. The prefix sums accumulate left to right, exactly as a
/// linear scan over the support would, so a draw returns the index such a
/// scan returns for the same uniform — bit for bit, not just in law.
class ZipfTable {
 public:
  ZipfTable(int64_t n, double s);

  int64_t Draw(Rng& rng) const;

  int64_t size() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace ads::common

#endif  // ADS_COMMON_RNG_H_
