#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace ads::common {

int64_t Rng::Zipf(int64_t n, double s) { return ZipfTable(n, s).Draw(*this); }

ZipfTable::ZipfTable(int64_t n, double s) {
  ADS_CHECK(n > 0) << "Zipf over empty support";
  cdf_.resize(static_cast<size_t>(n));
  double acc = 0.0;
  for (int64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(k + 1, s);
    cdf_[static_cast<size_t>(k)] = acc;
  }
}

int64_t ZipfTable::Draw(Rng& rng) const {
  // First k with u <= cdf[k]: the index a left-to-right scan stops at.
  const double u = rng.Uniform(0.0, cdf_.back());
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return size() - 1;
  return static_cast<int64_t>(it - cdf_.begin());
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  ADS_CHECK(!weights.empty()) << "Categorical over empty weights";
  double total = 0.0;
  for (double w : weights) total += w;
  double u = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u <= acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace ads::common
