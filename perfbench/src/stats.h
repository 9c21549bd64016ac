#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own statistics: percentiles, the open-loop schedule and
// the load-ladder stop rule. Header-only and free of library dependencies,
// so tests/stats_test.cc checks them in isolation.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the q-quantile among n > 0 samples. The small
/// slack keeps q * n from rounding past an exact integer (0.99 * 1000).
inline size_t Rank(size_t n, double q) {
  const double exact = q * static_cast<double>(n) - 1e-9;
  return std::clamp<size_t>(static_cast<size_t>(std::ceil(exact)), 1, n);
}

/// Nearest-rank q-quantile of an ascending-sorted sample (q in (0, 1]).
inline double NearestRank(const std::vector<double>& sorted, double q) {
  return sorted.empty() ? 0.0 : sorted[Rank(sorted.size(), q) - 1];
}

/// Samples strictly beyond the nearest-rank q-quantile.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

/// The highest of the usual report percentiles that still has at least
/// `min_beyond` of `n` samples beyond it; the median when none has, 0 when
/// there are no samples.
inline double TailLevel(size_t n, size_t min_beyond = 10) {
  if (n == 0) return 0.0;
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.5;
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

/// Splits time-ordered samples into `windows` consecutive slices of equal
/// count and returns the median over slices of `stat(slice)`. One slow
/// stretch of the run (the host descheduling the process) then moves one
/// slice, not the figure.
template <typename Stat>
double WindowedMedian(const std::vector<double>& ordered, size_t windows,
                      Stat stat) {
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = ordered.size() * w / windows;
    const size_t end = ordered.size() * (w + 1) / windows;
    if (begin == end) continue;
    per_window.push_back(
        stat(std::vector<double>(ordered.begin() + begin,
                                 ordered.begin() + end)));
  }
  return Median(per_window);
}

/// Nearest-rank q-quantile of an unsorted sample.
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, q);
}

// ---------------------------------------------------------------------------
// Open-loop generator.
// ---------------------------------------------------------------------------

/// When request `i` of a rung at `rate_rps` is due, in seconds after the
/// rung starts.
inline double DueSeconds(size_t i, double rate_rps) {
  return static_cast<double>(i) / rate_rps;
}

/// Latency counts from the due time, not the send time, so a stalled
/// generator charges its stall to every request it delayed.
inline double LatencyFromDue(double due_s, double done_s) {
  return done_s - due_s;
}

/// A rung is abandoned once the generator runs more than `max_lag_s`
/// behind its schedule.
inline bool GeneratorLagged(double now_s, double due_s, double max_lag_s) {
  return now_s - due_s > max_lag_s;
}

// ---------------------------------------------------------------------------
// Load ladder.
// ---------------------------------------------------------------------------

/// The limit a rung must meet. 20 ms rather than 4x the unloaded p99
/// (about 5 ms): on a 4-vCPU VM threads are descheduled for up to ~15 ms
/// every few tens of seconds, which alone pushes a 1 s rung's p99 past
/// 5 ms. Overload still fails it clearly: a saturated fleet's backlog takes
/// p99 from a few ms to tens or hundreds within one rung.
struct LatencyLimit {
  double p99_ms = 20.0;
  double failed_frac = 0.001;
};

/// Outcome of one fixed-rate rung.
struct Rung {
  double rate_rps = 0.0;
  uint64_t planned = 0;  // requests the rung was meant to send
  uint64_t sent = 0;
  /// Failed requests, including the ones never sent because the
  /// generator lagged.
  uint64_t failed = 0;
  bool lagged = false;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

inline double FailedFrac(const Rung& rung) {
  return rung.planned == 0 ? 1.0
                           : static_cast<double>(rung.failed) /
                                 static_cast<double>(rung.planned);
}

/// A lagged rung is invalid: its schedule was not offered, so it cannot
/// show that the rate was held.
inline bool RungMeets(const Rung& rung, const LatencyLimit& limit) {
  return !rung.lagged && rung.p99_ms <= limit.p99_ms &&
         FailedFrac(rung) <= limit.failed_frac;
}

/// A rung near the fleet's capacity meets or misses the limit by chance
/// from run to run. The ladder runs a rung that misses this many times
/// more, and the rung holds when every rerun meets the limit: two of its
/// three runs then did. A rung that meets the limit at once is not rerun,
/// so a ladder whose rungs all hold takes no longer.
constexpr size_t kRungReruns = 2;

/// Whether a rung holds, given its runs in order (see kRungReruns).
inline bool RungHolds(const std::vector<Rung>& runs,
                      const LatencyLimit& limit) {
  if (runs.empty()) return false;
  if (RungMeets(runs.front(), limit)) return true;
  return runs.size() == 1 + kRungReruns &&
         std::all_of(runs.begin() + 1, runs.end(),
                     [&](const Rung& r) { return RungMeets(r, limit); });
}

/// The ladder stops at the first rung that does not hold; the result is
/// the rate of the rung before it (0 when the first rung does not hold).
/// `ladder` has each rung's runs in order.
inline double MaxRate(const std::vector<std::vector<Rung>>& ladder,
                      const LatencyLimit& limit) {
  double best = 0.0;
  for (const std::vector<Rung>& runs : ladder) {
    if (!RungHolds(runs, limit)) break;
    best = runs.front().rate_rps;
  }
  return best;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
