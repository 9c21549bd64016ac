#include "stats.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailLevel, PicksHighestLevelWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
  EXPECT_DOUBLE_EQ(TailLevel(1000), 0.99);
  EXPECT_DOUBLE_EQ(NearestRank(OneTo(1000), 0.99), 990.0);
  // 999 samples: p99 leaves 9 beyond, so the report falls back to p95.
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_DOUBLE_EQ(TailLevel(999), 0.95);
  // 10000 samples support p99.9.
  EXPECT_DOUBLE_EQ(TailLevel(10000), 0.999);
}

TEST(TailLevel, SmallSampleFallsBackToMedian) {
  EXPECT_DOUBLE_EQ(TailLevel(12), 0.5);
  EXPECT_DOUBLE_EQ(NearestRank(OneTo(12), 0.5), 6.0);
  EXPECT_DOUBLE_EQ(TailLevel(0), 0.0);
}

TEST(NearestRank, FailedRequestsCountAsMissingTheLimit) {
  // 1000 samples, 11 of them failed (recorded as +inf): the p99 is inf.
  std::vector<double> v = OneTo(989);
  v.insert(v.end(), 11, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(NearestRank(v, 0.99)));
}

TEST(WindowedMedian, OneSlowSliceDoesNotMoveTheFigure) {
  // Five slices of 100 samples; the third stalls (every sample 50 ms).
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(w == 2 ? 50.0 : i / 100.0);
  }
  auto p99 = [](std::vector<double> s) { return Quantile(std::move(s), 0.99); };
  EXPECT_DOUBLE_EQ(WindowedMedian(v, 5, p99), 0.99);
  // Over the whole run the stall owns the tail.
  EXPECT_DOUBLE_EQ(Quantile(v, 0.99), 50.0);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  // Request 100 at 1000 req/s is due 0.1 s into the rung. Sent 30 ms late
  // and served 1 ms after sending, its latency is 31 ms, not 1 ms.
  const double due = DueSeconds(100, 1000.0);
  EXPECT_DOUBLE_EQ(due, 0.1);
  const double sent = due + 0.030;
  EXPECT_NEAR(LatencyFromDue(due, sent + 0.001), 0.031, 1e-12);
}

TEST(OpenLoop, GeneratorLagsPastOneSecond) {
  EXPECT_FALSE(GeneratorLagged(2.0, 1.0, 1.0));
  EXPECT_TRUE(GeneratorLagged(2.0 + 1e-6, 1.0, 1.0));
}

Rung Passing(double rate) {
  Rung r;
  r.rate_rps = rate;
  r.planned = r.sent = 1000;
  r.p50_ms = 1.0;
  r.p99_ms = 2.0;
  return r;
}

/// A ladder whose rungs each ran once.
std::vector<std::vector<Rung>> OneRunEach(const std::vector<Rung>& rungs) {
  std::vector<std::vector<Rung>> ladder;
  for (const Rung& r : rungs) ladder.push_back({r});
  return ladder;
}

TEST(Ladder, StopsAtFirstRungMissingTheLimit) {
  const LatencyLimit limit;
  std::vector<Rung> rungs = {Passing(1e3), Passing(2e3), Passing(5e3),
                             Passing(1e4)};
  EXPECT_DOUBLE_EQ(MaxRate(OneRunEach(rungs), limit), 1e4);

  rungs[2].p99_ms = limit.p99_ms + 0.01;  // misses the p99 limit
  EXPECT_DOUBLE_EQ(MaxRate(OneRunEach(rungs), limit), 2e3);

  // A later passing rung does not count once the ladder has stopped.
  rungs[2] = Passing(5e3);
  rungs[1].failed = 2;  // 0.2% failed > 0.1%
  EXPECT_DOUBLE_EQ(MaxRate(OneRunEach(rungs), limit), 1e3);

  rungs[1].failed = 1;  // exactly 0.1% still meets the limit
  EXPECT_DOUBLE_EQ(MaxRate(OneRunEach(rungs), limit), 1e4);

  rungs[0].p99_ms = 2 * limit.p99_ms;
  EXPECT_DOUBLE_EQ(MaxRate(OneRunEach(rungs), limit), 0.0);
}

TEST(Ladder, MissedRungHoldsOnlyWhenBothRerunsMeetTheLimit) {
  const LatencyLimit limit;
  Rung miss = Passing(1e4);
  miss.p99_ms = limit.p99_ms + 1.0;
  const Rung meet = Passing(1e4);
  EXPECT_TRUE(RungHolds({meet}, limit));
  EXPECT_FALSE(RungHolds({miss}, limit));  // reruns still to come
  EXPECT_TRUE(RungHolds({miss, meet, meet}, limit));
  EXPECT_FALSE(RungHolds({miss, meet, miss}, limit));
  EXPECT_FALSE(RungHolds({miss, miss}, limit));
  EXPECT_DOUBLE_EQ(
      MaxRate({{Passing(5e3)}, {miss, meet, meet}, {Passing(2e4)}}, limit),
      2e4);
  EXPECT_DOUBLE_EQ(
      MaxRate({{Passing(5e3)}, {miss, meet, miss}, {Passing(2e4)}}, limit),
      5e3);
}

TEST(Ladder, LaggedRungIsInvalidAndUnsentRequestsFail) {
  const LatencyLimit limit;
  Rung r = Passing(5e4);
  r.lagged = true;  // latencies of what was sent looked fine...
  EXPECT_FALSE(RungMeets(r, limit));
  // ...and the unsent requests count as failed.
  r.sent = 400;
  r.failed = r.planned - r.sent;
  EXPECT_DOUBLE_EQ(FailedFrac(r), 0.6);
  EXPECT_DOUBLE_EQ(MaxRate(OneRunEach({Passing(1e3), r, Passing(1e5)}), limit),
                   1e3);
}

}  // namespace
}  // namespace perfbench
