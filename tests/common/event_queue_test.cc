#include "common/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace ads::common {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&](SimTime) { order.push_back(3); });
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(1); });
  q.ScheduleAt(2.0, [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5.0, [&](SimTime) { order.push_back(1); });
  q.ScheduleAt(5.0, [&](SimTime) { order.push_back(2); });
  q.ScheduleAt(5.0, [&](SimTime) { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  std::vector<SimTime> times;
  q.ScheduleAt(10.0, [&](SimTime t) {
    times.push_back(t);
    q.ScheduleAfter(5.0, [&](SimTime t2) { times.push_back(t2); });
  });
  q.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 10.0);
  EXPECT_DOUBLE_EQ(times[1], 15.0);
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&](SimTime) { ++fired; });
  q.ScheduleAt(2.0, [&](SimTime) { ++fired; });
  q.ScheduleAt(10.0, [&](SimTime) { ++fired; });
  q.RunUntil(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(10.0);  // inclusive horizon
  EXPECT_EQ(fired, 3);
}

TEST(EventQueueTest, EventsCanCascade) {
  EventQueue q;
  int depth = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++depth < 5) q.ScheduleAfter(1.0, chain);
  };
  q.ScheduleAt(0.0, chain);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

// Callable that counts how often it is copy-constructed; moves are free.
struct CopyCounter {
  int* copies;
  int* runs;
  CopyCounter(int* c, int* r) : copies(c), runs(r) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), runs(other.runs) {
    ++*copies;
  }
  CopyCounter(CopyCounter&& other) noexcept = default;
  void operator()(SimTime) { ++*runs; }
};

TEST(EventQueueTest, CallbacksAreMovedNeverCopied) {
  // A callback that captures a request or a batch must not be
  // deep-copied on its way through the queue, including when it pops.
  EventQueue q;
  int copies = 0;
  int runs = 0;
  for (int i = 0; i < 64; ++i) {
    q.ScheduleAt(static_cast<SimTime>(64 - i) * 0.5,
                 CopyCounter(&copies, &runs));
  }
  q.RunUntil(10.0);
  q.ScheduleAfter(1.0, CopyCounter(&copies, &runs));
  q.RunAll();
  EXPECT_EQ(runs, 65);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueueTest, SeededScheduleWithTiesPopsInTimeThenInsertionOrder) {
  // Times are drawn from a handful of values so most events tie; running
  // callbacks add more, some at the current instant. Every event records
  // its (when, seq) key; the run must visit the keys in ascending order.
  std::mt19937_64 rng(20231017);
  EventQueue q;
  uint64_t next_seq = 0;
  std::vector<std::pair<SimTime, uint64_t>> ran;
  std::function<void(SimTime)> schedule_random;
  auto schedule = [&](SimTime when) {
    const uint64_t seq = next_seq++;
    q.ScheduleAt(when, [&, when, seq](SimTime now) {
      EXPECT_EQ(now, when);
      ran.emplace_back(when, seq);
      if (next_seq < 4000 && rng() % 3 == 0) {
        for (uint64_t k = rng() % 3; k > 0; --k) schedule_random(now);
      }
    });
  };
  schedule_random = [&](SimTime now) {
    schedule(now + static_cast<SimTime>(rng() % 4));  // 0 ties with now
  };
  for (int i = 0; i < 1000; ++i) schedule(static_cast<SimTime>(rng() % 8));
  q.RunAll();
  EXPECT_EQ(ran.size(), next_seq);
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
  EXPECT_GT(next_seq, 1000u);
}

TEST(EventQueueTest, PrescheduledStreamInterleavesWithLaterEventsInOrder) {
  // A long non-decreasing stream with equal-time runs is scheduled up
  // front; its events then schedule others earlier than, equal to and
  // later than the stream's times, so ties fall between pre-scheduled and
  // later events. Keys are (when, the order of ScheduleAt calls).
  EventQueue q;
  std::mt19937_64 rng(20261019);
  uint64_t next_seq = 0;
  std::vector<std::pair<SimTime, uint64_t>> scheduled;
  std::vector<std::pair<SimTime, uint64_t>> ran;
  auto expect_counts = [&]() {
    const size_t live = scheduled.size() - ran.size();
    EXPECT_EQ(q.pending(), live);
    EXPECT_EQ(q.empty(), live == 0);
  };
  std::function<void(SimTime, bool)> schedule = [&](SimTime when,
                                                    bool spawn) {
    const uint64_t seq = next_seq++;
    scheduled.emplace_back(when, seq);
    q.ScheduleAt(when, [&, when, seq, spawn](SimTime now) {
      EXPECT_EQ(now, when);
      ran.emplace_back(when, seq);
      expect_counts();
      if (!spawn) return;
      switch (rng() % 4) {
        case 0:  // at the current instant, behind this time's stream events
          schedule(now, false);
          break;
        case 1:  // exactly on a later stream time
          schedule(now + 0.5 * static_cast<SimTime>(1 + rng() % 3), false);
          break;
        case 2:  // between stream times
          schedule(now + 0.25, false);
          break;
        default:  // past the end of the stream
          schedule(1000.0 + static_cast<SimTime>(rng() % 5), false);
          break;
      }
      expect_counts();
    });
  };
  constexpr int kStream = 2000;
  for (int i = 0; i < kStream; ++i) {
    schedule(0.5 * static_cast<SimTime>(i / 4), true);  // runs of four
    expect_counts();
  }
  auto ran_through = [&](SimTime horizon) {
    size_t due = 0;
    for (const auto& [when, seq] : scheduled) due += when <= horizon;
    return due;
  };
  for (SimTime horizon : {0.0, 10.0, 10.25, 99.5, 249.5}) {
    q.RunUntil(horizon);
    EXPECT_DOUBLE_EQ(q.now(), horizon);
    EXPECT_EQ(ran.size(), ran_through(horizon)) << "horizon " << horizon;
    ASSERT_FALSE(ran.empty());
    EXPECT_LE(ran.back().first, horizon);
    expect_counts();
  }
  q.RunAll();
  EXPECT_EQ(ran.size(), scheduled.size());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
  EXPECT_GT(scheduled.size(), static_cast<size_t>(kStream) * 3 / 2);
}

TEST(EventQueueTest, RunningCallbackCanScheduleIntoItsOwnFreedSlot) {
  // The popped callback's slot is free while it runs, so the first event
  // it schedules reuses it, and growing the slab must not disturb the
  // running callback's own captured state.
  EventQueue q;
  std::vector<int> order;
  const std::vector<int> payload(32, 7);
  q.ScheduleAt(1.0, [&, payload](SimTime now) {
    q.ScheduleAt(now, [&](SimTime) { order.push_back(2); });
    q.ScheduleAt(now + 2.0, [&](SimTime) { order.push_back(4); });
    for (int i = 0; i < 100; ++i) q.ScheduleAt(now + 1.0, [](SimTime) {});
    q.ScheduleAt(now + 1.0, [&](SimTime) { order.push_back(3); });
    order.push_back(payload.back() == 7 && payload.size() == 32 ? 1 : -1);
  });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.Step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TimeHelpers) {
  EXPECT_DOUBLE_EQ(Minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(Hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(Days(1), 86400.0);
}

}  // namespace
}  // namespace ads::common
