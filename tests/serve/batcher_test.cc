#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace ads::serve {
namespace {

Request Req(uint64_t id, double arrival,
            double deadline = std::numeric_limits<double>::infinity(),
            int priority = 0) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.deadline = deadline;
  r.priority = priority;
  return r;
}

TEST(MicroBatcherTest, DispatchesWhenFull) {
  MicroBatcher b({.max_batch_size = 3, .max_linger_seconds = 1.0});
  b.Add(Req(1, 0.0));
  b.Add(Req(2, 0.0));
  EXPECT_FALSE(b.Ready(0.0));  // neither full nor lingered
  b.Add(Req(3, 0.0));
  EXPECT_TRUE(b.Ready(0.0));  // full batch dispatches immediately
  std::vector<Request> batch;
  b.TakeBatch(&batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 1u);  // FIFO
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_EQ(batch[2].id, 3u);
  EXPECT_EQ(b.pending(), 0u);
}

TEST(MicroBatcherTest, DispatchesWhenLingerExpires) {
  MicroBatcher b({.max_batch_size = 8, .max_linger_seconds = 0.5});
  b.Add(Req(1, 10.0));
  EXPECT_FALSE(b.Ready(10.2));
  EXPECT_DOUBLE_EQ(b.NextDeadline(), 10.5);
  EXPECT_TRUE(b.Ready(10.5));  // oldest waited out its linger window
  std::vector<Request> batch;
  b.TakeBatch(&batch);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(b.NextDeadline(), std::numeric_limits<double>::infinity());
}

TEST(MicroBatcherTest, TakeBatchCapsAtMaxSize) {
  MicroBatcher b({.max_batch_size = 2, .max_linger_seconds = 0.0});
  for (uint64_t i = 0; i < 5; ++i) b.Add(Req(i, 0.0));
  // One caller-owned vector across calls: each take replaces its contents.
  std::vector<Request> batch;
  b.TakeBatch(&batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 0u);
  b.TakeBatch(&batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 2u);
  b.TakeBatch(&batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 4u);
  b.TakeBatch(&batch);
  EXPECT_TRUE(batch.empty());
}

TEST(MicroBatcherTest, DropExpiredRemovesOnlyPastDeadline) {
  MicroBatcher b({.max_batch_size = 8, .max_linger_seconds = 1.0});
  b.Add(Req(1, 0.0, /*deadline=*/5.0));
  b.Add(Req(2, 0.0, /*deadline=*/20.0));
  b.Add(Req(3, 0.0, /*deadline=*/6.0));
  std::vector<Request> expired;
  b.DropExpired(6.0, &expired);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(expired[1].id, 3u);
  EXPECT_EQ(b.pending(), 1u);
}

TEST(MicroBatcherTest, ExpiryStaysExactAsTheEarliestDeadlineLeaves) {
  MicroBatcher b({.max_batch_size = 1, .max_linger_seconds = 0.0});
  std::vector<Request> batch;
  std::vector<Request> expired;

  // The earliest deadline leaves through TakeBatch.
  b.Add(Req(1, 0.0, /*deadline=*/2.0));
  b.Add(Req(2, 0.0, /*deadline=*/5.0));
  b.TakeBatch(&batch);
  ASSERT_EQ(batch[0].id, 1u);
  b.DropExpired(4.9, &expired);
  EXPECT_TRUE(expired.empty());
  b.DropExpired(5.0, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 2u);

  // The earliest deadline leaves through EvictWorst.
  expired.clear();
  b.Add(Req(3, 1.0, /*deadline=*/3.0, /*priority=*/0));
  b.Add(Req(4, 1.0, /*deadline=*/6.0, /*priority=*/1));
  EXPECT_EQ(b.EvictWorst().id, 3u);
  b.DropExpired(5.9, &expired);
  EXPECT_TRUE(expired.empty());
  b.DropExpired(6.0, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 4u);

  // A request taken out and re-added (a drain's reinjection) with a
  // deadline earlier than the last scan's bound.
  expired.clear();
  b.Add(Req(5, 2.0, /*deadline=*/7.5));
  b.Add(Req(6, 2.0, /*deadline=*/10.0));
  b.TakeBatch(&batch);
  ASSERT_EQ(batch[0].id, 5u);
  b.DropExpired(7.0, &expired);  // a full scan: only 10.0 is left
  EXPECT_TRUE(expired.empty());
  b.Add(std::move(batch[0]));
  b.DropExpired(7.4, &expired);
  EXPECT_TRUE(expired.empty());
  b.DropExpired(7.5, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 5u);
  EXPECT_EQ(b.pending(), 1u);
}

TEST(MicroBatcherTest, MatchesAPlainQueueUnderRandomOperations) {
  // Reference: the FIFO semantics on a std::deque, every operation a
  // full scan. The batcher must agree on every request that leaves it,
  // in order, through any mix of adds, takes, evictions and expiry.
  std::mt19937_64 rng(7);
  MicroBatcher b({.max_batch_size = 3, .max_linger_seconds = 0.5});
  std::deque<Request> reference;
  std::vector<Request> got;
  uint64_t next_id = 0;
  double now = 0.0;
  for (int step = 0; step < 20000; ++step) {
    now += 0.01 * static_cast<double>(rng() % 10);
    switch (rng() % 4) {
      case 0:
      case 1: {
        const Request r = Req(next_id++, now,
                              now + 0.05 * static_cast<double>(rng() % 40),
                              static_cast<int>(rng() % 3));
        reference.push_back(r);
        b.Add(r);
        break;
      }
      case 2: {
        b.TakeBatch(&got);
        const size_t n = std::min<size_t>(3, reference.size());
        ASSERT_EQ(got.size(), n);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got[i].id, reference.front().id);
          reference.pop_front();
        }
        break;
      }
      default: {
        if (rng() % 4 == 0 && !reference.empty()) {
          auto worst = reference.begin();
          for (auto it = reference.begin(); it != reference.end(); ++it) {
            if (MicroBatcher::WorseThan(*it, *worst)) worst = it;
          }
          EXPECT_EQ(b.EvictWorst().id, worst->id);
          reference.erase(worst);
          break;
        }
        got.clear();
        b.DropExpired(now, &got);
        size_t k = 0;
        for (auto it = reference.begin(); it != reference.end();) {
          if (it->deadline <= now) {
            ASSERT_LT(k, got.size());
            EXPECT_EQ(got[k++].id, it->id);
            it = reference.erase(it);
          } else {
            ++it;
          }
        }
        EXPECT_EQ(k, got.size());
        break;
      }
    }
    ASSERT_EQ(b.pending(), reference.size());
    if (!reference.empty()) {
      EXPECT_EQ(b.NextDeadline(), reference.front().arrival + 0.5);
    }
  }
}

TEST(MicroBatcherTest, WorstRankingPriorityThenDeadlineThenArrival) {
  // Lower priority ranks worse; ties break toward the later deadline,
  // then the later arrival.
  EXPECT_TRUE(MicroBatcher::WorseThan(Req(1, 0.0, 10.0, 0),
                                      Req(2, 0.0, 10.0, 1)));
  EXPECT_TRUE(MicroBatcher::WorseThan(Req(1, 0.0, 50.0, 1),
                                      Req(2, 0.0, 10.0, 1)));
  EXPECT_TRUE(MicroBatcher::WorseThan(Req(1, 3.0, 10.0, 1),
                                      Req(2, 1.0, 10.0, 1)));

  MicroBatcher b({.max_batch_size = 8, .max_linger_seconds = 1.0});
  b.Add(Req(1, 0.0, 10.0, /*priority=*/2));
  b.Add(Req(2, 1.0, 10.0, /*priority=*/0));  // lowest priority: the victim
  b.Add(Req(3, 2.0, 10.0, /*priority=*/1));
  ASSERT_NE(b.PeekWorst(), nullptr);
  EXPECT_EQ(b.PeekWorst()->id, 2u);
  Request victim = b.EvictWorst();
  EXPECT_EQ(victim.id, 2u);
  EXPECT_EQ(b.pending(), 2u);
  EXPECT_EQ(b.PeekWorst()->id, 3u);
}

}  // namespace
}  // namespace ads::serve
