#include "serve/core.h"

#include <gtest/gtest.h>

#include <limits>

namespace ads::serve {
namespace {

Request Req(uint64_t id, const std::string& model = "m",
            double deadline = std::numeric_limits<double>::infinity(),
            int priority = 0) {
  Request r;
  r.id = id;
  r.model = model;
  r.tenant = "t";
  r.deadline = deadline;
  r.priority = priority;
  return r;
}

CoreOptions SmallQueue(size_t capacity, size_t batch = 4) {
  CoreOptions o;
  o.queue_capacity = capacity;
  o.batcher.max_batch_size = batch;
  o.batcher.max_linger_seconds = 1.0;
  return o;
}

TEST(ServingCoreTest, AcceptsAndBatchesPerModel) {
  ServingCore core(SmallQueue(16, /*batch=*/2));
  EXPECT_TRUE(core.Admit(Req(1, "a"), 0.0).accepted);
  EXPECT_TRUE(core.Admit(Req(2, "b"), 0.0).accepted);
  EXPECT_TRUE(core.Admit(Req(3, "a"), 0.0).accepted);
  EXPECT_EQ(core.queued(), 3u);
  ASSERT_TRUE(core.HasReadyBatch(0.0));  // model a is full
  Batch batch;
  core.TakeReadyBatch(0.0, &batch);
  EXPECT_EQ(batch.model, "a");
  EXPECT_EQ(batch.requests.size(), 2u);
  EXPECT_EQ(core.queued(), 1u);
  EXPECT_FALSE(core.HasReadyBatch(0.0));   // b is neither full nor lingered
  EXPECT_TRUE(core.HasReadyBatch(1.0));    // b's linger expired
}

TEST(ServingCoreTest, RejectsWhenFullAndNoWorseVictim) {
  ServingCore core(SmallQueue(2));
  EXPECT_TRUE(core.Admit(Req(1), 0.0).accepted);
  EXPECT_TRUE(core.Admit(Req(2), 0.0).accepted);
  AdmitResult r = core.Admit(Req(3), 0.0);  // same priority: no eviction
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.decision, Outcome::kRejectedCapacity);
  EXPECT_EQ(core.counters().rejected_capacity, 1u);
  EXPECT_EQ(core.queued(), 2u);
}

TEST(ServingCoreTest, HigherPriorityEvictsLowest) {
  ServingCore core(SmallQueue(2));
  EXPECT_TRUE(core.Admit(Req(1, "m", 100.0, /*priority=*/1), 0.0).accepted);
  EXPECT_TRUE(core.Admit(Req(2, "m", 100.0, /*priority=*/0), 0.0).accepted);
  AdmitResult r = core.Admit(Req(3, "m", 100.0, /*priority=*/5), 0.0);
  EXPECT_TRUE(r.accepted);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim.id, 2u);  // the lowest-priority request was shed
  EXPECT_EQ(core.queued(), 2u);
  EXPECT_EQ(core.counters().shed_capacity, 1u);
  EXPECT_EQ(core.counters().accepted, 3u);
}

TEST(ServingCoreTest, ExpiredDeadlineRejectedAtAdmission) {
  ServingCore core(SmallQueue(8));
  AdmitResult r = core.Admit(Req(1, "m", /*deadline=*/5.0), 6.0);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.decision, Outcome::kRejectedDeadline);
  EXPECT_EQ(core.counters().rejected_deadline, 1u);
}

TEST(ServingCoreTest, DropExpiredCountsShedDeadline) {
  ServingCore core(SmallQueue(8));
  EXPECT_TRUE(core.Admit(Req(1, "m", /*deadline=*/2.0), 0.0).accepted);
  EXPECT_TRUE(core.Admit(Req(2, "m", /*deadline=*/50.0), 0.0).accepted);
  std::vector<Request> expired;
  core.DropExpired(3.0, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(core.counters().shed_deadline, 1u);
  EXPECT_EQ(core.queued(), 1u);
}

TEST(ServingCoreTest, RateLimitingRejects) {
  CoreOptions o = SmallQueue(8);
  o.rate_limiting = true;
  o.rate_limit = {.capacity = 2.0, .refill_per_second = 0.0};
  ServingCore core(o);
  EXPECT_TRUE(core.Admit(Req(1), 0.0).accepted);
  EXPECT_TRUE(core.Admit(Req(2), 0.0).accepted);
  AdmitResult r = core.Admit(Req(3), 0.0);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.decision, Outcome::kRejectedRateLimit);
  EXPECT_EQ(core.counters().rejected_rate_limit, 1u);
}

TEST(ServingCoreTest, BatchingDisabledMeansSingletonBatches) {
  CoreOptions o;
  o.batching = false;
  o.batcher.max_batch_size = 64;  // ignored when batching is off
  ServingCore core(o);
  EXPECT_TRUE(core.Admit(Req(1), 0.0).accepted);
  EXPECT_TRUE(core.Admit(Req(2), 0.0).accepted);
  EXPECT_TRUE(core.HasReadyBatch(0.0));  // no linger: ready immediately
  Batch batch;
  core.TakeReadyBatch(0.0, &batch);
  EXPECT_EQ(batch.requests.size(), 1u);
  core.TakeReadyBatch(0.0, &batch);
  EXPECT_EQ(batch.requests.size(), 1u);
}

TEST(ServingCoreTest, DrainFlushesEverythingIgnoringLinger) {
  ServingCore core(SmallQueue(16, /*batch=*/4));
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(core.Admit(Req(i, "a"), 0.0).accepted);
  }
  EXPECT_TRUE(core.Admit(Req(9, "b"), 0.0).accepted);
  EXPECT_FALSE(core.HasReadyBatch(0.0));  // nothing full, nothing lingered
  auto batches = core.Drain(0.0);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].model, "a");
  EXPECT_EQ(batches[0].requests.size(), 3u);
  EXPECT_EQ(batches[1].model, "b");
  EXPECT_EQ(core.queued(), 0u);
}

TEST(ServingCoreTest, CountersStayConsistent) {
  ServingCore core(SmallQueue(2, /*batch=*/2));
  core.Admit(Req(1, "m", 100.0, 1), 0.0);
  core.Admit(Req(2, "m", 100.0, 0), 0.0);
  core.Admit(Req(3, "m", 100.0, 2), 0.0);  // evicts id 2
  core.Admit(Req(4, "m", 100.0, 0), 0.0);  // rejected (worst itself)
  core.Admit(Req(5, "m", 0.5, 0), 1.0);    // dead on arrival
  const Counters& c = core.counters();
  EXPECT_EQ(c.submitted, 5u);
  EXPECT_EQ(c.accepted, 3u);
  EXPECT_EQ(c.rejected_capacity, 1u);
  EXPECT_EQ(c.rejected_deadline, 1u);
  EXPECT_EQ(c.shed_capacity, 1u);
  // Everything accepted is still queued or already shed.
  EXPECT_EQ(c.accepted, core.queued() + c.Finished());
}

}  // namespace
}  // namespace ads::serve
