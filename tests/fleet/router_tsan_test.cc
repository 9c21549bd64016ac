// Concurrency smoke for FleetRouter, meant to run under TSan (the CI
// race-check job builds it with -fsanitize=thread): routing, load
// updates, and drain/rejoin flips hammer the router from many threads
// while every decision is sanity-checked.

#include "fleet/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace ads::fleet {
namespace {

constexpr size_t kShards = 8;
constexpr size_t kReplicas = 3;

TEST(FleetRouterTsanTest, ConcurrentRouteLoadAndDrainAreRaceFree) {
  RouterOptions options;
  options.overload_queue_depth = 40.0;
  options.divert_target_depth = 20.0;
  FleetRouter router(kShards, kReplicas, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> decisions{0};
  std::vector<std::thread> threads;

  // Router callers: the serving hot path.
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&router, &stop, &decisions, t] {
      uint64_t id = t * 1'000'000;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string tenant = "tenant-" + std::to_string(id % 64);
        RouteDecision decision = router.Route(tenant, id);
        ASSERT_LT(decision.shard, kShards);
        ASSERT_LT(decision.home_shard, kShards);
        ASSERT_LT(decision.replica, kReplicas);
        ShardId target = router.RerouteTarget(tenant, decision.shard);
        ASSERT_LT(target, kShards);
        ++id;
        decisions.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Load reporter: the gauge-sampling loop.
  threads.emplace_back([&router, &stop] {
    uint64_t tick = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (ShardId s = 0; s < kShards; ++s) {
        ShardLoad load;
        load.queue_depth = static_cast<size_t>((tick + s) % 80);
        router.UpdateLoad(s, load);
      }
      ++tick;
      std::this_thread::yield();
    }
  });
  // Deploy controller: rolling drain/rejoin flips.
  threads.emplace_back([&router, &stop] {
    ShardId s = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      router.DrainShard(s);
      std::this_thread::yield();
      router.RejoinShard(s);
      s = (s + 1) % kShards;
    }
  });

  while (decisions.load(std::memory_order_relaxed) < 20'000) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  // Quiesced router is coherent: no shard left draining, loads readable.
  for (ShardId s = 0; s < kShards; ++s) {
    if (router.draining(s)) router.RejoinShard(s);
    EXPECT_FALSE(router.draining(s));
    EXPECT_LT(router.load(s).queue_depth, 80u);
  }
  RouteDecision final_decision = router.Route("tenant-1", 1);
  EXPECT_EQ(final_decision.reason == RouteReason::kHome ||
                final_decision.reason == RouteReason::kLoadDivert,
            true);
}

}  // namespace
}  // namespace ads::fleet
