#include "fleet/router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "fleet/ring.h"

namespace ads::fleet {
namespace {

// A reference ring built with the router's own options, used to predict
// the fallback order the router must follow.
std::vector<ShardId> Prefs(const FleetRouter& router,
                           const std::string& tenant) {
  HashRing ring(router.options().ring);
  for (ShardId s = 0; s < router.shards(); ++s) ring.AddShard(s);
  return ring.PreferenceOrder(tenant, router.shards());
}

TEST(FleetRouterTest, RoutesToConsistentHashHome) {
  FleetRouter router(4, 2);
  for (size_t i = 0; i < 200; ++i) {
    const std::string tenant = "t" + std::to_string(i);
    RouteDecision decision = router.Route(tenant, i);
    EXPECT_EQ(decision.shard, Prefs(router, tenant)[0]);
    EXPECT_EQ(decision.home_shard, decision.shard);
    EXPECT_EQ(decision.reason, RouteReason::kHome);
    EXPECT_LT(decision.replica, 2u);
  }
}

TEST(FleetRouterTest, ReplicaSpreadIsDeterministicAndUsesWholeGroup) {
  FleetRouter router(2, 4);
  std::set<size_t> replicas_seen;
  for (uint64_t id = 0; id < 64; ++id) {
    RouteDecision a = router.Route("tenant", id);
    RouteDecision b = router.Route("tenant", id);
    EXPECT_EQ(a.replica, b.replica) << "replica choice not deterministic";
    replicas_seen.insert(a.replica);
  }
  // One tenant's requests fan over the replica group, not hot-spot one.
  EXPECT_EQ(replicas_seen.size(), 4u);
}

TEST(FleetRouterTest, ReplicaIsTheSeededHashOfTenantAndId) {
  // Pins the replica spread to its string definition, so computing the
  // key without building the string cannot silently move requests.
  for (uint64_t seed : {uint64_t{0x5eed}, uint64_t{42}}) {
    RouterOptions options;
    options.ring.seed = seed;
    FleetRouter router(3, 5, options);
    for (const std::string tenant : {"tenant-a", "t7", ""}) {
      for (uint64_t id : {uint64_t{0}, uint64_t{9}, uint64_t{10},
                          std::numeric_limits<uint64_t>::max()}) {
        const size_t expected = static_cast<size_t>(
            HashRing::HashKey(seed ^ 0x9e3779b97f4a7c15ull,
                              tenant + "#" + std::to_string(id)) %
            5);
        EXPECT_EQ(router.Route(tenant, id).replica, expected)
            << tenant << " " << id;
      }
    }
  }
}

TEST(FleetRouterTest, DrainDivertsToFirstFallbackAndRejoinRestores) {
  FleetRouter router(4, 2);
  const std::string tenant = "tenant-42";
  std::vector<ShardId> prefs = Prefs(router, tenant);
  const ShardId home = prefs[0];

  router.DrainShard(home);
  EXPECT_TRUE(router.draining(home));
  RouteDecision diverted = router.Route(tenant, 1);
  EXPECT_EQ(diverted.shard, prefs[1]);
  EXPECT_EQ(diverted.home_shard, home);
  EXPECT_EQ(diverted.reason, RouteReason::kDrainDivert);

  router.RejoinShard(home);
  EXPECT_FALSE(router.draining(home));
  RouteDecision back = router.Route(tenant, 2);
  EXPECT_EQ(back.shard, home);
  EXPECT_EQ(back.reason, RouteReason::kHome);
}

TEST(FleetRouterTest, DrainSkipsDrainingFallbacks) {
  FleetRouter router(4, 1);
  const std::string tenant = "tenant-7";
  std::vector<ShardId> prefs = Prefs(router, tenant);
  router.DrainShard(prefs[0]);
  router.DrainShard(prefs[1]);
  RouteDecision decision = router.Route(tenant, 1);
  EXPECT_EQ(decision.shard, prefs[2]);
  EXPECT_EQ(decision.reason, RouteReason::kDrainDivert);
}

TEST(FleetRouterTest, AllShardsDrainingFallsBackToHome) {
  FleetRouter router(3, 1);
  for (ShardId s = 0; s < 3; ++s) router.DrainShard(s);
  const std::string tenant = "tenant-9";
  RouteDecision decision = router.Route(tenant, 1);
  // Routing never drops a request: the home shard takes it and its own
  // admission control decides.
  EXPECT_EQ(decision.shard, Prefs(router, tenant)[0]);
}

TEST(FleetRouterTest, LoadDivertRespectsTargetDepth) {
  RouterOptions options;
  options.overload_queue_depth = 10.0;
  options.divert_target_depth = 5.0;
  FleetRouter router(3, 1, options);
  const std::string tenant = "tenant-3";
  std::vector<ShardId> prefs = Prefs(router, tenant);

  // Below the threshold: home keeps the traffic.
  router.UpdateLoad(prefs[0], {.queue_depth = 10});
  EXPECT_EQ(router.Route(tenant, 1).reason, RouteReason::kHome);

  // Overloaded home, healthy first fallback: divert there.
  router.UpdateLoad(prefs[0], {.queue_depth = 50});
  RouteDecision diverted = router.Route(tenant, 2);
  EXPECT_EQ(diverted.shard, prefs[1]);
  EXPECT_EQ(diverted.reason, RouteReason::kLoadDivert);

  // First fallback too deep to help: skip to the second.
  router.UpdateLoad(prefs[1], {.queue_depth = 8});
  RouteDecision skipped = router.Route(tenant, 3);
  EXPECT_EQ(skipped.shard, prefs[2]);
  EXPECT_EQ(skipped.reason, RouteReason::kLoadDivert);

  // Every alternative is drowning too: the home shard sheds for itself.
  router.UpdateLoad(prefs[2], {.queue_depth = 9});
  RouteDecision stuck = router.Route(tenant, 4);
  EXPECT_EQ(stuck.shard, prefs[0]);
  EXPECT_EQ(stuck.reason, RouteReason::kHome);
}

TEST(FleetRouterTest, RerouteTargetSkipsExcludedAndDraining) {
  FleetRouter router(4, 2);
  const std::string tenant = "tenant-11";
  std::vector<ShardId> prefs = Prefs(router, tenant);
  EXPECT_EQ(router.RerouteTarget(tenant, prefs[0]), prefs[1]);
  router.DrainShard(prefs[1]);
  EXPECT_EQ(router.RerouteTarget(tenant, prefs[0]), prefs[2]);
  router.DrainShard(prefs[2]);
  router.DrainShard(prefs[3]);
  // Nowhere to go: the excluded shard is returned and the caller keeps
  // the work in place.
  EXPECT_EQ(router.RerouteTarget(tenant, prefs[0]), prefs[0]);
}

TEST(FleetRouterTest, RouteReasonNames) {
  EXPECT_STREQ(RouteReasonName(RouteReason::kHome), "home");
  EXPECT_STREQ(RouteReasonName(RouteReason::kDrainDivert), "drain_divert");
  EXPECT_STREQ(RouteReasonName(RouteReason::kLoadDivert), "load_divert");
}

}  // namespace
}  // namespace ads::fleet
