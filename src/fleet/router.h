#ifndef ADS_FLEET_ROUTER_H_
#define ADS_FLEET_ROUTER_H_

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/ring.h"
#include "fleet/types.h"

namespace ads::fleet {

/// Cross-shard load snapshot one shard publishes into the router: the
/// signal the load-aware divert reads (instantaneous queued requests).
struct ShardLoad {
  size_t queue_depth = 0;
};

struct RouterOptions {
  RingOptions ring;
  /// Load-aware divert: an arrival whose home shard's published queue
  /// depth exceeds this is routed to the first fallback shard whose depth
  /// is at most divert_target_depth. Infinity disables load diverts.
  double overload_queue_depth = std::numeric_limits<double>::infinity();
  /// A fallback must be at most this deep to take diverted traffic
  /// (prevents shuffling load between two equally drowning shards).
  double divert_target_depth = std::numeric_limits<double>::infinity();
};

/// Why a request landed on its shard.
enum class RouteReason {
  kHome = 0,      // consistent-hash home shard
  kDrainDivert,   // home shard is draining
  kLoadDivert,    // home shard over the load threshold
};
const char* RouteReasonName(RouteReason reason);

struct RouteDecision {
  ShardId shard = 0;
  size_t replica = 0;
  ShardId home_shard = 0;
  RouteReason reason = RouteReason::kHome;
};

/// Placement front door of the fleet: consistent-hash home placement,
/// drain-aware and load-aware diverts, and deterministic replica spread
/// within the chosen shard. Both runtimes (VirtualFleet from its event
/// loop, FleetRuntime from concurrent Submit callers) route through this
/// one object; it is thread-safe and, given the same ring seed, drain
/// flags, and published loads, bit-deterministic.
class FleetRouter {
 public:
  FleetRouter(size_t shards, size_t replicas_per_shard,
              RouterOptions options = RouterOptions());

  /// Routes one arrival. Deterministic in (tenant, request_id, ring seed,
  /// drain flags, published loads). When every shard is draining the home
  /// shard takes the request anyway — admission control there decides its
  /// fate; routing never silently drops. Allocation-free unless the home
  /// shard is draining or over its queue-depth limit.
  RouteDecision Route(const std::string& tenant, uint64_t request_id) const;

  /// Marks a shard as draining: new arrivals divert to ring fallbacks
  /// until RejoinShard. Idempotent.
  void DrainShard(ShardId shard);
  void RejoinShard(ShardId shard);
  bool draining(ShardId shard) const;

  /// Publishes one shard's load snapshot (overwrites the previous one).
  void UpdateLoad(ShardId shard, const ShardLoad& load);
  ShardLoad load(ShardId shard) const;

  /// First non-draining shard in the tenant's preference order excluding
  /// `exclude` — the mid-drain reroute target for queued requests.
  /// Returns `exclude` itself if every other shard is draining.
  ShardId RerouteTarget(const std::string& tenant, ShardId exclude) const;

  size_t shards() const { return shard_count_; }
  size_t replicas_per_shard() const { return replicas_per_shard_; }
  const RouterOptions& options() const { return options_; }

 private:
  const size_t shard_count_;
  const size_t replicas_per_shard_;
  const RouterOptions options_;

  mutable std::mutex mu_;
  HashRing ring_;
  std::vector<uint8_t> draining_;
  std::vector<ShardLoad> load_;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_ROUTER_H_
