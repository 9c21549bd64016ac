#ifndef ADS_FLEET_TYPES_H_
#define ADS_FLEET_TYPES_H_

#include <cstddef>
#include <cstdint>

namespace ads::fleet {

/// Index of one shard within the fleet (0-based, dense).
using ShardId = size_t;

/// Fleet-level accounting for one shard, written only by the FlightLedger
/// (the per-replica serve::Counters underneath keep counting every copy
/// that passes through a core — including hedge duplicates and rerouted
/// re-injections — so they are load views, not the ledger).
///
/// Accounting is by *logical request* and follows ownership: a request is
/// owned by the shard its primary copy sits on; a mid-drain reroute
/// transfers ownership (rerouted_out on the source, rerouted_in on the
/// target) and the terminal outcome is counted against the owner at
/// emission time. Hedge duplicates never touch the served/shed ledger —
/// they only move the hedge counters. The invariants the fleet tests
/// enforce, per shard after a full drain:
///
///   accepted + rerouted_in == served + shed_capacity + shed_deadline
///                             + rerouted_out
///   hedges_fired == hedge_wins + primary_wins + hedges_failed
///                               (one winner per hedge, unless every copy
///                                of the request failed)
///   hedges_fired == hedges_cancelled            (one loser per hedge)
///
/// and fleet-wide, because reroute in/out telescope:
///
///   sum(accepted) == sum(served) + sum(shed_*)
struct ShardCounters {
  /// Fresh arrivals whose route landed here (hedge duplicates excluded).
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected_rate_limit = 0;
  uint64_t rejected_capacity = 0;
  uint64_t rejected_deadline = 0;
  /// Owned requests whose terminal outcome was a served response.
  uint64_t served = 0;
  uint64_t shed_capacity = 0;
  uint64_t shed_deadline = 0;
  /// Ownership transfers from/to this shard (queued requests moved by a
  /// shard drain).
  uint64_t rerouted_in = 0;
  uint64_t rerouted_out = 0;
  /// Arrivals whose home was this shard but were diverted at route time
  /// (shard draining, or load-aware overload divert). Informational: the
  /// diverted request is accounted on the shard that actually took it.
  uint64_t drain_diverts = 0;
  uint64_t load_diverts = 0;
  /// Hedge duplicates launched for requests owned here; wins split by
  /// which copy finished first; every fired hedge eventually resolves
  /// exactly one cancelled loser.
  uint64_t hedges_fired = 0;
  uint64_t hedge_wins = 0;
  uint64_t primary_wins = 0;
  /// Hedged requests where *both* copies failed (shed or rejected): the
  /// race had no winner and the logical outcome is the primary's failure.
  uint64_t hedges_failed = 0;
  uint64_t hedges_cancelled = 0;

  uint64_t Rejected() const {
    return rejected_rate_limit + rejected_capacity + rejected_deadline;
  }
  uint64_t Shed() const { return shed_capacity + shed_deadline; }
  uint64_t Finished() const { return served + Shed(); }
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_TYPES_H_
