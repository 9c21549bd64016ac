#ifndef ADS_FLEET_LEDGER_H_
#define ADS_FLEET_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "fleet/hedge.h"
#include "fleet/router.h"
#include "fleet/types.h"
#include "serve/types.h"
#include "telemetry/span.h"

namespace ads::fleet {

/// The hedge race both fleet twins drive, and the only writer of their
/// ShardCounters. Like serve::ServingCore it owns no thread, clock, tracer
/// or callback: FleetRuntime calls it under its mutex on a steady clock,
/// VirtualFleet from its event loop in virtual time. A flight is one
/// logical request — a primary copy and at most one hedge copy; the
/// transport admits the copies and reports each copy event here. Rules:
///  - the first served copy wins; its latency is its completion minus the
///    logical request's admission, and feeds the HedgePolicy when a hedge
///    can fire;
///  - the primary's failure is held while a hedge runs;
///  - a hedge fires only with >= 2 replicas, onto the next replica of the
///    owner's group, and never into a draining shard;
///  - a flight closes once every copy is done;
///  - a drain moves an unresolved queued copy to the tenant's first
///    healthy fallback (the primary's ownership with it) and drops a
///    resolved race's loser.
/// A closed flight's map node is kept and reused by a later Open, so a
/// steady stream of requests allocates no flights.
class FlightLedger {
 public:
  struct Flight {
    /// Version-pinned source of the hedge copy; the transport fills it
    /// only when can_hedge(), and moves it out when the hedge fires. A
    /// reused flight opens with it empty but keeps its feature buffer, so
    /// copying a request in allocates nothing.
    serve::Request prototype;
    /// The logical request's admission: the base of its latency.
    double admitted = 0.0;
    /// Shard owning the primary copy (moves with a drain reroute).
    ShardId owner = 0;
    size_t primary_replica = 0;
    bool hedge_fired = false;
    /// Shard the hedge counters live on (the owner when it fired).
    ShardId hedge_home = 0;
    /// Where the hedge copy sits now (moves with a drain reroute).
    ShardId hedge_shard = 0;
    size_t hedge_replica = 0;
    bool primary_done = false;
    bool hedge_done = false;
    bool resolved = false;
    /// The logical outcome once resolved.
    serve::Outcome outcome = serve::Outcome::kServed;
    /// Set when the primary copy failed (the core closed its span).
    std::optional<serve::Outcome> primary_failure;
    /// Carried for the transports, never read here: FleetRuntime's user
    /// callback, VirtualFleet's root and hedge spans.
    std::function<void(const serve::Response&)> user;
    telemetry::SpanId root_span = telemetry::kNoSpan;
    telemetry::SpanId hedge_span = telemetry::kNoSpan;
  };
  using FlightMap = std::map<uint64_t, Flight>;

  /// What one copy event did to its flight.
  struct Step {
    /// The flight. Once closed it stays valid until the transport's next
    /// call into the ledger, which may reuse it.
    Flight* flight = nullptr;
    /// The event was about the primary copy (else the hedge copy).
    bool primary = true;
    /// This event resolved the request: deliver exactly one response,
    /// flight->outcome (served: latency_seconds since admission).
    bool resolved = false;
    /// Every copy is done and the flight has left the ledger.
    bool closed = false;
    double latency_seconds = 0.0;
  };

  /// `router` (borrowed) sizes the fleet and answers drain questions.
  FlightLedger(const FleetRouter* router, HedgeOptions hedge);

  /// Whether a hedge can ever fire: only then is a request copied into
  /// its flight's prototype.
  bool can_hedge() const { return can_hedge_; }
  double HedgeDelay() const { return hedge_.Delay(); }

  /// Opens the flight of a fresh arrival that `decision` placed, admitted
  /// at `now`, and counts the route. Null, with nothing counted, when a
  /// flight for `id` is still open.
  Flight* Open(uint64_t id, const RouteDecision& decision, double now);
  /// Counts an accepted primary on `shard`; true when the transport should
  /// arm a hedge timer for it.
  bool Accept(uint64_t id, ShardId shard);
  /// The hedge timer of `id` expired. Returns the flight with hedge_shard
  /// and hedge_replica set when a hedge fires, null otherwise.
  Flight* FireHedge(uint64_t id);

  /// The copy of `id` at (shard, replica) was served at `now`.
  Step OnServed(uint64_t id, ShardId shard, size_t replica, double now);
  /// The copy of `id` at (shard, replica) failed with `outcome`: rejected
  /// at its own admission, or shed.
  Step OnFailed(uint64_t id, ShardId shard, size_t replica,
                serve::Outcome outcome);
  /// A drain of `shard` took `copy` off replica `replica`'s queue. A
  /// resolved flight's copy is dropped (done); any other moves to
  /// flight->owner (primary) or flight->hedge_shard (hedge), which stays
  /// `shard` when every other shard is draining.
  Step OnDrained(const serve::Request& copy, ShardId shard, size_t replica);

  const std::vector<ShardCounters>& counters() const { return counters_; }
  /// Element-wise sum over shards.
  ShardCounters Total() const;
  /// Whether an open flight's primary is owned by `shard`.
  bool HasOpenFlight(ShardId shard) const;
  /// Checks that every flight closed and the invariants documented on
  /// ShardCounters hold.
  void CheckInvariants() const;

 private:
  FlightMap::iterator Find(uint64_t id);
  /// Names the live copy at (shard, replica), primary or hedge, and marks
  /// it done when `done`.
  Step Locate(FlightMap::iterator it, ShardId shard, size_t replica,
              bool done);
  /// Once every copy is done: resolves with the primary's failure if
  /// nothing served, and closes the flight.
  void MaybeClose(FlightMap::iterator it, Step* step);
  /// The outcome-to-counter mapping.
  void Count(ShardId shard, serve::Outcome outcome);

  const FleetRouter* router_;
  HedgePolicy hedge_;
  const bool can_hedge_;
  FlightMap flights_;
  /// Closed flights' nodes, for Open to reuse.
  std::vector<FlightMap::node_type> spare_;
  std::vector<ShardCounters> counters_;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_LEDGER_H_
