#include "fleet/ledger.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace ads::fleet {

namespace {

/// Returns a closed flight to the state of a fresh one, keeping only its
/// prototype's feature buffer (emptied) for the next copy to fill.
void Renew(FlightLedger::Flight* flight) {
  std::vector<double> features = std::move(flight->prototype.features);
  *flight = FlightLedger::Flight();
  features.clear();
  flight->prototype.features = std::move(features);
}

}  // namespace

FlightLedger::FlightLedger(const FleetRouter* router, HedgeOptions hedge)
    : router_(router),
      hedge_(hedge),
      can_hedge_(hedge.enabled && router->replicas_per_shard() >= 2),
      counters_(router->shards()) {}

FlightLedger::Flight* FlightLedger::Open(uint64_t id,
                                         const RouteDecision& decision,
                                         double now) {
  FlightMap::iterator it;
  if (spare_.empty()) {
    bool inserted = false;
    std::tie(it, inserted) = flights_.try_emplace(id);
    if (!inserted) return nullptr;
  } else {
    spare_.back().key() = id;
    auto reused = flights_.insert(std::move(spare_.back()));
    if (!reused.inserted) {
      spare_.back() = std::move(reused.node);
      return nullptr;
    }
    spare_.pop_back();
    it = reused.position;
    Renew(&it->second);
  }
  counters_[decision.shard].submitted += 1;
  if (decision.reason == RouteReason::kDrainDivert) {
    counters_[decision.home_shard].drain_diverts += 1;
  } else if (decision.reason == RouteReason::kLoadDivert) {
    counters_[decision.home_shard].load_diverts += 1;
  }
  Flight& flight = it->second;
  flight.admitted = now;
  flight.owner = decision.shard;
  flight.primary_replica = decision.replica;
  return &flight;
}

bool FlightLedger::Accept(uint64_t id, ShardId shard) {
  counters_[shard].accepted += 1;
  if (!can_hedge_) return false;
  // A threaded primary can be served before its Submit returns; a closed
  // flight has nothing left to hedge.
  auto it = flights_.find(id);
  return it != flights_.end() && !it->second.primary_done;
}

FlightLedger::Flight* FlightLedger::FireHedge(uint64_t id) {
  if (!can_hedge_) return nullptr;
  auto it = flights_.find(id);
  if (it == flights_.end()) return nullptr;
  Flight& flight = it->second;
  if (flight.primary_done || flight.hedge_fired) return nullptr;
  // Never hedge into a draining shard: the duplicate would be rerouted
  // away at once, buying latency for nothing.
  if (router_->draining(flight.owner)) return nullptr;
  flight.hedge_fired = true;
  flight.hedge_home = flight.owner;
  flight.hedge_shard = flight.owner;
  flight.hedge_replica =
      (flight.primary_replica + 1) % router_->replicas_per_shard();
  counters_[flight.hedge_home].hedges_fired += 1;
  return &flight;
}

FlightLedger::FlightMap::iterator FlightLedger::Find(uint64_t id) {
  auto it = flights_.find(id);
  ADS_CHECK(it != flights_.end()) << "copy event for unknown request " << id;
  return it;
}

FlightLedger::Step FlightLedger::Locate(FlightMap::iterator it, ShardId shard,
                                        size_t replica, bool done) {
  Flight& flight = it->second;
  Step step;
  step.flight = &flight;
  step.primary = flight.owner == shard && flight.primary_replica == replica;
  ADS_CHECK(step.primary ? !flight.primary_done
                         : flight.hedge_fired && !flight.hedge_done &&
                               flight.hedge_shard == shard &&
                               flight.hedge_replica == replica)
      << "copy event at a shard/replica owning no live copy of "
      << it->first;
  (step.primary ? flight.primary_done : flight.hedge_done) = done;
  return step;
}

FlightLedger::Step FlightLedger::OnServed(uint64_t id, ShardId shard,
                                          size_t replica, double now) {
  auto it = Find(id);
  Step step = Locate(it, shard, replica, /*done=*/true);
  Flight& flight = *step.flight;
  if (!flight.resolved) {
    // First served copy wins, whichever it is.
    flight.resolved = true;
    flight.outcome = serve::Outcome::kServed;
    step.resolved = true;
    step.latency_seconds = now - flight.admitted;
    if (can_hedge_) hedge_.Observe(step.latency_seconds);
    Count(flight.owner, serve::Outcome::kServed);
    if (flight.hedge_fired) {
      ShardCounters& home = counters_[flight.hedge_home];
      (step.primary ? home.primary_wins : home.hedge_wins) += 1;
    }
  }
  MaybeClose(it, &step);
  return step;
}

FlightLedger::Step FlightLedger::OnFailed(uint64_t id, ShardId shard,
                                          size_t replica,
                                          serve::Outcome outcome) {
  auto it = Find(id);
  Step step = Locate(it, shard, replica, /*done=*/true);
  if (step.primary) step.flight->primary_failure = outcome;
  MaybeClose(it, &step);
  return step;
}

FlightLedger::Step FlightLedger::OnDrained(const serve::Request& copy,
                                           ShardId shard, size_t replica) {
  auto it = Find(copy.id);
  Flight& flight = it->second;
  // A resolved race's loser: the drain is a natural cancellation point.
  Step step = Locate(it, shard, replica, /*done=*/flight.resolved);
  if (flight.resolved) {
    MaybeClose(it, &step);
    return step;
  }
  const ShardId target = router_->RerouteTarget(copy.tenant, shard);
  if (target == shard) return step;  // every other shard drains too
  if (step.primary) {
    // Ownership transfer: the terminal outcome is counted on the target.
    counters_[shard].rerouted_out += 1;
    counters_[target].rerouted_in += 1;
    flight.owner = target;
  } else {
    flight.hedge_shard = target;
  }
  return step;
}

void FlightLedger::MaybeClose(FlightMap::iterator it, Step* step) {
  Flight& flight = it->second;
  if (!flight.primary_done || (flight.hedge_fired && !flight.hedge_done)) {
    return;  // a copy is still out
  }
  if (!flight.resolved) {
    // Every copy failed: the logical outcome is the primary's failure.
    ADS_CHECK(flight.primary_failure.has_value())
        << "closing request " << it->first << " with no outcome";
    flight.resolved = true;
    flight.outcome = *flight.primary_failure;
    step->resolved = true;
    Count(flight.owner, flight.outcome);
    // A hedge race both copies lost has no winner.
    if (flight.hedge_fired) counters_[flight.hedge_home].hedges_failed += 1;
  }
  // Exactly one loser per fired hedge, whatever its fate.
  if (flight.hedge_fired) counters_[flight.hedge_home].hedges_cancelled += 1;
  step->closed = true;
  spare_.push_back(flights_.extract(it));
  step->flight = &spare_.back().mapped();
}

void FlightLedger::Count(ShardId shard, serve::Outcome outcome) {
  ShardCounters& c = counters_[shard];
  switch (outcome) {
    case serve::Outcome::kServed:
      c.served += 1;
      return;
    case serve::Outcome::kRejectedRateLimit:
      c.rejected_rate_limit += 1;
      return;
    case serve::Outcome::kRejectedCapacity:
      c.rejected_capacity += 1;
      return;
    case serve::Outcome::kRejectedDeadline:
      c.rejected_deadline += 1;
      return;
    case serve::Outcome::kShedCapacity:
      c.shed_capacity += 1;
      return;
    case serve::Outcome::kShedDeadline:
      c.shed_deadline += 1;
      return;
  }
  ADS_CHECK(false) << "unknown outcome";
}

ShardCounters FlightLedger::Total() const {
  ShardCounters total;
  for (const ShardCounters& c : counters_) {
    total.submitted += c.submitted;
    total.accepted += c.accepted;
    total.rejected_rate_limit += c.rejected_rate_limit;
    total.rejected_capacity += c.rejected_capacity;
    total.rejected_deadline += c.rejected_deadline;
    total.served += c.served;
    total.shed_capacity += c.shed_capacity;
    total.shed_deadline += c.shed_deadline;
    total.rerouted_in += c.rerouted_in;
    total.rerouted_out += c.rerouted_out;
    total.drain_diverts += c.drain_diverts;
    total.load_diverts += c.load_diverts;
    total.hedges_fired += c.hedges_fired;
    total.hedge_wins += c.hedge_wins;
    total.primary_wins += c.primary_wins;
    total.hedges_failed += c.hedges_failed;
    total.hedges_cancelled += c.hedges_cancelled;
  }
  return total;
}

bool FlightLedger::HasOpenFlight(ShardId shard) const {
  return std::any_of(flights_.begin(), flights_.end(),
                     [shard](const auto& entry) {
                       return entry.second.owner == shard;
                     });
}

void FlightLedger::CheckInvariants() const {
  ADS_CHECK(flights_.empty())
      << flights_.size() << " flights still open at the ledger check";
  for (ShardId shard = 0; shard < counters_.size(); ++shard) {
    const ShardCounters& c = counters_[shard];
    ADS_CHECK(c.submitted == c.accepted + c.Rejected())
        << "shard " << shard << ": admission not total";
    ADS_CHECK(c.accepted + c.rerouted_in == c.Finished() + c.rerouted_out)
        << "shard " << shard << ": ownership ledger out of balance";
    ADS_CHECK(c.hedges_fired ==
              c.hedge_wins + c.primary_wins + c.hedges_failed)
        << "shard " << shard << ": a fired hedge has no outcome";
    ADS_CHECK(c.hedges_fired == c.hedges_cancelled)
        << "shard " << shard << ": a fired hedge has no cancelled loser";
  }
  const ShardCounters fleet = Total();
  ADS_CHECK(fleet.accepted == fleet.served + fleet.Shed())
      << "fleet ledger out of balance";
}

}  // namespace ads::fleet
