#include "fleet/ledger.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fleet/router.h"
#include "serve/types.h"
#include "telemetry/span.h"

namespace ads::fleet {
namespace {

// What happens to one copy of the flight under test.
enum class Fate {
  kNotFired,     // hedge only: the timer found nothing to hedge
  kServed,
  kShedCapacity,
  kShedDeadline,
  kRejected,     // at the copy's own admission
  kDropped,      // taken off its queue by a drain as a resolved race's loser
};

const char* FateName(Fate fate) {
  switch (fate) {
    case Fate::kNotFired:
      return "not_fired";
    case Fate::kServed:
      return "served";
    case Fate::kShedCapacity:
      return "shed_capacity";
    case Fate::kShedDeadline:
      return "shed_deadline";
    case Fate::kRejected:
      return "rejected";
    case Fate::kDropped:
      return "dropped";
  }
  return "?";
}

enum class Copy { kNone, kPrimary, kHedge };

struct Case {
  Fate primary;
  Fate hedge;
  bool hedge_first;  // the hedge copy finishes before the primary
  Copy rerouted;     // this copy is moved by a drain before it finishes

  std::string Name() const {
    static const char* kCopy[] = {"none", "primary", "hedge"};
    return std::string("primary=") + FateName(primary) +
           " hedge=" + FateName(hedge) +
           (hedge_first ? " hedge_first" : " primary_first") +
           " rerouted=" + kCopy[static_cast<int>(rerouted)];
  }
};

bool Failed(Fate fate) {
  return fate == Fate::kShedCapacity || fate == Fate::kShedDeadline ||
         fate == Fate::kRejected;
}

// Every order of copy events one flight can see.
std::vector<Case> AllCases() {
  const Fate kPrimary[] = {Fate::kServed, Fate::kShedCapacity,
                           Fate::kShedDeadline, Fate::kRejected,
                           Fate::kDropped};
  const Fate kHedge[] = {Fate::kNotFired,     Fate::kServed,
                         Fate::kShedCapacity, Fate::kShedDeadline,
                         Fate::kRejected,     Fate::kDropped};
  std::vector<Case> cases;
  for (Fate primary : kPrimary) {
    for (Fate hedge : kHedge) {
      for (bool hedge_first : {false, true}) {
        for (Copy rerouted : {Copy::kNone, Copy::kPrimary, Copy::kHedge}) {
          const bool fired = hedge != Fate::kNotFired;
          // A primary rejected at admission is never accepted, so no hedge
          // timer is armed and nothing is queued to reroute.
          if (primary == Fate::kRejected &&
              (fired || hedge_first || rerouted != Copy::kNone)) {
            continue;
          }
          if (!fired && (hedge_first || rerouted == Copy::kHedge)) continue;
          // A hedge rejected at its own admission finishes the moment it
          // fires, which is before the primary can finish, and never
          // queues.
          if (hedge == Fate::kRejected &&
              (!hedge_first || rerouted == Copy::kHedge)) {
            continue;
          }
          // A copy is dropped only as the loser of a race the other copy
          // already won.
          if (hedge == Fate::kDropped &&
              (primary != Fate::kServed || hedge_first)) {
            continue;
          }
          if (primary == Fate::kDropped &&
              (hedge != Fate::kServed || !hedge_first)) {
            continue;
          }
          cases.push_back({primary, hedge, hedge_first, rerouted});
        }
      }
    }
  }
  return cases;
}

using Fields = std::array<uint64_t, 17>;

Fields FieldsOf(const ShardCounters& c) {
  return {c.submitted,      c.accepted,     c.rejected_rate_limit,
          c.rejected_capacity, c.rejected_deadline, c.served,
          c.shed_capacity,  c.shed_deadline, c.rerouted_in,
          c.rerouted_out,   c.drain_diverts, c.load_diverts,
          c.hedges_fired,   c.hedge_wins,   c.primary_wins,
          c.hedges_failed,  c.hedges_cancelled};
}

// The ShardCounters invariants, checked independently of the ledger's own.
void ExpectInvariants(const std::vector<ShardCounters>& shards,
                      const std::string& label) {
  uint64_t accepted = 0, finished = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardCounters& c = shards[s];
    EXPECT_EQ(c.submitted, c.accepted + c.Rejected()) << label << " " << s;
    EXPECT_EQ(c.accepted + c.rerouted_in, c.Finished() + c.rerouted_out)
        << label << " shard " << s;
    EXPECT_EQ(c.hedges_fired, c.hedge_wins + c.primary_wins + c.hedges_failed)
        << label << " shard " << s;
    EXPECT_EQ(c.hedges_fired, c.hedges_cancelled) << label << " shard " << s;
    accepted += c.accepted;
    finished += c.Finished();
  }
  EXPECT_EQ(accepted, finished) << label;
}

HedgeOptions Hedging() {
  HedgeOptions hedge;
  hedge.enabled = true;
  return hedge;
}

constexpr uint64_t kId = 7;
constexpr double kAdmitted = 1.0;

struct Location {
  ShardId shard;
  size_t replica;
};

// A flight just opened at home shard 0, replica 0: nothing a previous
// flight did, or a transport stored in it, may show.
void ExpectFresh(const FlightLedger::Flight& flight) {
  EXPECT_DOUBLE_EQ(flight.admitted, kAdmitted);
  EXPECT_EQ(flight.owner, 0u);
  EXPECT_EQ(flight.primary_replica, 0u);
  EXPECT_FALSE(flight.hedge_fired);
  EXPECT_EQ(flight.hedge_home, 0u);
  EXPECT_EQ(flight.hedge_shard, 0u);
  EXPECT_EQ(flight.hedge_replica, 0u);
  EXPECT_FALSE(flight.primary_done);
  EXPECT_FALSE(flight.hedge_done);
  EXPECT_FALSE(flight.resolved);
  EXPECT_EQ(flight.outcome, serve::Outcome::kServed);
  EXPECT_FALSE(flight.primary_failure.has_value());
  EXPECT_EQ(flight.user, nullptr);
  EXPECT_EQ(flight.root_span, telemetry::kNoSpan);
  EXPECT_EQ(flight.hedge_span, telemetry::kNoSpan);
  const serve::Request& prototype = flight.prototype;
  EXPECT_EQ(prototype.id, 0u);
  EXPECT_TRUE(prototype.model.empty());
  EXPECT_TRUE(prototype.tenant.empty());
  EXPECT_TRUE(prototype.features.empty());
  EXPECT_EQ(prototype.priority, 0);
  EXPECT_EQ(prototype.deadline, std::numeric_limits<double>::infinity());
  EXPECT_EQ(prototype.arrival, 0.0);
  EXPECT_EQ(prototype.trace_span, 0u);
  EXPECT_EQ(prototype.pinned_version, 0u);
}

// Runs the flight `kId` through the copy events of `c` on `ledger`, which
// must hold no open flight, and checks that it resolves once and closes
// once with the right outcome and winner latency, and how every counter
// moved. The flight carries a transport's payload (prototype, callback,
// spans) so that a ledger reusing it for a later flight must clear them.
void RunCase(const Case& c, FleetRouter& router, FlightLedger& ledger) {
  const std::vector<ShardCounters> before = ledger.counters();
  serve::Request request;
  request.id = kId;
  request.tenant = "t";

  size_t resolutions = 0;
  size_t closes = 0;
  serve::Outcome outcome = serve::Outcome::kServed;
  double winner_latency = -1.0;
  double first_served_at = -1.0;
  auto record = [&](const FlightLedger::Step& step) {
    ASSERT_NE(step.flight, nullptr);
    if (step.resolved) {
      ++resolutions;
      outcome = step.flight->outcome;
      if (outcome == serve::Outcome::kServed) {
        winner_latency = step.latency_seconds;
      }
    }
    if (step.closed) ++closes;
  };

  RouteDecision decision;  // home shard 0, replica 0
  FlightLedger::Flight* opened = ledger.Open(kId, decision, kAdmitted);
  ASSERT_NE(opened, nullptr);
  ExpectFresh(*opened);
  opened->prototype = request;
  opened->prototype.model = "m";
  opened->prototype.features = {1.0, 2.0};
  opened->prototype.priority = 3;
  opened->user = [](const serve::Response&) {};
  opened->root_span = 11;
  Location primary{0, 0};
  Location hedge{0, 1};
  if (c.primary == Fate::kRejected) {
    record(ledger.OnFailed(kId, 0, 0, serve::Outcome::kRejectedCapacity));
  } else {
    ASSERT_TRUE(ledger.Accept(kId, 0));
    if (c.hedge != Fate::kNotFired) {
      FlightLedger::Flight* flight = ledger.FireHedge(kId);
      ASSERT_NE(flight, nullptr);
      EXPECT_EQ(flight->hedge_shard, 0u);
      EXPECT_EQ(flight->hedge_replica, 1u);
      flight->hedge_span = 12;
      EXPECT_EQ(ledger.FireHedge(kId), nullptr) << "fired twice";
      if (c.hedge == Fate::kRejected) {
        record(
            ledger.OnFailed(kId, 0, 1, serve::Outcome::kRejectedCapacity));
      }
    }
    if (c.rerouted != Copy::kNone) {
      Location& moved = c.rerouted == Copy::kPrimary ? primary : hedge;
      router.DrainShard(moved.shard);
      FlightLedger::Step step =
          ledger.OnDrained(request, moved.shard, moved.replica);
      EXPECT_FALSE(step.resolved || step.closed);
      EXPECT_EQ(step.primary, c.rerouted == Copy::kPrimary);
      moved.shard = step.primary ? step.flight->owner
                                 : step.flight->hedge_shard;
      EXPECT_EQ(moved.shard, 1u);
      router.RejoinShard(0);
    }
    // The copies finish at t = 2 and t = 3, in the case's order.
    double t = 2.0;
    auto finish = [&](Fate fate, const Location& at) {
      switch (fate) {
        case Fate::kServed:
          if (first_served_at < 0.0) first_served_at = t;
          record(ledger.OnServed(kId, at.shard, at.replica, t));
          break;
        case Fate::kShedCapacity:
          record(ledger.OnFailed(kId, at.shard, at.replica,
                                 serve::Outcome::kShedCapacity));
          break;
        case Fate::kShedDeadline:
          record(ledger.OnFailed(kId, at.shard, at.replica,
                                 serve::Outcome::kShedDeadline));
          break;
        case Fate::kDropped: {
          router.DrainShard(at.shard);
          FlightLedger::Step step =
              ledger.OnDrained(request, at.shard, at.replica);
          EXPECT_TRUE(step.flight->resolved) << "dropped a live copy";
          record(step);
          router.RejoinShard(at.shard);
          break;
        }
        case Fate::kNotFired:
        case Fate::kRejected:
          return;  // finished already, or never existed
      }
      t += 1.0;
    };
    if (c.hedge_first) finish(c.hedge, hedge);
    finish(c.primary, primary);
    if (!c.hedge_first) finish(c.hedge, hedge);
  }

  // Exactly one resolution, and the flight closed with the last copy.
  EXPECT_EQ(resolutions, 1u);
  EXPECT_EQ(closes, 1u);
  EXPECT_FALSE(ledger.HasOpenFlight(0) || ledger.HasOpenFlight(1));

  // Served if any copy served, else the primary's failure.
  const bool fired = c.hedge != Fate::kNotFired;
  const bool any_served =
      c.primary == Fate::kServed || c.hedge == Fate::kServed;
  serve::Outcome expected = serve::Outcome::kServed;
  if (!any_served) {
    expected = c.primary == Fate::kShedCapacity ? serve::Outcome::kShedCapacity
               : c.primary == Fate::kShedDeadline
                   ? serve::Outcome::kShedDeadline
                   : serve::Outcome::kRejectedCapacity;
    ASSERT_TRUE(Failed(c.primary));
  }
  EXPECT_EQ(outcome, expected);

  // The winner is the first served copy; its latency runs from the
  // logical request's admission, whichever copy it is.
  const bool hedge_won = c.hedge == Fate::kServed &&
                         (c.hedge_first || c.primary != Fate::kServed);
  if (any_served) {
    EXPECT_DOUBLE_EQ(winner_latency, first_served_at - kAdmitted);
  }

  // Each counter on its shard: route and admission on the first owner,
  // the terminal outcome on the final owner, the hedge counters on the
  // hedge's home.
  std::vector<ShardCounters> want(2);
  want[0].submitted = 1;
  const ShardId final_owner = primary.shard;
  if (c.primary == Fate::kRejected) {
    want[0].rejected_capacity = 1;
  } else {
    want[0].accepted = 1;
    if (expected == serve::Outcome::kServed) want[final_owner].served = 1;
    if (expected == serve::Outcome::kShedCapacity) {
      want[final_owner].shed_capacity = 1;
    }
    if (expected == serve::Outcome::kShedDeadline) {
      want[final_owner].shed_deadline = 1;
    }
  }
  if (c.rerouted == Copy::kPrimary) {
    want[0].rerouted_out = 1;
    want[1].rerouted_in = 1;
  }
  if (fired) {
    want[0].hedges_fired = 1;
    want[0].hedges_cancelled = 1;
    if (!any_served) {
      want[0].hedges_failed = 1;
    } else if (hedge_won) {
      want[0].hedge_wins = 1;
    } else {
      want[0].primary_wins = 1;
    }
  }
  for (ShardId s = 0; s < 2; ++s) {
    Fields moved = FieldsOf(ledger.counters()[s]);
    const Fields base = FieldsOf(before[s]);
    for (size_t f = 0; f < moved.size(); ++f) moved[f] -= base[f];
    EXPECT_EQ(moved, FieldsOf(want[s])) << "shard " << s;
  }
  ExpectInvariants(ledger.counters(), c.Name());
  ledger.CheckInvariants();
}

TEST(FlightLedgerTest, EveryOrderOfCopyEventsResolvesOnceAndBalances) {
  const std::vector<Case> cases = AllCases();
  ASSERT_EQ(cases.size(), 73u);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.Name());
    FleetRouter router(2, 2);
    FlightLedger ledger(&router, Hedging());
    RunCase(c, router, ledger);
  }
}

TEST(FlightLedgerTest, EveryOrderAlsoRunsOnARecycledFlight) {
  // One ledger for all 73 orders, back to back: from the second case on,
  // Open reuses the node the previous flight closed in, and none of that
  // flight's state may carry over.
  const std::vector<Case> cases = AllCases();
  FleetRouter router(2, 2);
  FlightLedger ledger(&router, Hedging());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.Name());
    RunCase(c, router, ledger);
  }
  const ShardCounters total = ledger.Total();
  EXPECT_EQ(total.submitted, cases.size());
  EXPECT_EQ(total.Finished() + total.Rejected(), cases.size());
}

TEST(FlightLedgerTest, DuplicateOpenIsRefusedWithNothingCounted) {
  FleetRouter router(1, 2);
  FlightLedger ledger(&router, Hedging());
  auto serve = [&](uint64_t id) {
    ASSERT_TRUE(ledger.Accept(id, 0));
    EXPECT_TRUE(ledger.OnServed(id, 0, 0, 2.0).closed);
  };
  ASSERT_NE(ledger.Open(1, RouteDecision(), kAdmitted), nullptr);
  ASSERT_NE(ledger.Open(2, RouteDecision(), kAdmitted), nullptr);
  EXPECT_EQ(ledger.Open(2, RouteDecision(), kAdmitted), nullptr);
  EXPECT_EQ(ledger.Total().submitted, 2u);
  serve(1);
  serve(2);
  // Two closed flights wait for reuse: a refused duplicate must keep the
  // node it tried.
  ASSERT_NE(ledger.Open(3, RouteDecision(), kAdmitted), nullptr);
  EXPECT_EQ(ledger.Open(3, RouteDecision(), kAdmitted), nullptr);
  ASSERT_NE(ledger.Open(4, RouteDecision(), kAdmitted), nullptr);
  ASSERT_NE(ledger.Open(5, RouteDecision(), kAdmitted), nullptr);
  EXPECT_EQ(ledger.Total().submitted, 5u);
  serve(3);
  serve(4);
  serve(5);
  EXPECT_EQ(ledger.Total().served, 5u);
  ledger.CheckInvariants();
}

TEST(FlightLedgerTest, HedgeFiresOnlyWithTwoReplicasAndNeverIntoADrain) {
  for (size_t replicas : {1u, 3u}) {
    FleetRouter router(2, replicas);
    FlightLedger ledger(&router, Hedging());
    EXPECT_EQ(ledger.can_hedge(), replicas >= 2);
    RouteDecision decision;
    decision.shard = 1;
    decision.replica = replicas - 1;
    ledger.Open(kId, decision, kAdmitted);
    EXPECT_EQ(ledger.Accept(kId, 1), replicas >= 2);
    if (replicas < 2) {
      EXPECT_EQ(ledger.FireHedge(kId), nullptr);
      continue;
    }
    router.DrainShard(1);
    EXPECT_EQ(ledger.FireHedge(kId), nullptr) << "hedged into a drain";
    router.RejoinShard(1);
    FlightLedger::Flight* flight = ledger.FireHedge(kId);
    ASSERT_NE(flight, nullptr);
    // The next replica of the owner's group, wrapping around.
    EXPECT_EQ(flight->hedge_shard, 1u);
    EXPECT_EQ(flight->hedge_replica, 0u);
  }

  FleetRouter router(1, 2);
  FlightLedger off(&router, HedgeOptions());
  EXPECT_FALSE(off.can_hedge());
  off.Open(kId, RouteDecision(), kAdmitted);
  EXPECT_FALSE(off.Accept(kId, 0));
  EXPECT_EQ(off.FireHedge(kId), nullptr);
}

TEST(FlightLedgerTest, HedgeTimerAfterThePrimaryFinishedFiresNothing) {
  FleetRouter router(1, 2);
  FlightLedger ledger(&router, Hedging());
  ledger.Open(kId, RouteDecision(), kAdmitted);
  ASSERT_TRUE(ledger.Accept(kId, 0));
  FlightLedger::Step step = ledger.OnServed(kId, 0, 0, 1.5);
  EXPECT_TRUE(step.resolved && step.closed);
  EXPECT_EQ(ledger.FireHedge(kId), nullptr);
  EXPECT_EQ(ledger.Total().hedges_fired, 0u);
  ledger.CheckInvariants();
}

TEST(FlightLedgerTest, ServedLatenciesFeedTheHedgeDelay) {
  FleetRouter router(1, 2);
  HedgeOptions hedge = Hedging();
  hedge.min_samples = 2;
  hedge.initial_delay_seconds = 0.05;
  FlightLedger ledger(&router, hedge);
  EXPECT_DOUBLE_EQ(ledger.HedgeDelay(), 0.05);
  // Two hedge-won requests: each latency runs from its own admission, not
  // from the hedge's.
  for (uint64_t id : {1u, 2u}) {
    const double admitted = static_cast<double>(id);
    ledger.Open(id, RouteDecision(), admitted);
    ASSERT_TRUE(ledger.Accept(id, 0));
    ASSERT_NE(ledger.FireHedge(id), nullptr);
    FlightLedger::Step won = ledger.OnServed(id, 0, 1, admitted + 0.25);
    EXPECT_TRUE(won.resolved);
    EXPECT_FALSE(won.primary);
    EXPECT_DOUBLE_EQ(won.latency_seconds, 0.25);
    EXPECT_TRUE(ledger.OnServed(id, 0, 0, admitted + 0.5).closed);
  }
  EXPECT_DOUBLE_EQ(ledger.HedgeDelay(), 0.25);
  EXPECT_EQ(ledger.Total().hedge_wins, 2u);
  ledger.CheckInvariants();
}

TEST(FlightLedgerTest, NoHedgeSignalWhenNoHedgeCanFire) {
  // Hedging off, or a single replica: nothing reads the delay, so served
  // latencies are not fed to it.
  for (const auto& [enabled, replicas] :
       {std::pair<bool, size_t>{false, 2}, {true, 1}}) {
    FleetRouter router(1, replicas);
    HedgeOptions hedge;
    hedge.enabled = enabled;
    hedge.min_samples = 1;
    hedge.initial_delay_seconds = 0.05;
    FlightLedger ledger(&router, hedge);
    ASSERT_FALSE(ledger.can_hedge());
    for (uint64_t id : {1u, 2u, 3u}) {
      ledger.Open(id, RouteDecision(), 0.0);
      EXPECT_FALSE(ledger.Accept(id, 0));
      EXPECT_TRUE(ledger.OnServed(id, 0, 0, 0.25).resolved);
    }
    EXPECT_DOUBLE_EQ(ledger.HedgeDelay(), 0.05);
    ledger.CheckInvariants();
  }
}

}  // namespace
}  // namespace ads::fleet
