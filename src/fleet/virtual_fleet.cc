#include "fleet/virtual_fleet.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "telemetry/gauges.h"

namespace ads::fleet {

namespace {

std::string ShardName(ShardId shard) {
  return "shard-" + std::to_string(shard);
}

}  // namespace

VirtualFleet::VirtualFleet(VirtualFleetOptions options,
                           telemetry::TelemetryStore* store)
    : options_(options),
      store_(store),
      router_(options.shards, options.replicas_per_shard, options.router),
      hedge_(options.hedge),
      counters_(options.shards),
      drain_spans_(options.shards, telemetry::kNoSpan),
      shard_latency_(options.shards) {
  ADS_CHECK(options_.workers_per_replica >= 1)
      << "need at least one virtual worker per replica";
  ADS_CHECK(options_.service.batch_overhead_seconds >= 0.0 &&
            options_.service.per_item_seconds >= 0.0)
      << "negative service time";
  ADS_CHECK(options_.slow_probability >= 0.0 &&
            options_.slow_probability <= 1.0)
      << "slow_probability out of [0,1]";
  ADS_CHECK(options_.slow_multiplier >= 1.0)
      << "slow_multiplier must be >= 1";
  // Fork noise streams in (shard, replica) order so the fleet layout, not
  // event timing, fixes which stream each replica owns.
  common::Rng master(options_.seed);
  replicas_.reserve(options_.shards * options_.replicas_per_shard);
  for (size_t i = 0; i < options_.shards * options_.replicas_per_shard; ++i) {
    replicas_.emplace_back(options_.core, master.engine()());
  }
}

void VirtualFleet::RegisterBackend(const std::string& model,
                                   autonomy::ResilientModelServer* backend) {
  ADS_CHECK(backend != nullptr) << "null backend";
  backends_[model] = backend;
}

void VirtualFleet::SetRouter(const autonomy::VersionRouter* router) {
  ADS_CHECK(!ran_) << "SetRouter after Run()";
  version_router_ = router;
}

void VirtualFleet::SetTracer(telemetry::Tracer* tracer) {
  ADS_CHECK(!ran_) << "SetTracer after Run()";
  tracer_ = tracer;
  for (Replica& replica : replicas_) replica.core.SetTracer(tracer);
}

void VirtualFleet::SetResponseCallback(Callback callback) {
  callback_ = std::move(callback);
}

void VirtualFleet::SubmitAt(double t, serve::Request request) {
  ADS_CHECK(!ran_) << "SubmitAt after Run()";
  queue_.ScheduleAt(t, [this, r = std::move(request)](
                           common::SimTime now) mutable {
    OnArrival(std::move(r), now);
  });
}

void VirtualFleet::ScheduleDrain(double t, ShardId shard) {
  ADS_CHECK(!ran_) << "ScheduleDrain after Run()";
  ADS_CHECK(shard < options_.shards) << "drain of unknown shard " << shard;
  queue_.ScheduleAt(
      t, [this, shard](common::SimTime now) { DrainShardNow(shard, now); });
}

void VirtualFleet::ScheduleRejoin(double t, ShardId shard) {
  ADS_CHECK(!ran_) << "ScheduleRejoin after Run()";
  ADS_CHECK(shard < options_.shards) << "rejoin of unknown shard " << shard;
  queue_.ScheduleAt(
      t, [this, shard](common::SimTime now) { RejoinShardNow(shard, now); });
}

void VirtualFleet::ScheduleRollingDrain(double start, double dwell_seconds) {
  ADS_CHECK(dwell_seconds > 0.0) << "rolling drain needs a positive dwell";
  for (ShardId shard = 0; shard < options_.shards; ++shard) {
    const double t = start + static_cast<double>(shard) * dwell_seconds;
    ScheduleDrain(t, shard);
    ScheduleRejoin(t + dwell_seconds, shard);
  }
}

size_t VirtualFleet::ShardQueueDepth(ShardId shard) const {
  size_t depth = 0;
  for (size_t r = 0; r < options_.replicas_per_shard; ++r) {
    depth += replicas_[shard * options_.replicas_per_shard + r].core.queued();
  }
  return depth;
}

size_t VirtualFleet::FleetQueueDepth() const {
  size_t depth = 0;
  for (const Replica& replica : replicas_) depth += replica.core.queued();
  return depth;
}

void VirtualFleet::Emit(const serve::Response& response) {
  if (callback_ != nullptr) callback_(response);
}

void VirtualFleet::PublishLoad(ShardId shard) {
  ShardLoad load;
  load.queue_depth = ShardQueueDepth(shard);
  router_.UpdateLoad(shard, load);
}

void VirtualFleet::OnArrival(serve::Request request, double now) {
  auto backend_it = backends_.find(request.model);
  ADS_CHECK(backend_it != backends_.end())
      << "unregistered model: " << request.model;
  const uint64_t id = request.id;
  ADS_CHECK(pending_.find(id) == pending_.end())
      << "duplicate request id " << id;

  const RouteDecision decision = router_.Route(request.tenant, id);
  counters_[decision.shard].submitted += 1;
  if (decision.reason == RouteReason::kDrainDivert) {
    counters_[decision.home_shard].drain_diverts += 1;
  } else if (decision.reason == RouteReason::kLoadDivert) {
    counters_[decision.home_shard].load_diverts += 1;
  }

  // The fleet opens the causal root before admission: the routing verdict
  // is part of the request's story, and a hedge needs a parent that
  // outlives either single copy.
  telemetry::SpanId root = telemetry::kNoSpan;
  if (tracer_ != nullptr) {
    root = tracer_->StartSpan("request", "req-" + std::to_string(id),
                              telemetry::kNoSpan, now);
    tracer_->Annotate(root, "model", request.model);
    tracer_->Annotate(root, "tenant", request.tenant);
    if (request.priority != 0) {
      tracer_->Annotate(root, "priority", std::to_string(request.priority));
    }
    telemetry::SpanId route =
        tracer_->StartSpan("route", ShardName(decision.shard), root, now);
    tracer_->Annotate(route, "reason", RouteReasonName(decision.reason));
    tracer_->Annotate(route, "home", ShardName(decision.home_shard));
    tracer_->Annotate(route, "replica", std::to_string(decision.replica));
    tracer_->EndSpan(route, now);
    request.trace_span = root;
  }

  // Pin the model version once per logical request; both copies and any
  // rerouted re-injection serve under this pin.
  if (request.pinned_version == 0 && version_router_ != nullptr) {
    request.pinned_version =
        version_router_->Route(request.model, request.tenant);
  }
  if (request.pinned_version == 0) {
    request.pinned_version = backend_it->second->CurrentDeployedVersion();
  }

  // Keep a copy for the hedge duplicate only when a hedge can fire.
  const bool can_hedge = hedge_.enabled() && options_.replicas_per_shard >= 2;
  serve::Request prototype;
  if (can_hedge) {
    prototype = request;
    prototype.arrival = now;
  }
  Replica& target = replica(decision.shard, decision.replica);
  serve::AdmitResult admit = target.core.Admit(std::move(request), now);
  if (!admit.accepted) {
    switch (admit.decision) {
      case serve::Outcome::kRejectedRateLimit:
        counters_[decision.shard].rejected_rate_limit += 1;
        break;
      case serve::Outcome::kRejectedCapacity:
        counters_[decision.shard].rejected_capacity += 1;
        break;
      case serve::Outcome::kRejectedDeadline:
        counters_[decision.shard].rejected_deadline += 1;
        break;
      default:
        ADS_CHECK(false) << "unexpected admission decision";
    }
    serve::Response response;
    response.id = id;
    response.outcome = admit.decision;
    Emit(response);  // core already closed the root span
  } else {
    counters_[decision.shard].accepted += 1;
    Pending pending;
    pending.prototype = std::move(prototype);
    pending.owner = decision.shard;
    pending.primary_replica = decision.replica;
    pending.arrival = now;
    pending.root_span = root;
    pending_.emplace(id, std::move(pending));
    if (can_hedge) {
      queue_.ScheduleAt(now + hedge_.Delay(), [this, id](common::SimTime t) {
        FireHedge(id, t);
      });
    }
  }
  if (admit.evicted) {
    OnCopyFailure(decision.shard, decision.replica, admit.victim.id,
                  serve::Outcome::kShedCapacity, now);
  }
  max_queue_depth_ = std::max(max_queue_depth_, FleetQueueDepth());
  Dispatch(decision.shard, decision.replica, now);
}

void VirtualFleet::FireHedge(uint64_t id, double now) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // already finalized: nothing to hedge
  Pending& p = it->second;
  if (p.resolved || p.hedge_fired || p.primary_done) return;
  // Never hedge into a draining shard: the duplicate would immediately be
  // rerouted away, buying latency for nothing.
  if (router_.draining(p.owner)) return;

  p.hedge_fired = true;
  p.hedge_shard = p.owner;
  p.hedge_replica = (p.primary_replica + 1) % options_.replicas_per_shard;
  p.hedge_home = p.owner;
  counters_[p.hedge_home].hedges_fired += 1;

  serve::Request copy = p.prototype;
  if (tracer_ != nullptr) {
    p.hedge_span = tracer_->StartSpan("hedge", "req-" + std::to_string(id),
                                      p.root_span, now);
    tracer_->Annotate(p.hedge_span, "shard", ShardName(p.hedge_shard));
    tracer_->Annotate(p.hedge_span, "replica",
                      std::to_string(p.hedge_replica));
    copy.trace_span = p.hedge_span;
  }

  const ShardId shard = p.hedge_shard;
  const size_t r = p.hedge_replica;
  Replica& target = replica(shard, r);
  serve::AdmitResult admit = target.core.Admit(std::move(copy), now);
  if (!admit.accepted) {
    // The duplicate could not even queue; the hedge resolves as an
    // immediate loser. Fleet rejected counters are untouched — the
    // logical request is still live on its primary.
    p.hedge_done = true;  // core closed the hedge span with the outcome
    MaybeFinalize(id, now);
  }
  if (admit.evicted) {
    OnCopyFailure(shard, r, admit.victim.id, serve::Outcome::kShedCapacity,
                  now);
  }
  max_queue_depth_ = std::max(max_queue_depth_, FleetQueueDepth());
  Dispatch(shard, r, now);
}

void VirtualFleet::Dispatch(ShardId shard, size_t r, double now) {
  Replica& rep = replica(shard, r);
  for (const serve::Request& expired : rep.core.DropExpired(now)) {
    OnCopyFailure(shard, r, expired.id, serve::Outcome::kShedDeadline, now);
  }
  while (rep.busy_workers < options_.workers_per_replica &&
         rep.core.HasReadyBatch(now)) {
    serve::Batch batch = rep.core.TakeReadyBatch(now);
    if (batch.requests.empty()) break;
    ++rep.busy_workers;
    double service = options_.service.batch_overhead_seconds +
                     options_.service.per_item_seconds *
                         static_cast<double>(batch.requests.size());
    bool slow = false;
    if (options_.slow_probability > 0.0 &&
        rep.rng.Bernoulli(options_.slow_probability)) {
      service *= options_.slow_multiplier;
      slow = true;
    }
    if (tracer_ != nullptr && batch.trace_span != telemetry::kNoSpan) {
      tracer_->Annotate(batch.trace_span, "shard", ShardName(shard));
      tracer_->Annotate(batch.trace_span, "replica", std::to_string(r));
      if (slow) tracer_->Annotate(batch.trace_span, "slow", "true");
    }
    queue_.ScheduleAt(now + service, [this, shard, r, b = std::move(batch),
                                      now](common::SimTime t) mutable {
      OnBatchComplete(shard, r, std::move(b), now, t);
    });
  }
  if (rep.core.queued() > 0) {
    double next = rep.core.NextLingerDeadline();
    if (next > now && next < std::numeric_limits<double>::infinity()) {
      queue_.ScheduleAt(next, [this, shard, r](common::SimTime t) {
        Dispatch(shard, r, t);
      });
    }
  }
  PublishLoad(shard);
}

void VirtualFleet::OnBatchComplete(ShardId shard, size_t r,
                                   serve::Batch batch, double dispatched,
                                   double now) {
  Replica& rep = replica(shard, r);
  --rep.busy_workers;
  autonomy::ResilientModelServer* backend = backends_.at(batch.model);
  const size_t batch_size = batch.requests.size();
  batch_size_.Add(static_cast<double>(batch_size));
  telemetry::SpanId backend_span = telemetry::kNoSpan;
  if (tracer_ != nullptr && batch.trace_span != telemetry::kNoSpan) {
    backend_span = tracer_->StartSpan("backend", batch.model,
                                      batch.trace_span, dispatched);
  }
  std::vector<size_t> all(batch_size);
  for (size_t i = 0; i < batch_size; ++i) all[i] = i;
  std::vector<autonomy::ResilientModelServer::ServeResult> served_rows;
  common::Matrix features;
  if (batch_size > 0 &&
      serve::GatherFeatures(batch.requests, all, &features)) {
    backend->PredictBatchVersion(batch.pinned_version, features, now,
                                 &served_rows);
  } else {
    served_rows.resize(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      served_rows[i] = backend->PredictVersion(
          batch.pinned_version, batch.requests[i].features, now);
    }
  }
  for (size_t i = 0; i < batch_size; ++i) {
    const serve::Request& request = batch.requests[i];
    auto it = pending_.find(request.id);
    ADS_CHECK(it != pending_.end())
        << "completion for unknown request " << request.id;
    Pending& p = it->second;
    const bool is_primary = p.owner == shard && p.primary_replica == r;
    if (!is_primary) {
      ADS_CHECK(p.hedge_fired && p.hedge_shard == shard &&
                p.hedge_replica == r)
          << "completion at a shard/replica owning no copy of request "
          << request.id;
    }
    const telemetry::SpanId copy_span = request.trace_span;
    if (!p.resolved) {
      // First completion wins: this copy's result is the response.
      p.resolved = true;
      counters_[p.owner].served += 1;
      const double latency = now - p.arrival;
      hedge_.Observe(latency);
      latency_.Add(latency);
      shard_latency_[p.owner].Add(latency);
      if (p.hedge_fired) {
        if (is_primary) {
          counters_[p.hedge_home].primary_wins += 1;
        } else {
          counters_[p.hedge_home].hedge_wins += 1;
        }
        if (tracer_ != nullptr) {
          // Winner/loser cross-links: the root names the winning copy,
          // the hedge span records its own fate.
          tracer_->Annotate(p.root_span, "winner",
                            is_primary ? "primary" : "hedge");
          tracer_->Annotate(p.hedge_span, "result",
                            is_primary ? "cancelled" : "won");
        }
      }
      const autonomy::ResilientModelServer::ServeResult& served =
          served_rows[i];
      serve::Response response;
      response.id = request.id;
      response.outcome = serve::Outcome::kServed;
      response.value = served.value;
      response.tier = served.tier;
      response.model_version = served.version;
      response.latency_seconds = latency;
      response.batch_size = batch_size;
      if (tracer_ != nullptr && copy_span != telemetry::kNoSpan) {
        telemetry::SpanId serve_span = tracer_->StartSpan(
            "serve", batch.model, copy_span, dispatched);
        tracer_->Annotate(serve_span, "batch", std::to_string(batch.seq));
        tracer_->Annotate(serve_span, "tier", serve::TierName(served.tier));
        if (served.tier !=
            autonomy::ResilientModelServer::Tier::kDeployed) {
          telemetry::SpanId fallback = tracer_->StartSpan(
              "fallback", serve::TierName(served.tier), serve_span,
              dispatched);
          tracer_->EndSpan(fallback, now);
        }
        tracer_->EndSpan(serve_span, now);
      }
      Emit(response);
    } else if (tracer_ != nullptr && copy_span != telemetry::kNoSpan) {
      // Cancelled loser running to completion: traced (the work happened)
      // but its result is discarded and no ledger counter moves.
      telemetry::SpanId serve_span =
          tracer_->StartSpan("serve", batch.model, copy_span, dispatched);
      tracer_->Annotate(serve_span, "batch", std::to_string(batch.seq));
      tracer_->Annotate(serve_span, "discarded", "true");
      tracer_->EndSpan(serve_span, now);
    }
    if (is_primary) {
      p.primary_done = true;
    } else {
      p.hedge_done = true;
      if (tracer_ != nullptr) tracer_->EndSpan(p.hedge_span, now);
    }
    MaybeFinalize(request.id, now);
  }
  if (backend_span != telemetry::kNoSpan) {
    tracer_->EndSpan(backend_span, now);
    tracer_->EndSpan(batch.trace_span, now);
  }
  Dispatch(shard, r, now);
}

void VirtualFleet::OnCopyFailure(ShardId shard, size_t r, uint64_t id,
                                 serve::Outcome outcome, double now) {
  auto it = pending_.find(id);
  ADS_CHECK(it != pending_.end()) << "failure for unknown request " << id;
  Pending& p = it->second;
  if (p.owner == shard && p.primary_replica == r && !p.primary_done) {
    p.primary_done = true;
    p.root_ended = true;  // the core closed the root span with the outcome
    if (!p.resolved && !p.have_failure) {
      p.have_failure = true;
      p.failure = outcome;
    }
  } else {
    ADS_CHECK(p.hedge_fired && p.hedge_shard == shard &&
              p.hedge_replica == r && !p.hedge_done)
        << "failure at a shard/replica owning no copy of request " << id;
    p.hedge_done = true;  // the core closed the hedge span
  }
  MaybeFinalize(id, now);
}

void VirtualFleet::MaybeFinalize(uint64_t id, double now) {
  auto it = pending_.find(id);
  ADS_CHECK(it != pending_.end());
  Pending& p = it->second;
  if (!p.primary_done || (p.hedge_fired && !p.hedge_done)) return;
  if (!p.resolved) {
    // Every copy failed; the logical outcome is the primary's failure.
    ADS_CHECK(p.have_failure) << "finalizing request " << id
                              << " with no outcome";
    if (p.failure == serve::Outcome::kShedCapacity) {
      counters_[p.owner].shed_capacity += 1;
    } else {
      ADS_CHECK(p.failure == serve::Outcome::kShedDeadline)
          << "unexpected copy failure outcome";
      counters_[p.owner].shed_deadline += 1;
    }
    serve::Response response;
    response.id = id;
    response.outcome = p.failure;
    Emit(response);
  }
  if (p.hedge_fired) {
    // Exactly one loser per fired hedge, whatever its fate (cancelled at
    // completion, shed, rejected at hedge admission, or zombie-dropped).
    counters_[p.hedge_home].hedges_cancelled += 1;
    // A hedge race both copies lost has no winner to count.
    if (!p.resolved) counters_[p.hedge_home].hedges_failed += 1;
  }
  if (tracer_ != nullptr && p.root_span != telemetry::kNoSpan) {
    // The logical outcome may differ from the last copy-level annotation
    // (a shed primary whose hedge won is served), so re-annotate.
    tracer_->Annotate(
        p.root_span, "outcome",
        serve::OutcomeName(p.resolved ? serve::Outcome::kServed : p.failure));
    if (!p.root_ended) tracer_->EndSpan(p.root_span, now);
  }
  pending_.erase(it);
}

void VirtualFleet::DrainShardNow(ShardId shard, double now) {
  router_.DrainShard(shard);
  if (tracer_ != nullptr) {
    drain_spans_[shard] = tracer_->StartSpan("drain", ShardName(shard),
                                             telemetry::kNoSpan, now);
  }
  size_t moved = 0;
  size_t dropped = 0;
  std::set<std::pair<ShardId, size_t>> touched;
  for (size_t r = 0; r < options_.replicas_per_shard; ++r) {
    for (serve::Request& request : replica(shard, r).core.TakeQueued()) {
      auto it = pending_.find(request.id);
      ADS_CHECK(it != pending_.end())
          << "queued copy of unknown request " << request.id;
      Pending& p = it->second;
      const bool is_primary = p.owner == shard && p.primary_replica == r;
      if (!is_primary) {
        ADS_CHECK(p.hedge_fired && p.hedge_shard == shard &&
                  p.hedge_replica == r)
            << "queued copy at a shard/replica owning no copy of request "
            << request.id;
      }
      if (p.resolved) {
        // A cancelled loser still queued: the drain is a natural
        // cancellation point — drop it instead of moving dead work.
        ++dropped;
        if (is_primary) {
          p.primary_done = true;
        } else {
          p.hedge_done = true;
          if (tracer_ != nullptr) tracer_->EndSpan(p.hedge_span, now);
        }
        MaybeFinalize(request.id, now);
        continue;
      }
      const ShardId target = router_.RerouteTarget(request.tenant, shard);
      if (target == shard) {
        // Every other shard is draining too; keep the copy in place.
        replica(shard, r).core.Reinject(std::move(request));
        continue;
      }
      if (is_primary) {
        // Ownership transfer: the terminal outcome will be accounted on
        // the target shard.
        counters_[shard].rerouted_out += 1;
        counters_[target].rerouted_in += 1;
        p.owner = target;
      } else {
        p.hedge_shard = target;
      }
      if (tracer_ != nullptr && request.trace_span != telemetry::kNoSpan) {
        telemetry::SpanId reroute = tracer_->StartSpan(
            "reroute", ShardName(shard) + ">" + ShardName(target),
            request.trace_span, now);
        tracer_->Annotate(reroute, "reason", "drain");
        tracer_->Annotate(reroute, "replica", std::to_string(r));
        tracer_->EndSpan(reroute, now);
      }
      ++moved;
      // Replica index is preserved across the move, which keeps the two
      // copies of a hedged request on distinct replicas everywhere.
      replica(target, r).core.Reinject(std::move(request));
      touched.insert({target, r});
    }
  }
  if (tracer_ != nullptr && drain_spans_[shard] != telemetry::kNoSpan) {
    tracer_->Annotate(drain_spans_[shard], "rerouted",
                      std::to_string(moved));
    tracer_->Annotate(drain_spans_[shard], "dropped_losers",
                      std::to_string(dropped));
  }
  for (const auto& [target, r] : touched) Dispatch(target, r, now);
  PublishLoad(shard);
}

void VirtualFleet::RejoinShardNow(ShardId shard, double now) {
  router_.RejoinShard(shard);
  if (tracer_ != nullptr && drain_spans_[shard] != telemetry::kNoSpan) {
    tracer_->EndSpan(drain_spans_[shard], now);
    drain_spans_[shard] = telemetry::kNoSpan;
  }
}

void VirtualFleet::SampleGauges(double now) {
  for (ShardId shard = 0; shard < options_.shards; ++shard) {
    telemetry::ScopedGauges gauges(
        store_, "fleet.serve.",
        {{"shard", std::to_string(shard)}});
    const ShardCounters& c = counters_[shard];
    size_t busy = 0;
    for (size_t r = 0; r < options_.replicas_per_shard; ++r) {
      busy += replicas_[shard * options_.replicas_per_shard + r].busy_workers;
    }
    gauges.Record("queue_depth", now,
                  static_cast<double>(ShardQueueDepth(shard)));
    gauges.Record("busy_workers", now, static_cast<double>(busy));
    gauges.Record("served_total", now, static_cast<double>(c.served));
    gauges.Record("shed_total", now, static_cast<double>(c.Shed()));
    gauges.Record("rejected_total", now, static_cast<double>(c.Rejected()));
    gauges.Record("hedges_fired_total", now,
                  static_cast<double>(c.hedges_fired));
    gauges.Record("draining", now, router_.draining(shard) ? 1.0 : 0.0);
  }
  bool busy_anywhere = false;
  for (const Replica& replica : replicas_) {
    if (replica.core.queued() > 0 || replica.busy_workers > 0) {
      busy_anywhere = true;
      break;
    }
  }
  if (busy_anywhere || !queue_.empty()) {
    queue_.ScheduleAt(now + options_.telemetry_period_seconds,
                      [this](common::SimTime t) { SampleGauges(t); });
  }
}

void VirtualFleet::CheckInvariants() const {
  for (ShardId shard = 0; shard < options_.shards; ++shard) {
    const ShardCounters& c = counters_[shard];
    ADS_CHECK(c.submitted == c.accepted + c.Rejected())
        << "shard " << shard << ": admission not total";
    ADS_CHECK(c.accepted + c.rerouted_in ==
              c.Finished() + c.rerouted_out)
        << "shard " << shard << ": ownership ledger out of balance";
    ADS_CHECK(c.hedges_fired ==
              c.hedge_wins + c.primary_wins + c.hedges_failed)
        << "shard " << shard << ": a fired hedge has no outcome";
    ADS_CHECK(c.hedges_fired == c.hedges_cancelled)
        << "shard " << shard << ": a fired hedge has no cancelled loser";
  }
  const ShardCounters fleet = Aggregate(counters_);
  ADS_CHECK(fleet.accepted == fleet.served + fleet.Shed())
      << "fleet ledger out of balance (reroutes double-counted?)";
}

VirtualFleetReport VirtualFleet::Run() {
  ADS_CHECK(!ran_) << "Run() is one-shot";
  ran_ = true;
  if (store_ != nullptr && options_.telemetry_period_seconds > 0.0) {
    queue_.ScheduleAt(0.0, [this](common::SimTime t) { SampleGauges(t); });
  }
  queue_.RunAll();
  ADS_CHECK(pending_.empty())
      << "fleet drain left " << pending_.size() << " requests unresolved";
  for (const Replica& replica : replicas_) {
    ADS_CHECK(replica.core.queued() == 0) << "fleet drain left work queued";
  }
  CheckInvariants();

  VirtualFleetReport report;
  report.shards = counters_;
  report.fleet = Aggregate(counters_);
  report.latency = latency_.Summary();
  report.shard_latency.reserve(options_.shards);
  for (const common::QuantileSketch& sketch : shard_latency_) {
    report.shard_latency.push_back(sketch.Summary());
  }
  report.mean_batch_size = batch_size_.mean();
  report.max_queue_depth = max_queue_depth_;
  report.horizon_seconds = queue_.now();
  report.throughput_rps =
      report.horizon_seconds > 0.0
          ? static_cast<double>(report.fleet.served) / report.horizon_seconds
          : 0.0;
  report.availability =
      report.fleet.accepted > 0
          ? static_cast<double>(report.fleet.served) /
                static_cast<double>(report.fleet.accepted)
          : 1.0;
  report.hedge_delay_seconds = hedge_.Delay();
  return report;
}

}  // namespace ads::fleet
