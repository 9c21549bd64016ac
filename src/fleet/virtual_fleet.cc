#include "fleet/virtual_fleet.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "common/logging.h"

namespace ads::fleet {

namespace {

std::string ShardName(ShardId shard) {
  return "shard-" + std::to_string(shard);
}

}  // namespace

VirtualFleet::VirtualFleet(VirtualFleetOptions options)
    : options_(options),
      router_(options.shards, options.replicas_per_shard, options.router),
      ledger_(&router_, options.hedge),
      drain_spans_(options.shards, telemetry::kNoSpan),
      published_depth_(options.shards, 0) {
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
  const size_t index = arrivals_.size();
  arrivals_.push_back(std::move(request));
  queue_.ScheduleAt(t, [this, index](common::SimTime now) {
    OnArrival(arrivals_[index], now);
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
  // Republishing an unchanged depth would only take the router's lock.
  const size_t depth = ShardQueueDepth(shard);
  if (depth == published_depth_[shard]) return;
  published_depth_[shard] = depth;
  ShardLoad load;
  load.queue_depth = depth;
  router_.UpdateLoad(shard, load);
}

void VirtualFleet::OnArrival(serve::Request& request, double now) {
  auto backend_it = backends_.find(request.model);
  ADS_CHECK(backend_it != backends_.end())
      << "unregistered model: " << request.model;
  const uint64_t id = request.id;
  const RouteDecision decision = router_.Route(request.tenant, id);
  FlightLedger::Flight* opened = ledger_.Open(id, decision, now);
  ADS_CHECK(opened != nullptr) << "duplicate request id " << id;
  FlightLedger::Flight& flight = *opened;

  // The fleet opens the causal root before admission: the routing verdict
  // is part of the request's story, and a hedge needs a parent that
  // outlives either single copy.
  if (tracer_ != nullptr) {
    const telemetry::SpanId root = tracer_->StartSpan(
        "request", "req-" + std::to_string(id), telemetry::kNoSpan, now);
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
    flight.root_span = root;
    request.trace_span = root;
  }

  // Pin the model version once per logical request; both copies and any
  // rerouted re-injection serve under this pin.
  serve::PinVersion(version_router_, *backend_it->second, &request);
  if (ledger_.can_hedge()) flight.prototype = request;
  Replica& target = replica(decision.shard, decision.replica);
  serve::AdmitResult admit = target.core.Admit(std::move(request), now);
  if (!admit.accepted) {
    Deliver(id,
            ledger_.OnFailed(id, decision.shard, decision.replica,
                             admit.decision),
            now);
  } else if (ledger_.Accept(id, decision.shard)) {
    queue_.ScheduleAt(now + ledger_.HedgeDelay(),
                      [this, id](common::SimTime t) { FireHedge(id, t); });
  }
  if (admit.evicted) {
    Deliver(admit.victim.id,
            ledger_.OnFailed(admit.victim.id, decision.shard,
                             decision.replica, serve::Outcome::kShedCapacity),
            now);
  }
  max_queue_depth_ = std::max(max_queue_depth_, FleetQueueDepth());
  Dispatch(decision.shard, decision.replica, now);
}

void VirtualFleet::FireHedge(uint64_t id, double now) {
  FlightLedger::Flight* flight = ledger_.FireHedge(id);
  if (flight == nullptr) return;
  const ShardId shard = flight->hedge_shard;
  const size_t r = flight->hedge_replica;
  serve::Request copy = std::move(flight->prototype);
  if (tracer_ != nullptr) {
    flight->hedge_span = tracer_->StartSpan(
        "hedge", "req-" + std::to_string(id), flight->root_span, now);
    tracer_->Annotate(flight->hedge_span, "shard", ShardName(shard));
    tracer_->Annotate(flight->hedge_span, "replica", std::to_string(r));
    copy.trace_span = flight->hedge_span;
  }
  serve::AdmitResult admit = replica(shard, r).core.Admit(std::move(copy), now);
  if (!admit.accepted) {
    // The duplicate could not even queue: it loses at once, and the
    // request stays live on its primary (the core closed the hedge span).
    Deliver(id, ledger_.OnFailed(id, shard, r, admit.decision), now);
  }
  if (admit.evicted) {
    Deliver(admit.victim.id,
            ledger_.OnFailed(admit.victim.id, shard, r,
                             serve::Outcome::kShedCapacity),
            now);
  }
  max_queue_depth_ = std::max(max_queue_depth_, FleetQueueDepth());
  Dispatch(shard, r, now);
}

void VirtualFleet::Dispatch(ShardId shard, size_t r, double now) {
  Replica& rep = replica(shard, r);
  // Deliver never re-enters Dispatch, so expired_ holds still meanwhile.
  rep.core.DropExpired(now, &expired_);
  for (const serve::Request& expired : expired_) {
    Deliver(expired.id,
            ledger_.OnFailed(expired.id, shard, r,
                             serve::Outcome::kShedDeadline),
            now);
  }
  while (rep.busy_workers < options_.workers_per_replica &&
         rep.core.HasReadyBatch(now)) {
    size_t slot = in_flight_.size();
    if (free_in_flight_.empty()) {
      in_flight_.emplace_back();
    } else {
      slot = free_in_flight_.back();
      free_in_flight_.pop_back();
    }
    InFlight& in_flight = in_flight_[slot];
    serve::Batch& batch = in_flight.batch;
    rep.core.TakeReadyBatch(now, &batch);
    if (batch.requests.empty()) {
      free_in_flight_.push_back(slot);
      break;
    }
    in_flight.shard = shard;
    in_flight.replica = r;
    in_flight.dispatched = now;
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
    queue_.ScheduleAt(now + service, [this, slot](common::SimTime t) {
      OnBatchComplete(slot, t);
    });
  }
  if (rep.core.queued() > 0) {
    double next = rep.core.NextLingerDeadline();
    if (next > now && next < std::numeric_limits<double>::infinity()) {
      const size_t index = shard * options_.replicas_per_shard + r;
      queue_.ScheduleAt(next, [this, index](common::SimTime t) {
        Dispatch(index / options_.replicas_per_shard,
                 index % options_.replicas_per_shard, t);
      });
    }
  }
  PublishLoad(shard);
}

void VirtualFleet::OnBatchComplete(size_t slot, double now) {
  InFlight& done = in_flight_[slot];
  const ShardId shard = done.shard;
  const size_t r = done.replica;
  const double dispatched = done.dispatched;
  serve::Batch& batch = done.batch;
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
  rows_.resize(batch_size);
  std::iota(rows_.begin(), rows_.end(), size_t{0});
  serve::ServeBatch(backend, batch, rows_, now, &serve_scratch_, &served_);
  for (size_t i = 0; i < batch_size; ++i) {
    const serve::Request& request = batch.requests[i];
    const FlightLedger::Step step =
        ledger_.OnServed(request.id, shard, r, now);
    const FlightLedger::Flight& flight = *step.flight;
    const telemetry::SpanId copy_span = request.trace_span;
    if (step.resolved) {
      // First completion wins: this copy's result is the response.
      latency_.Add(step.latency_seconds);
      if (flight.hedge_fired && tracer_ != nullptr) {
        // Winner/loser cross-links: the root names the winning copy, the
        // hedge span records its own fate.
        tracer_->Annotate(flight.root_span, "winner",
                          step.primary ? "primary" : "hedge");
        tracer_->Annotate(flight.hedge_span, "result",
                          step.primary ? "cancelled" : "won");
      }
      const autonomy::ResilientModelServer::ServeResult& served = served_[i];
      serve::Response response;
      response.id = request.id;
      response.outcome = serve::Outcome::kServed;
      response.value = served.value;
      response.tier = served.tier;
      response.model_version = served.version;
      response.latency_seconds = step.latency_seconds;
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
    if (!step.primary && tracer_ != nullptr) {
      tracer_->EndSpan(flight.hedge_span, now);
    }
    if (step.closed) TraceClose(flight, now);
  }
  if (backend_span != telemetry::kNoSpan) {
    tracer_->EndSpan(backend_span, now);
    tracer_->EndSpan(batch.trace_span, now);
  }
  // Free the slot before dispatching, which may reuse it or grow
  // in_flight_ (moving `done`).
  batch.requests.clear();
  free_in_flight_.push_back(slot);
  Dispatch(shard, r, now);
}

void VirtualFleet::Deliver(uint64_t id, const FlightLedger::Step& step,
                           double now) {
  if (step.resolved) {
    // Every copy failed: the logical outcome is the primary's failure.
    serve::Response response;
    response.id = id;
    response.outcome = step.flight->outcome;
    Emit(response);
  }
  if (step.closed) TraceClose(*step.flight, now);
}

void VirtualFleet::TraceClose(const FlightLedger::Flight& flight,
                              double now) {
  if (tracer_ == nullptr || flight.root_span == telemetry::kNoSpan) return;
  // The logical outcome may differ from the last copy-level annotation (a
  // shed primary whose hedge won is served), so re-annotate.
  tracer_->Annotate(flight.root_span, "outcome",
                    serve::OutcomeName(flight.outcome));
  // A failed primary's core already closed the root span.
  if (!flight.primary_failure) tracer_->EndSpan(flight.root_span, now);
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
      const FlightLedger::Step step = ledger_.OnDrained(request, shard, r);
      const FlightLedger::Flight& flight = *step.flight;
      if (flight.resolved) {
        // A cancelled loser still queued: dropped instead of moving dead
        // work.
        ++dropped;
        if (!step.primary && tracer_ != nullptr) {
          tracer_->EndSpan(flight.hedge_span, now);
        }
        Deliver(request.id, step, now);
        continue;
      }
      const ShardId target = step.primary ? flight.owner : flight.hedge_shard;
      if (target == shard) {
        // Every other shard is draining too; keep the copy in place.
        replica(shard, r).core.Reinject(std::move(request));
        continue;
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

VirtualFleetReport VirtualFleet::Run() {
  ADS_CHECK(!ran_) << "Run() is one-shot";
  ran_ = true;
  queue_.RunAll();
  for (const Replica& replica : replicas_) {
    ADS_CHECK(replica.core.queued() == 0) << "fleet drain left work queued";
  }
  ledger_.CheckInvariants();

  VirtualFleetReport report;
  report.shards = ledger_.counters();
  report.fleet = ledger_.Total();
  report.latency = latency_.Summary();
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
  return report;
}

}  // namespace ads::fleet
