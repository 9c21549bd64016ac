#include "fleet/runtime.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "telemetry/gauges.h"

namespace ads::fleet {

namespace {

constexpr std::chrono::milliseconds kQuiescePollInterval(1);

}  // namespace

FleetRuntime::FleetRuntime(FleetRuntimeOptions options,
                           common::ThreadPool* pool)
    : options_(options),
      pool_(pool),
      router_(options.shards, options.replicas_per_shard, options.router),
      hedge_(options.hedge),
      counters_(options.shards) {
  ADS_CHECK(pool_ != nullptr) << "fleet needs a thread pool";
  runtimes_.reserve(options_.shards * options_.replicas_per_shard);
  for (size_t i = 0; i < options_.shards * options_.replicas_per_shard; ++i) {
    runtimes_.push_back(
        std::make_unique<serve::ServingRuntime>(options_.core, pool_));
  }
}

FleetRuntime::~FleetRuntime() { Shutdown(); }

void FleetRuntime::RegisterBackend(const std::string& model,
                                   autonomy::ResilientModelServer* backend) {
  ADS_CHECK(backend != nullptr) << "null backend";
  ADS_CHECK(!started_) << "backends must be registered before Start()";
  backends_[model] = backend;
  // One fleet-wide mutex per model: ResilientModelServer is not
  // thread-safe, and per-runtime serialization alone would let replicas on
  // different runtimes call Predict concurrently on the shared backend.
  auto [it, inserted] =
      backend_serialization_.emplace(model, std::make_unique<std::mutex>());
  ADS_CHECK(inserted) << "model registered twice: " << model;
  for (auto& runtime : runtimes_) {
    runtime->RegisterBackend(model, backend, it->second.get());
  }
}

void FleetRuntime::SetVersionRouter(const autonomy::VersionRouter* router) {
  ADS_CHECK(!started_) << "SetVersionRouter after Start()";
  version_router_ = router;
}

void FleetRuntime::SetTracer(telemetry::Tracer* tracer) {
  ADS_CHECK(!started_) << "SetTracer after Start()";
  for (auto& runtime : runtimes_) runtime->SetTracer(tracer);
}

void FleetRuntime::Start() {
  ADS_CHECK(!started_) << "Start() is one-shot";
  ADS_CHECK(!backends_.empty()) << "no backends registered";
  started_ = true;
  for (auto& runtime : runtimes_) runtime->Start();
  if (hedge_.enabled() && options_.replicas_per_shard >= 2) {
    hedger_ = std::thread([this]() { HedgerLoop(); });
  }
}

common::Status FleetRuntime::Submit(serve::Request request,
                                    Callback callback) {
  ADS_CHECK(started_) << "Submit before Start()";
  const uint64_t id = request.id;
  auto backend_it = backends_.find(request.model);
  ADS_CHECK(backend_it != backends_.end())
      << "unregistered model: " << request.model;
  // Pin the version here, before placement, so the primary and a later
  // hedge duplicate are guaranteed to serve the same model version.
  if (request.pinned_version == 0 && version_router_ != nullptr) {
    request.pinned_version =
        version_router_->Route(request.model, request.tenant);
  }
  if (request.pinned_version == 0) {
    request.pinned_version = backend_it->second->CurrentDeployedVersion();
  }
  const RouteDecision decision = router_.Route(request.tenant, id);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      return common::Status::FailedPrecondition(
          "fleet runtime is shutting down");
    }
    counters_[decision.shard].submitted += 1;
    if (decision.reason == RouteReason::kDrainDivert) {
      counters_[decision.home_shard].drain_diverts += 1;
    } else if (decision.reason == RouteReason::kLoadDivert) {
      counters_[decision.home_shard].load_diverts += 1;
    }
    ADS_CHECK(flights_.emplace(id, Flight()).second)
        << "duplicate request id " << id;
    Flight& flight = flights_[id];
    flight.prototype = request;
    flight.user = std::move(callback);
    flight.owner = decision.shard;
    flight.primary_replica = decision.replica;
  }

  // The inner Submit may invoke OnCopyResponse inline (rejections), which
  // takes mu_ — so mu_ must not be held here.
  common::Status status = replica(decision.shard, decision.replica)
                              .Submit(std::move(request),
                                      [this, id](const serve::Response& r) {
                                        OnCopyResponse(id, false, r);
                                      });

  Callback failed_user;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      counters_[decision.shard].accepted += 1;
      auto it = flights_.find(id);
      // The flight can already be gone if the request raced to a served
      // response before Submit returned; nothing left to hedge then.
      if (it != flights_.end() && !it->second.primary_done &&
          hedge_.enabled() && options_.replicas_per_shard >= 2) {
        hedge_deadlines_.push(
            {std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(hedge_.Delay())),
             id});
        hedger_wake_.notify_one();
      }
    } else if (status.code() == common::StatusCode::kFailedPrecondition) {
      // The replica refused without invoking the callback (shutdown
      // race); resolve the flight ourselves.
      counters_[decision.shard].rejected_capacity += 1;
      auto it = flights_.find(id);
      ADS_CHECK(it != flights_.end());
      failed_user = std::move(it->second.user);
      flights_.erase(it);
    }
    // Other rejection statuses already resolved the flight through the
    // inline callback.
  }
  if (failed_user != nullptr) {
    serve::Response response;
    response.id = id;
    response.outcome = serve::Outcome::kRejectedCapacity;
    failed_user(response);
  }
  return status;
}

void FleetRuntime::OnCopyResponse(uint64_t id, bool is_hedge,
                                  const serve::Response& response) {
  Callback user;
  serve::Response out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flights_.find(id);
    if (it == flights_.end()) return;  // resolved and finalized already
    Flight& flight = it->second;
    if (is_hedge) {
      flight.hedge_done = true;
    } else {
      flight.primary_done = true;
    }
    if (!flight.resolved) {
      const bool served = response.outcome == serve::Outcome::kServed;
      bool resolve_now = false;
      if (served) {
        // First served copy wins, whichever it is.
        resolve_now = true;
        out = response;
        counters_[flight.owner].served += 1;
        hedge_.Observe(response.latency_seconds);
        if (flight.hedge_fired) {
          if (is_hedge) {
            counters_[flight.hedge_home].hedge_wins += 1;
          } else {
            counters_[flight.hedge_home].primary_wins += 1;
          }
        }
      } else if (!is_hedge) {
        // Primary failed. If a hedge is still out there, hold the failure:
        // the duplicate may yet serve.
        if (flight.hedge_fired && !flight.hedge_done) {
          flight.have_failure = true;
          flight.failure = response;
        } else {
          resolve_now = true;
          out = response;
        }
      } else if (flight.primary_done) {
        // Hedge failed after the primary already had: the logical outcome
        // is the primary's failure.
        ADS_CHECK(flight.have_failure)
            << "both copies failed with no stored outcome for " << id;
        resolve_now = true;
        out = flight.failure;
      }
      // else: the hedge copy failed while the primary is still live —
      // nothing resolves; the hedge loser just bows out early.
      if (resolve_now) {
        flight.resolved = true;
        if (!served) {
          switch (out.outcome) {
            case serve::Outcome::kRejectedRateLimit:
              counters_[flight.owner].rejected_rate_limit += 1;
              break;
            case serve::Outcome::kRejectedCapacity:
              counters_[flight.owner].rejected_capacity += 1;
              break;
            case serve::Outcome::kRejectedDeadline:
              counters_[flight.owner].rejected_deadline += 1;
              break;
            case serve::Outcome::kShedCapacity:
              counters_[flight.owner].shed_capacity += 1;
              break;
            case serve::Outcome::kShedDeadline:
              counters_[flight.owner].shed_deadline += 1;
              break;
            default:
              ADS_CHECK(false) << "unexpected terminal outcome";
          }
          // Resolving with a failure after a hedge fired means both
          // copies lost: the race had no winner.
          if (flight.hedge_fired) {
            counters_[flight.hedge_home].hedges_failed += 1;
          }
        }
        user = std::move(flight.user);
      }
    }
    FinalizeLocked(it);
  }
  if (user != nullptr) user(out);
}

void FleetRuntime::FinalizeLocked(std::map<uint64_t, Flight>::iterator it) {
  Flight& flight = it->second;
  if (!flight.primary_done || (flight.hedge_fired && !flight.hedge_done)) {
    return;
  }
  ADS_CHECK(flight.resolved)
      << "finalizing request " << it->first << " with no resolution";
  if (flight.hedge_fired) {
    counters_[flight.hedge_home].hedges_cancelled += 1;
  }
  flights_.erase(it);
}

void FleetRuntime::FireHedge(uint64_t id,
                             std::unique_lock<std::mutex>& lock) {
  auto it = flights_.find(id);
  if (it == flights_.end()) return;
  Flight& flight = it->second;
  if (flight.resolved || flight.primary_done || flight.hedge_fired) return;
  if (router_.draining(flight.owner)) return;  // don't hedge into a drain
  flight.hedge_fired = true;
  flight.hedge_home = flight.owner;
  const ShardId shard = flight.owner;
  const size_t hedge_replica =
      (flight.primary_replica + 1) % options_.replicas_per_shard;
  counters_[flight.hedge_home].hedges_fired += 1;
  serve::Request copy = flight.prototype;

  lock.unlock();
  common::Status status =
      replica(shard, hedge_replica)
          .Submit(std::move(copy), [this, id](const serve::Response& r) {
            OnCopyResponse(id, true, r);
          });
  lock.lock();
  if (status.code() == common::StatusCode::kFailedPrecondition) {
    // The replica refused without a callback; the hedge is an instant
    // loser and the flight continues on its primary alone.
    auto again = flights_.find(id);
    if (again != flights_.end()) {
      again->second.hedge_done = true;
      FinalizeLocked(again);
    }
  }
  // Plain rejections already resolved through the inline hedge callback.
}

void FleetRuntime::HedgerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutting_down_) {
    if (hedge_deadlines_.empty()) {
      hedger_wake_.wait(lock);
      continue;
    }
    const auto due = hedge_deadlines_.top().due;
    if (std::chrono::steady_clock::now() < due) {
      hedger_wake_.wait_until(lock, due);
      continue;
    }
    const uint64_t id = hedge_deadlines_.top().id;
    hedge_deadlines_.pop();
    FireHedge(id, lock);  // drops and retakes the lock around Submit
  }
}

void FleetRuntime::DrainShard(ShardId shard) { router_.DrainShard(shard); }

void FleetRuntime::RejoinShard(ShardId shard) { router_.RejoinShard(shard); }

void FleetRuntime::WaitShardQuiesced(ShardId shard) const {
  ADS_CHECK(shard < options_.shards) << "unknown shard " << shard;
  for (;;) {
    bool quiet = true;
    for (size_t r = 0; quiet && r < options_.replicas_per_shard; ++r) {
      if (replica(shard, r).Stats().queued > 0) quiet = false;
    }
    if (quiet) {
      std::lock_guard<std::mutex> lock(mu_);
      quiet = std::none_of(flights_.begin(), flights_.end(),
                           [shard](const auto& entry) {
                             return entry.second.owner == shard;
                           });
    }
    if (quiet) return;
    std::this_thread::sleep_for(kQuiescePollInterval);
  }
}

void FleetRuntime::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  hedger_wake_.notify_all();
  if (hedger_.joinable()) hedger_.join();
  for (auto& runtime : runtimes_) runtime->Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(flights_.empty())
      << "fleet shutdown left " << flights_.size() << " flights unresolved";
  if (started_) CheckInvariantsLocked();
}

void FleetRuntime::CheckInvariantsLocked() const {
  for (ShardId shard = 0; shard < options_.shards; ++shard) {
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
  const ShardCounters fleet = Aggregate(counters_);
  ADS_CHECK(fleet.accepted == fleet.served + fleet.Shed())
      << "fleet ledger out of balance";
}

std::vector<ShardCounters> FleetRuntime::CountersSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

ShardCounters FleetRuntime::FleetCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Aggregate(counters_);
}

serve::ServingStats FleetRuntime::ReplicaStats(ShardId shard,
                                               size_t r) const {
  ADS_CHECK(shard < options_.shards && r < options_.replicas_per_shard)
      << "unknown replica " << shard << "/" << r;
  return replica(shard, r).Stats();
}

double FleetRuntime::HedgeDelay() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hedge_.Delay();
}

void FleetRuntime::SampleGauges(telemetry::TelemetryStore* store) {
  if (store == nullptr) return;
  const double now = runtimes_.empty() ? 0.0 : runtimes_[0]->Now();
  std::vector<ShardCounters> counters = CountersSnapshot();
  for (ShardId shard = 0; shard < options_.shards; ++shard) {
    ShardLoad load;
    for (size_t r = 0; r < options_.replicas_per_shard; ++r) {
      telemetry::ScopedGauges scope(
          store, "fleet.serve.",
          {{"shard", std::to_string(shard)},
           {"replica", std::to_string(r)}});
      replica(shard, r).SampleGauges(scope);
      load.queue_depth += replica(shard, r).Stats().queued;
    }
    router_.UpdateLoad(shard, load);
    const ShardCounters& c = counters[shard];
    telemetry::ScopedGauges fleet_scope(
        store, "fleet.", {{"shard", std::to_string(shard)}});
    fleet_scope.Record("served_total", now, static_cast<double>(c.served));
    fleet_scope.Record("hedges_fired_total", now,
                       static_cast<double>(c.hedges_fired));
    fleet_scope.Record("hedge_wins_total", now,
                       static_cast<double>(c.hedge_wins));
    fleet_scope.Record("draining", now,
                       router_.draining(shard) ? 1.0 : 0.0);
  }
}

}  // namespace ads::fleet
