#include "fleet/runtime.h"

#include <chrono>
#include <string>
#include <utility>

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
      epoch_(std::chrono::steady_clock::now()),
      ledger_(&router_, options.hedge) {
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
  if (ledger_.can_hedge()) {
    hedger_ = std::thread([this]() { HedgerLoop(); });
  }
}

double FleetRuntime::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

common::Status FleetRuntime::Submit(serve::Request request,
                                    Callback callback) {
  ADS_CHECK(started_) << "Submit before Start()";
  const uint64_t id = request.id;
  auto backend_it = backends_.find(request.model);
  if (backend_it == backends_.end()) {
    return common::Status::NotFound("unregistered model: " + request.model);
  }
  // Pin the version here, before placement, so the primary and a later
  // hedge duplicate are guaranteed to serve the same model version.
  serve::PinVersion(version_router_, *backend_it->second, &request);
  const RouteDecision decision = router_.Route(request.tenant, id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      return common::Status::FailedPrecondition(
          "fleet runtime is shutting down");
    }
    FlightLedger::Flight* flight = ledger_.Open(id, decision, Now());
    if (flight == nullptr) {
      return common::Status::AlreadyExists("request id " +
                                           std::to_string(id) +
                                           " is already in flight");
    }
    flight->user = std::move(callback);
    if (ledger_.can_hedge()) flight->prototype = request;
  }
  // The inner Submit may invoke OnCopyResponse inline (rejections), which
  // takes mu_ — so mu_ must not be held here.
  const common::Status status =
      SubmitCopy(id, decision.shard, decision.replica, std::move(request));
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ledger_.Accept(id, decision.shard)) {
      hedge_deadlines_.push(
          {std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(ledger_.HedgeDelay())),
           id});
      hedger_wake_.notify_one();
    }
  }
  return status;
}

common::Status FleetRuntime::SubmitCopy(uint64_t id, ShardId shard, size_t r,
                                        serve::Request copy) {
  common::Status status = replica(shard, r).Submit(
      std::move(copy), [this, id, shard, r](const serve::Response& response) {
        OnCopyResponse(id, shard, r, response);
      });
  if (status.code() == common::StatusCode::kFailedPrecondition) {
    serve::Response refused;
    refused.id = id;
    refused.outcome = serve::Outcome::kRejectedCapacity;
    OnCopyResponse(id, shard, r, refused);
  }
  return status;
}

void FleetRuntime::OnCopyResponse(uint64_t id, ShardId shard, size_t r,
                                  const serve::Response& response) {
  const double now = Now();
  Callback user;
  serve::Response out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const FlightLedger::Step step =
        response.outcome == serve::Outcome::kServed
            ? ledger_.OnServed(id, shard, r, now)
            : ledger_.OnFailed(id, shard, r, response.outcome);
    if (!step.resolved) return;
    user = std::move(step.flight->user);
    if (step.flight->outcome == serve::Outcome::kServed) {
      out = response;
      out.latency_seconds = step.latency_seconds;
    } else {
      out.id = id;
      out.outcome = step.flight->outcome;
    }
  }
  if (user != nullptr) user(out);
}

void FleetRuntime::FireHedge(uint64_t id,
                             std::unique_lock<std::mutex>& lock) {
  FlightLedger::Flight* flight = ledger_.FireHedge(id);
  if (flight == nullptr) return;
  const ShardId shard = flight->hedge_shard;
  const size_t r = flight->hedge_replica;
  serve::Request copy = std::move(flight->prototype);
  lock.unlock();
  SubmitCopy(id, shard, r, std::move(copy));
  lock.lock();
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
      quiet = !ledger_.HasOpenFlight(shard);
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
  ledger_.CheckInvariants();
}

std::vector<ShardCounters> FleetRuntime::CountersSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.counters();
}

ShardCounters FleetRuntime::FleetCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.Total();
}

serve::ServingStats FleetRuntime::ReplicaStats(ShardId shard,
                                               size_t r) const {
  ADS_CHECK(shard < options_.shards && r < options_.replicas_per_shard)
      << "unknown replica " << shard << "/" << r;
  return replica(shard, r).Stats();
}

double FleetRuntime::HedgeDelay() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_.HedgeDelay();
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
