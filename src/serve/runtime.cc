#include "serve/runtime.h"

#include <string>
#include <utility>

#include "common/logging.h"

namespace ads::serve {

ServingRuntime::ServingRuntime(CoreOptions options, common::ThreadPool* pool)
    : options_(options),
      pool_(pool),
      core_(options),
      epoch_(std::chrono::steady_clock::now()) {
  ADS_CHECK(pool_ != nullptr) << "serving needs a thread pool";
}

ServingRuntime::~ServingRuntime() { Shutdown(); }

void ServingRuntime::RegisterBackend(
    const std::string& model, autonomy::ResilientModelServer* backend) {
  owned_backend_mu_.push_back(std::make_unique<std::mutex>());
  RegisterBackend(model, backend, owned_backend_mu_.back().get());
}

void ServingRuntime::RegisterBackend(const std::string& model,
                                     autonomy::ResilientModelServer* backend,
                                     std::mutex* mu) {
  ADS_CHECK(backend != nullptr) << "null backend";
  ADS_CHECK(mu != nullptr) << "null backend mutex";
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(!started_) << "backends must be registered before Start()";
  backends_[model] = backend;
  backend_mu_[model] = mu;
}

void ServingRuntime::SetRouter(const autonomy::VersionRouter* router) {
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(!started_) << "SetRouter after Start()";
  router_ = router;
}

void ServingRuntime::SetTracer(telemetry::Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(!started_) << "SetTracer after Start()";
  tracer_ = tracer;
  core_.SetTracer(tracer);
}

void ServingRuntime::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(!started_) << "Start() is one-shot";
  ADS_CHECK(!backends_.empty()) << "no backends registered";
  started_ = true;
  epoch_ = std::chrono::steady_clock::now();
  dispatcher_ = std::thread([this]() { DispatcherLoop(); });
}

double ServingRuntime::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

ServingRuntime::Callback ServingRuntime::TakeCallback(uint64_t id) {
  // Caller holds no locks; callbacks_ is guarded by mu_.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = callbacks_.find(id);
  if (it == callbacks_.end()) return nullptr;
  Callback cb = std::move(it->second);
  callbacks_.erase(it);
  return cb;
}

common::Status ServingRuntime::Submit(Request request, Callback callback) {
  const uint64_t id = request.id;
  AdmitResult admit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || shutting_down_) {
      return common::Status::FailedPrecondition(
          "serving runtime is not accepting requests");
    }
    auto backend_it = backends_.find(request.model);
    if (backend_it == backends_.end()) {
      return common::Status::NotFound("unregistered model: " + request.model);
    }
    // A second request under a pending id would take over its callback
    // slot, and the first caller would never hear back.
    const auto slot = callbacks_.lower_bound(id);
    if (slot != callbacks_.end() && slot->first == id) {
      return common::Status::AlreadyExists("request id " +
                                           std::to_string(id) +
                                           " is still in flight");
    }
    PinVersion(router_, *backend_it->second, &request);
    admit = core_.Admit(std::move(request), Now());
    if (admit.accepted && callback != nullptr) {
      callbacks_.emplace_hint(slot, id, std::move(callback));
    }
  }
  if (!admit.accepted) {
    if (callback != nullptr) {
      Response response;
      response.id = id;
      response.outcome = admit.decision;
      callback(response);
    }
    switch (admit.decision) {
      case Outcome::kRejectedRateLimit:
        return common::Status::ResourceExhausted("tenant rate limit");
      case Outcome::kRejectedDeadline:
        return common::Status::OutOfRange("deadline already expired");
      default:
        return common::Status::ResourceExhausted("serving queue full");
    }
  }
  if (admit.evicted) {
    EmitShed({admit.victim}, Outcome::kShedCapacity);
  }
  dispatcher_wake_.notify_one();
  return common::Status::Ok();
}

void ServingRuntime::EmitShed(const std::vector<Request>& requests,
                              Outcome outcome) {
  for (const Request& request : requests) {
    Callback cb = TakeCallback(request.id);
    if (cb == nullptr) continue;
    Response response;
    response.id = request.id;
    response.outcome = outcome;
    cb(response);
  }
}

void ServingRuntime::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!shutting_down_ && !core_.HasReadyBatch(Now())) {
      double next = core_.NextLingerDeadline();
      if (next == std::numeric_limits<double>::infinity()) {
        dispatcher_wake_.wait(lock);
      } else {
        dispatcher_wake_.wait_until(
            lock, epoch_ + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(next)));
      }
      continue;  // re-evaluate readiness / shutdown with fresh time
    }
    // Shed anything whose deadline passed while it queued.
    std::vector<Request> expired;
    core_.DropExpired(Now(), &expired);
    if (!expired.empty()) {
      lock.unlock();
      EmitShed(expired, Outcome::kShedDeadline);
      lock.lock();
    }
    while (core_.HasReadyBatch(Now())) {
      Batch batch;
      core_.TakeReadyBatch(Now(), &batch);
      if (batch.requests.empty()) break;
      ++inflight_batches_;
      lock.unlock();
      pool_->Submit(
          [this, b = std::move(batch)]() mutable { ExecuteBatch(std::move(b)); });
      lock.lock();
    }
    if (shutting_down_) {
      // Graceful drain: flush every remaining request, ignoring linger.
      std::vector<Request> late;
      core_.DropExpired(Now(), &late);
      if (!late.empty()) {
        lock.unlock();
        EmitShed(late, Outcome::kShedDeadline);
        lock.lock();
      }
      std::vector<Batch> rest = core_.Drain(Now());
      for (Batch& batch : rest) {
        ++inflight_batches_;
        lock.unlock();
        pool_->Submit([this, b = std::move(batch)]() mutable {
          ExecuteBatch(std::move(b));
        });
        lock.lock();
      }
      dispatcher_done_ = true;
      drained_.notify_all();
      return;
    }
  }
}

void ServingRuntime::ExecuteBatch(Batch batch) {
  const size_t batch_size = batch.requests.size();
  autonomy::ResilientModelServer* backend = nullptr;
  std::mutex* backend_mu = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    backend = backends_.at(batch.model);
    backend_mu = backend_mu_.at(batch.model);
  }
  std::vector<Response> responses;
  responses.reserve(batch_size);
  telemetry::SpanId backend_span = telemetry::kNoSpan;
  if (tracer_ != nullptr && batch.trace_span != telemetry::kNoSpan) {
    backend_span =
        tracer_->StartSpan("backend", batch.model, batch.trace_span, Now());
  }
  {
    // ResilientModelServer is not internally synchronized; serialize per
    // backend so two in-flight batches of one model cannot race.
    std::lock_guard<std::mutex> backend_lock(*backend_mu);
    // One deadline check for the whole batch, then one PredictBatch call
    // for every still-live request: the backend's batched kernel replaces
    // the former per-request Predict loop. Ragged feature arity (requests
    // for one model disagreeing on dimensions) falls back to per-row
    // serving, which the backend also uses internally whenever faults or
    // breaker state could make rows diverge.
    const double now = Now();
    std::vector<size_t> live;
    live.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      if (batch.requests[i].deadline > now) live.push_back(i);
    }
    // Batches run concurrently on pool workers, so each has its own
    // scratch.
    ServeScratch scratch;
    std::vector<autonomy::ResilientModelServer::ServeResult> served;
    ServeBatch(backend, batch, live, now, &scratch, &served);
    size_t next_live = 0;
    for (size_t i = 0; i < batch_size; ++i) {
      const Request& request = batch.requests[i];
      Response response;
      response.id = request.id;
      response.batch_size = batch_size;
      if (next_live < live.size() && live[next_live] == i) {
        const autonomy::ResilientModelServer::ServeResult& result =
            served[next_live];
        ++next_live;
        response.outcome = Outcome::kServed;
        response.value = result.value;
        response.tier = result.tier;
        response.model_version = result.version;
        response.latency_seconds = Now() - request.arrival;
      } else {
        response.outcome = Outcome::kShedDeadline;
      }
      if (tracer_ != nullptr && request.trace_span != telemetry::kNoSpan) {
        if (response.outcome == Outcome::kServed) {
          telemetry::SpanId serve = tracer_->StartSpan(
              "serve", batch.model, request.trace_span, now);
          tracer_->Annotate(serve, "batch", std::to_string(batch.seq));
          tracer_->Annotate(serve, "tier", TierName(response.tier));
          if (response.tier !=
              autonomy::ResilientModelServer::Tier::kDeployed) {
            telemetry::SpanId fallback = tracer_->StartSpan(
                "fallback", TierName(response.tier), serve, now);
            tracer_->EndSpan(fallback, Now());
          }
          tracer_->EndSpan(serve, Now());
        }
        tracer_->Annotate(request.trace_span, "outcome",
                          OutcomeName(response.outcome));
        tracer_->EndSpan(request.trace_span, Now());
      }
      responses.push_back(std::move(response));
    }
  }
  if (backend_span != telemetry::kNoSpan) {
    tracer_->EndSpan(backend_span, Now());
    tracer_->EndSpan(batch.trace_span, Now());
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    batch_size_.Add(static_cast<double>(batch_size));
    for (const Response& response : responses) {
      if (response.outcome != Outcome::kServed) continue;
      latency_.Add(response.latency_seconds);
      per_model_latency_[batch.model].Add(response.latency_seconds);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Response& response : responses) {
      if (response.outcome == Outcome::kServed) {
        ++core_.mutable_counters().served;
      } else {
        ++core_.mutable_counters().shed_deadline;
      }
    }
  }
  for (const Response& response : responses) {
    Callback cb = TakeCallback(response.id);
    if (cb != nullptr) cb(response);
  }
  {
    // Notify under the lock: once the waiter in Shutdown() observes
    // inflight_batches_ == 0 the runtime may be destroyed, so the
    // notify must complete before that observation becomes possible.
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_batches_;
    drained_.notify_all();
  }
}

void ServingRuntime::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    shutting_down_ = true;
  }
  dispatcher_wake_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this]() {
    return dispatcher_done_ && inflight_batches_ == 0;
  });
}

ServingStats ServingRuntime::Stats() const {
  ServingStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.counters = core_.counters();
    stats.queued = core_.queued();
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats.latency = latency_.Summary();
    for (const auto& [model, sketch] : per_model_latency_) {
      stats.per_model_latency[model] = sketch.Summary();
    }
    stats.batch_size = batch_size_;
  }
  stats.pool = pool_->Stats();
  return stats;
}

void ServingRuntime::SampleGauges(telemetry::TelemetryStore* store) const {
  ADS_CHECK(store != nullptr) << "null telemetry store";
  SampleGauges(telemetry::ScopedGauges(store, "serve."));
}

void ServingRuntime::SampleGauges(const telemetry::ScopedGauges& gauges) const {
  ServingStats stats = Stats();
  const double now = Now();
  // Gauge samples are monotone in time per series; Record checks order.
  gauges.Record("queue_depth", now, static_cast<double>(stats.queued));
  gauges.Record("served_total", now, static_cast<double>(stats.counters.served));
  gauges.Record("shed_total", now,
                static_cast<double>(stats.counters.shed_capacity +
                                    stats.counters.shed_deadline));
  gauges.Record("rejected_total", now,
                static_cast<double>(stats.counters.Rejected()));
  gauges.Record("batch_size_mean", now, stats.batch_size.mean());
  gauges.Record("pool.queued", now, static_cast<double>(stats.pool.queued));
  gauges.Record("pool.active", now, static_cast<double>(stats.pool.active));
  gauges.Record("pool.executed", now,
                static_cast<double>(stats.pool.executed));
  for (const auto& [model, summary] : stats.per_model_latency) {
    gauges.Record("latency.p50", now, summary.p50, {{"model", model}});
    gauges.Record("latency.p95", now, summary.p95, {{"model", model}});
    gauges.Record("latency.p99", now, summary.p99, {{"model", model}});
  }
}

}  // namespace ads::serve
