#include "serve/virtual_server.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace ads::serve {

VirtualServer::VirtualServer(VirtualOptions options,
                             telemetry::TelemetryStore* store)
    : options_(options), store_(store), core_(options.core) {
  ADS_CHECK(options_.workers >= 1) << "need at least one virtual worker";
  ADS_CHECK(options_.service.batch_overhead_seconds >= 0.0 &&
            options_.service.per_item_seconds >= 0.0)
      << "negative service time";
}

void VirtualServer::RegisterBackend(const std::string& model,
                                    autonomy::ResilientModelServer* backend) {
  ADS_CHECK(backend != nullptr) << "null backend";
  backends_[model] = backend;
}

void VirtualServer::SetResponseCallback(Callback callback) {
  callback_ = std::move(callback);
}

void VirtualServer::SetRouter(const autonomy::VersionRouter* router) {
  ADS_CHECK(!ran_) << "SetRouter after Run()";
  router_ = router;
}

void VirtualServer::SetTracer(telemetry::Tracer* tracer) {
  ADS_CHECK(!ran_) << "SetTracer after Run()";
  tracer_ = tracer;
  core_.SetTracer(tracer);
}

void VirtualServer::SubmitAt(double t, Request request) {
  ADS_CHECK(!ran_) << "SubmitAt after Run()";
  queue_.ScheduleAt(t, [this, r = std::move(request)](
                           common::SimTime now) mutable {
    OnArrival(std::move(r), now);
  });
}

void VirtualServer::Emit(const Response& response) {
  if (callback_ != nullptr) callback_(response);
}

void VirtualServer::OnArrival(Request request, double now) {
  auto backend_it = backends_.find(request.model);
  ADS_CHECK(backend_it != backends_.end())
      << "unregistered model: " << request.model;
  const uint64_t id = request.id;
  PinVersion(router_, *backend_it->second, &request);
  AdmitResult admit = core_.Admit(std::move(request), now);
  if (!admit.accepted) {
    Response response;
    response.id = id;
    response.outcome = admit.decision;
    Emit(response);
  }
  if (admit.evicted) {
    Response response;
    response.id = admit.victim.id;
    response.outcome = Outcome::kShedCapacity;
    Emit(response);
  }
  max_queue_depth_ = std::max(max_queue_depth_, core_.queued());
  Dispatch(now);
}

void VirtualServer::Dispatch(double now) {
  std::vector<Request> expired;
  core_.DropExpired(now, &expired);
  for (const Request& request : expired) {
    Response response;
    response.id = request.id;
    response.outcome = Outcome::kShedDeadline;
    Emit(response);
  }
  while (busy_workers_ < options_.workers && core_.HasReadyBatch(now)) {
    Batch batch;
    core_.TakeReadyBatch(now, &batch);
    if (batch.requests.empty()) break;
    ++busy_workers_;
    double service =
        options_.service.batch_overhead_seconds +
        options_.service.per_item_seconds *
            static_cast<double>(batch.requests.size());
    queue_.ScheduleAt(
        now + service,
        [this, b = std::move(batch), now](common::SimTime t) mutable {
          OnBatchComplete(std::move(b), now, t);
        });
  }
  if (core_.queued() > 0) {
    double next = core_.NextLingerDeadline();
    if (next > now &&
        next < std::numeric_limits<double>::infinity()) {
      // Linger timer: flushes a partial batch when its window expires.
      // Stale timers (batch already dispatched) land on an idle core and
      // no-op, so no deduplication is needed.
      queue_.ScheduleAt(next, [this](common::SimTime t) { Dispatch(t); });
    }
  }
}

void VirtualServer::OnBatchComplete(Batch batch, double dispatched,
                                    double now) {
  --busy_workers_;
  autonomy::ResilientModelServer* backend = backends_.at(batch.model);
  const size_t batch_size = batch.requests.size();
  batch_size_.Add(static_cast<double>(batch_size));
  telemetry::SpanId backend_span = telemetry::kNoSpan;
  if (tracer_ != nullptr && batch.trace_span != telemetry::kNoSpan) {
    backend_span =
        tracer_->StartSpan("backend", batch.model, batch.trace_span,
                           dispatched);
  }
  std::vector<size_t> all(batch_size);
  std::iota(all.begin(), all.end(), size_t{0});
  ServeScratch scratch;
  std::vector<autonomy::ResilientModelServer::ServeResult> served_rows;
  ServeBatch(backend, batch, all, now, &scratch, &served_rows);
  for (size_t i = 0; i < batch_size; ++i) {
    const Request& request = batch.requests[i];
    const autonomy::ResilientModelServer::ServeResult& served =
        served_rows[i];
    Response response;
    response.id = request.id;
    response.outcome = Outcome::kServed;
    response.value = served.value;
    response.tier = served.tier;
    response.model_version = served.version;
    response.latency_seconds = now - request.arrival;
    response.batch_size = batch_size;
    ++core_.mutable_counters().served;
    latency_.Add(response.latency_seconds);
    if (tracer_ != nullptr && request.trace_span != telemetry::kNoSpan) {
      // The serve child ties the request back to the batch that carried
      // it; a fallback child records a non-deployed tier answering.
      telemetry::SpanId serve = tracer_->StartSpan(
          "serve", batch.model, request.trace_span, dispatched);
      tracer_->Annotate(serve, "batch", std::to_string(batch.seq));
      tracer_->Annotate(serve, "tier", TierName(served.tier));
      if (served.tier != autonomy::ResilientModelServer::Tier::kDeployed) {
        telemetry::SpanId fallback =
            tracer_->StartSpan("fallback", TierName(served.tier), serve,
                               dispatched);
        tracer_->EndSpan(fallback, now);
      }
      tracer_->EndSpan(serve, now);
      tracer_->Annotate(request.trace_span, "outcome",
                        OutcomeName(Outcome::kServed));
      tracer_->EndSpan(request.trace_span, now);
    }
    Emit(response);
  }
  if (backend_span != telemetry::kNoSpan) {
    tracer_->EndSpan(backend_span, now);
    tracer_->EndSpan(batch.trace_span, now);
  }
  Dispatch(now);
}

void VirtualServer::SampleGauges(double now) {
  const Counters& counters = core_.counters();
  telemetry::ScopedGauges gauges(store_, "serve.");
  auto record = [&](const std::string& name, double value) {
    gauges.Record(name, now, value);
  };
  record("queue_depth", static_cast<double>(core_.queued()));
  record("busy_workers", static_cast<double>(busy_workers_));
  record("served_total", static_cast<double>(counters.served));
  record("shed_total", static_cast<double>(counters.shed_capacity +
                                           counters.shed_deadline));
  record("rejected_total", static_cast<double>(counters.Rejected()));
  // Keep sampling while the system has work or events (arrivals,
  // completions, timers) are still pending.
  if (core_.queued() > 0 || busy_workers_ > 0 || !queue_.empty()) {
    queue_.ScheduleAt(now + options_.telemetry_period_seconds,
                      [this](common::SimTime t) { SampleGauges(t); });
  }
}

VirtualReport VirtualServer::Run() {
  ADS_CHECK(!ran_) << "Run() is one-shot";
  ran_ = true;
  if (store_ != nullptr && options_.telemetry_period_seconds > 0.0) {
    queue_.ScheduleAt(0.0, [this](common::SimTime t) { SampleGauges(t); });
  }
  queue_.RunAll();
  VirtualReport report;
  report.counters = core_.counters();
  report.latency = latency_.Summary();
  report.mean_batch_size = batch_size_.mean();
  report.max_queue_depth = max_queue_depth_;
  report.horizon_seconds = queue_.now();
  report.throughput_rps =
      report.horizon_seconds > 0.0
          ? static_cast<double>(report.counters.served) / report.horizon_seconds
          : 0.0;
  ADS_CHECK(core_.queued() == 0) << "virtual drain left requests queued";
  return report;
}

}  // namespace ads::serve
