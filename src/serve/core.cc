#include "serve/core.h"

#include <algorithm>
#include <utility>

namespace ads::serve {

namespace {

BatcherOptions EffectiveBatcher(const CoreOptions& options) {
  if (options.batching) return options.batcher;
  // Batching off: singleton batches, no linger.
  BatcherOptions single;
  single.max_batch_size = 1;
  single.max_linger_seconds = 0.0;
  return single;
}

}  // namespace

ServingCore::ServingCore(CoreOptions options)
    : options_(options), limiter_(options.rate_limit) {}

MicroBatcher& ServingCore::BatcherFor(std::string_view model,
                                      uint32_t version) {
  const BatcherKeyLess::Probe probe(model, version);
  auto it = batchers_.lower_bound(probe);
  if (it == batchers_.end() || batchers_.key_comp()(probe, it->first)) {
    it = batchers_.emplace_hint(it, BatcherKey(std::string(model), version),
                                MicroBatcher(EffectiveBatcher(options_)));
  }
  return it->second;
}

AdmitResult ServingCore::Admit(Request request, double now) {
  AdmitResult result;
  ++counters_.submitted;
  // A pre-set trace_span means an outer layer (the fleet router) already
  // opened this request's causal root; admission attaches to it instead
  // of opening a second root, and leaves the outer layer's annotations
  // alone.
  if (tracer_ != nullptr && request.trace_span == telemetry::kNoSpan) {
    request.trace_span = tracer_->StartSpan(
        "request", "req-" + std::to_string(request.id), telemetry::kNoSpan,
        now);
    tracer_->Annotate(request.trace_span, "model", request.model);
    tracer_->Annotate(request.trace_span, "tenant", request.tenant);
    if (request.priority != 0) {
      tracer_->Annotate(request.trace_span, "priority",
                        std::to_string(request.priority));
    }
  }
  // Instant admission child carrying the verdict; rejections also close
  // the request span right here — the request's whole causal story.
  auto decide = [&](Outcome outcome) {
    if (tracer_ == nullptr) return;
    telemetry::SpanId admission =
        tracer_->StartSpan("admission", "admit", request.trace_span, now);
    tracer_->Annotate(admission, "decision",
                      outcome == Outcome::kServed ? "accepted"
                                                  : OutcomeName(outcome));
    tracer_->EndSpan(admission, now);
    if (outcome != Outcome::kServed) {
      tracer_->Annotate(request.trace_span, "outcome", OutcomeName(outcome));
      tracer_->EndSpan(request.trace_span, now);
    }
  };
  if (options_.rate_limiting && !limiter_.Admit(request.tenant, now)) {
    ++counters_.rejected_rate_limit;
    result.decision = Outcome::kRejectedRateLimit;
    decide(result.decision);
    return result;
  }
  if (request.deadline <= now) {
    ++counters_.rejected_deadline;
    result.decision = Outcome::kRejectedDeadline;
    decide(result.decision);
    return result;
  }
  request.arrival = now;
  if (queued_ >= options_.queue_capacity) {
    // Full: shed the globally worst queued request if the newcomer
    // outranks it, otherwise reject the newcomer.
    MicroBatcher* victim_home = nullptr;
    const Request* worst = nullptr;
    for (auto& [key, batcher] : batchers_) {
      const Request* candidate = batcher.PeekWorst();
      if (candidate == nullptr) continue;
      if (worst == nullptr || MicroBatcher::WorseThan(*candidate, *worst)) {
        worst = candidate;
        victim_home = &batcher;
      }
    }
    if (worst == nullptr || !MicroBatcher::WorseThan(*worst, request)) {
      ++counters_.rejected_capacity;
      result.decision = Outcome::kRejectedCapacity;
      decide(result.decision);
      return result;
    }
    result.evicted = true;
    result.victim = victim_home->EvictWorst();
    --queued_;
    ++counters_.shed_capacity;
    if (tracer_ != nullptr) {
      tracer_->Annotate(result.victim.trace_span, "outcome",
                        OutcomeName(Outcome::kShedCapacity));
      tracer_->Annotate(result.victim.trace_span, "evicted_by",
                        "req-" + std::to_string(request.id));
      tracer_->EndSpan(result.victim.trace_span, now);
    }
  }
  ++counters_.accepted;
  ++queued_;
  decide(Outcome::kServed);  // accepted; the span stays open
  BatcherFor(request.model, request.pinned_version).Add(std::move(request));
  result.accepted = true;
  return result;
}

double ServingCore::NextLingerDeadline() const {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& [key, batcher] : batchers_) {
    next = std::min(next, batcher.NextDeadline());
  }
  return next;
}

bool ServingCore::HasReadyBatch(double now) const {
  for (const auto& [key, batcher] : batchers_) {
    if (batcher.Ready(now)) return true;
  }
  return false;
}

void ServingCore::TraceBatch(Batch* batch, double now) {
  if (tracer_ == nullptr || batch->requests.empty()) return;
  batch->seq = ++next_batch_seq_;
  batch->trace_span = tracer_->StartSpan(
      "batch", "batch-" + std::to_string(batch->seq), telemetry::kNoSpan, now);
  tracer_->Annotate(batch->trace_span, "model", batch->model);
  if (batch->pinned_version != 0) {
    tracer_->Annotate(batch->trace_span, "version",
                      std::to_string(batch->pinned_version));
  }
  tracer_->Annotate(batch->trace_span, "size",
                    std::to_string(batch->requests.size()));
  std::string members;
  for (const Request& request : batch->requests) {
    if (!members.empty()) members += ",";
    members += std::to_string(request.id);
    // Back-link: the batch ordinal on the request span is the causal edge
    // from a served request to the dispatch that carried it.
    tracer_->Annotate(request.trace_span, "batch",
                      std::to_string(batch->seq));
  }
  tracer_->Annotate(batch->trace_span, "requests", members);
}

void ServingCore::TakeReadyBatch(double now, Batch* batch) {
  batch->model.clear();
  batch->requests.clear();
  batch->pinned_version = 0;
  batch->trace_span = telemetry::kNoSpan;
  batch->seq = 0;
  for (auto& [key, batcher] : batchers_) {
    if (!batcher.Ready(now)) continue;
    batch->model = key.first;
    batch->pinned_version = key.second;
    batcher.TakeBatch(&batch->requests);
    queued_ -= batch->requests.size();
    TraceBatch(batch, now);
    return;
  }
}

void ServingCore::DropExpired(double now, std::vector<Request>* expired) {
  expired->clear();
  for (auto& [key, batcher] : batchers_) {
    batcher.DropExpired(now, expired);
  }
  queued_ -= expired->size();
  counters_.shed_deadline += expired->size();
  if (tracer_ != nullptr) {
    for (const Request& request : *expired) {
      tracer_->Annotate(request.trace_span, "outcome",
                        OutcomeName(Outcome::kShedDeadline));
      tracer_->EndSpan(request.trace_span, now);
    }
  }
}

std::vector<Request> ServingCore::TakeQueued() {
  std::vector<Request> all;
  std::vector<Request> chunk;
  for (auto& [key, batcher] : batchers_) {
    while (batcher.pending() > 0) {
      batcher.TakeBatch(&chunk);
      queued_ -= chunk.size();
      for (Request& request : chunk) all.push_back(std::move(request));
    }
  }
  return all;
}

void ServingCore::Reinject(Request request) {
  ++queued_;
  BatcherFor(request.model, request.pinned_version).Add(std::move(request));
}

std::vector<Batch> ServingCore::Drain(double now) {
  std::vector<Batch> batches;
  for (auto& [key, batcher] : batchers_) {
    while (batcher.pending() > 0) {
      Batch batch;
      batch.model = key.first;
      batch.pinned_version = key.second;
      batcher.TakeBatch(&batch.requests);
      queued_ -= batch.requests.size();
      TraceBatch(&batch, now);
      batches.push_back(std::move(batch));
    }
  }
  return batches;
}

}  // namespace ads::serve
