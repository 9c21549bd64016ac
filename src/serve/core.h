#ifndef ADS_SERVE_CORE_H_
#define ADS_SERVE_CORE_H_

#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serve/batcher.h"
#include "serve/rate_limiter.h"
#include "serve/types.h"
#include "telemetry/span.h"

namespace ads::serve {

/// Configuration shared by the threaded runtime and virtual-time server.
struct CoreOptions {
  /// Total queued requests across all models; arrivals beyond this either
  /// evict a lower-priority victim (load shedding) or are rejected.
  /// SIZE_MAX disables admission control (the "unshed overload" baseline).
  size_t queue_capacity = 1024;
  /// Micro-batching policy. Disabled means batch size 1 with no linger
  /// (every request dispatches alone as soon as a worker frees).
  bool batching = true;
  BatcherOptions batcher;
  /// Per-tenant token-bucket rate limiting at admission.
  bool rate_limiting = false;
  TokenBucketOptions rate_limit;
};

/// What happened to one submitted request at admission time.
struct AdmitResult {
  Outcome decision = Outcome::kServed;  // kServed means accepted
  bool accepted = false;
  /// When acceptance evicted a queued lower-priority request, the victim
  /// (its owner must emit a kShedCapacity response for it).
  bool evicted = false;
  Request victim;
};

/// Single-threaded deterministic heart of the serving runtime: bounded
/// admission with deadline/priority-aware shedding, per-tenant rate
/// limiting, and per-model micro-batching. Owns all queued requests and
/// the monotonic counters; owns no threads and no clock — both runtimes
/// (ServingRuntime under a mutex, VirtualServer from its event loop) drive
/// it with explicit timestamps, which is what makes virtual-time runs
/// byte-reproducible.
class ServingCore {
 public:
  explicit ServingCore(CoreOptions options);

  /// Attaches a causal span tracer (borrowed; may be null). Admission
  /// opens a root "request" span per submitted request with an instant
  /// "admission" child carrying the decision; rejected and shed requests
  /// end their span here with the outcome. A request arriving with a
  /// pre-set trace_span keeps it as its root (the fleet layer opens roots
  /// before routing) — admission then only attaches children. TakeReadyBatch/Drain open a
  /// root "batch" span per dispatch naming its member requests; the
  /// driving runtime closes it at completion and ends the served request
  /// spans. Callers synchronize SetTracer with their own admission lock.
  void SetTracer(telemetry::Tracer* tracer) { tracer_ = tracer; }
  telemetry::Tracer* tracer() const { return tracer_; }

  /// Admission: rate limit → expired-deadline check → capacity check
  /// (with priority eviction when full). Accepted requests are stamped
  /// with arrival = now and queued on their model's batcher.
  AdmitResult Admit(Request request, double now);

  /// Earliest linger expiry across models (+inf when nothing is pending):
  /// the time at which TakeReadyBatch will next have work even with no
  /// further arrivals.
  double NextLingerDeadline() const;

  bool HasReadyBatch(double now) const;

  /// Replaces *batch with the next dispatchable batch at `now` (models in
  /// name order for determinism), reusing its storage; batch->requests is
  /// empty when none is ready.
  void TakeReadyBatch(double now, Batch* batch);

  /// Replaces *expired with every queued request whose deadline has
  /// passed; the caller emits kShedDeadline responses (counters are
  /// updated here).
  void DropExpired(double now, std::vector<Request>* expired);

  /// Drains everything still queued as batches, ignoring linger windows —
  /// the graceful-shutdown path. Expired requests are NOT included; call
  /// DropExpired first. `now` stamps the drain-time batch spans.
  std::vector<Batch> Drain(double now);

  /// Extracts every queued request raw — no batch spans, no counter
  /// movement. This is the shard-drain reroute path: the fleet layer
  /// moves the requests into another core via Reinject and accounts the
  /// transfer itself (rerouted_out / rerouted_in), so nothing is counted
  /// twice.
  std::vector<Request> TakeQueued();

  /// Re-enqueues a request extracted from another core by TakeQueued.
  /// Skips admission checks and counters — the request was already
  /// admitted (and counted) where it first arrived. Its original arrival
  /// stamp is preserved, so measured latency spans the reroute and an
  /// expired linger window dispatches it promptly on the new shard.
  void Reinject(Request request);

  size_t queued() const { return queued_; }
  const Counters& counters() const { return counters_; }
  Counters& mutable_counters() { return counters_; }
  const TenantRateLimiter& limiter() const { return limiter_; }
  const CoreOptions& options() const { return options_; }

 private:
  /// Batchers are keyed by (model, pinned version): requests pinned to
  /// different versions of the same model never share a micro-batch, which
  /// is what lets a hot-swap land while earlier admissions are still
  /// queued. Key order (model name, then version ascending) keeps dispatch
  /// deterministic.
  using BatcherKey = std::pair<std::string, uint32_t>;
  MicroBatcher& BatcherFor(const std::string& model, uint32_t version);
  /// Opens the batch span for a just-taken batch and back-links members.
  void TraceBatch(Batch* batch, double now);

  CoreOptions options_;
  TenantRateLimiter limiter_;
  telemetry::Tracer* tracer_ = nullptr;
  uint64_t next_batch_seq_ = 0;
  std::map<BatcherKey, MicroBatcher> batchers_;
  size_t queued_ = 0;
  Counters counters_;
};

}  // namespace ads::serve

#endif  // ADS_SERVE_CORE_H_
