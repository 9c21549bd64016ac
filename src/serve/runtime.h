#ifndef ADS_SERVE_RUNTIME_H_
#define ADS_SERVE_RUNTIME_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autonomy/router.h"
#include "autonomy/serving.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "serve/core.h"
#include "serve/types.h"
#include "telemetry/gauges.h"
#include "telemetry/store.h"

namespace ads::serve {

/// Snapshot returned by ServingRuntime::Stats and VirtualServer reports.
struct ServingStats {
  Counters counters;
  size_t queued = 0;
  /// Latency digest over all served requests (seconds).
  common::QuantileSummary latency;
  std::map<std::string, common::QuantileSummary> per_model_latency;
  common::RunningMoments batch_size;
  common::ThreadPoolStats pool;
};

/// SLO-aware prediction-serving runtime (threaded mode): the front door
/// the paper's decision services (KEA/Seagull/Doppler-style backends)
/// answer through under real concurrent load.
///
///   callers ──Submit──▶ [rate limiter] ─▶ [bounded queue + shedding]
///              (mutex-guarded ServingCore)        │ per-model batchers
///                                                 ▼
///         dispatcher thread ──batches──▶ ThreadPool workers
///                                                 │ per-backend serialization
///                                                 ▼
///                         ResilientModelServer::Predict ─▶ callback
///
/// Guarantees:
///  - Submit never blocks on backend work; it returns the admission
///    verdict (rejections invoke the callback inline with the reject
///    outcome before returning).
///  - Graceful drain: after Shutdown() returns, every accepted request
///    has received exactly one response — served or shed, never dropped.
///  - Zero-fault, batch-size-1, single-tenant serving returns bit-identical
///    predictions to calling ResilientModelServer::Predict directly: the
///    runtime adds queueing, never arithmetic.
///
/// Backends are borrowed, must be registered before Start(), and are
/// serialized per model by an internal mutex (ResilientModelServer itself
/// is not thread-safe); distinct models serve concurrently.
class ServingRuntime {
 public:
  using Callback = std::function<void(const Response&)>;

  /// `pool` is borrowed and must outlive the runtime; pass
  /// &ThreadPool::Serial() for deterministic single-threaded tests.
  ServingRuntime(CoreOptions options, common::ThreadPool* pool);
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  void RegisterBackend(const std::string& model,
                       autonomy::ResilientModelServer* backend);

  /// Same, but serializes backend calls through `mu` (borrowed, must
  /// outlive the runtime) instead of an internal mutex. A fleet of replica
  /// runtimes sharing one non-thread-safe backend passes the same mutex to
  /// every replica so Predict calls never interleave across runtimes.
  void RegisterBackend(const std::string& model,
                       autonomy::ResilientModelServer* backend,
                       std::mutex* mu);

  /// Attaches a version router (borrowed, may be null; call before
  /// Start()). Submit consults it once per request to stamp
  /// Request::pinned_version — the canary tenant-slice hook. When the
  /// router declines (returns 0) the request pins the version deployed at
  /// admission, so an in-flight micro-batch always completes against the
  /// model its requests were admitted under (hot-swap safety). The router
  /// itself must be thread-safe; its routing decisions may change over
  /// time (flight starts/ends) without re-attaching.
  void SetRouter(const autonomy::VersionRouter* router);

  /// Attaches a causal span tracer (borrowed; call before Start()). The
  /// tracer is thread-safe, so dispatcher and pool workers record
  /// concurrently: causality (request → admission → batch → backend →
  /// fallback) is exact, but wall-clock timestamps and span id order vary
  /// run to run — use VirtualServer for byte-reproducible traces.
  void SetTracer(telemetry::Tracer* tracer);

  /// Starts the dispatcher. Requires at least one registered backend.
  void Start();

  /// Thread-safe. Stamps arrival time, runs admission control, and queues
  /// the request; `callback` fires exactly once (from the caller's thread
  /// for rejections, from a pool worker otherwise). Returns Ok when the
  /// request was accepted, ResourceExhausted / DeadlineExceeded-style
  /// errors when rejected, FailedPrecondition after Shutdown. Refused
  /// before anything is counted, with no callback: NotFound for a model
  /// with no registered backend, AlreadyExists for an id whose callback is
  /// still pending.
  common::Status Submit(Request request, Callback callback);

  /// Stops admission, drains every queued request (served, or shed if its
  /// deadline passed), waits for in-flight batches, and joins the
  /// dispatcher. Idempotent.
  void Shutdown();

  /// Seconds since Start() on the runtime's monotonic clock.
  double Now() const;

  ServingStats Stats() const;

  /// Gauge sampler: records queue depth, served/shed counters, per-model
  /// latency quantiles, and the ThreadPool load snapshot into `store`
  /// (series prefixed "serve.") so the autonomy layer can close the loop
  /// on serving health. Call periodically from a monitoring loop.
  void SampleGauges(telemetry::TelemetryStore* store) const;

  /// Same gauges through an explicit scope — how N replica runtimes share
  /// one store without series collisions (the fleet passes a scope with a
  /// "fleet.serve." prefix and {shard, replica} labels).
  void SampleGauges(const telemetry::ScopedGauges& gauges) const;

 private:
  void DispatcherLoop();
  /// Executes one batch on the pool (called from a pool worker).
  void ExecuteBatch(Batch batch);
  void EmitShed(const std::vector<Request>& requests, Outcome outcome);
  Callback TakeCallback(uint64_t id);

  CoreOptions options_;
  common::ThreadPool* pool_;
  telemetry::Tracer* tracer_ = nullptr;
  const autonomy::VersionRouter* router_ = nullptr;
  std::map<std::string, autonomy::ResilientModelServer*> backends_;
  /// Per-model serialization mutex: owned by default, borrowed when the
  /// three-argument RegisterBackend supplies a shared one.
  std::map<std::string, std::mutex*> backend_mu_;
  std::vector<std::unique_ptr<std::mutex>> owned_backend_mu_;

  mutable std::mutex mu_;
  std::condition_variable dispatcher_wake_;
  std::condition_variable drained_;
  ServingCore core_;
  std::map<uint64_t, Callback> callbacks_;
  bool started_ = false;
  bool shutting_down_ = false;
  bool dispatcher_done_ = false;
  size_t inflight_batches_ = 0;
  std::thread dispatcher_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex stats_mu_;
  common::QuantileSketch latency_;
  std::map<std::string, common::QuantileSketch> per_model_latency_;
  common::RunningMoments batch_size_;
};

}  // namespace ads::serve

#endif  // ADS_SERVE_RUNTIME_H_
