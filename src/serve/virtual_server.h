#ifndef ADS_SERVE_VIRTUAL_SERVER_H_
#define ADS_SERVE_VIRTUAL_SERVER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>

#include "autonomy/router.h"
#include "autonomy/serving.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "serve/core.h"
#include "serve/types.h"
#include "telemetry/gauges.h"
#include "telemetry/store.h"

namespace ads::serve {

/// Deterministic cost model for one simulated backend dispatch: a batch of
/// n requests occupies a worker for overhead + n * per_item seconds. The
/// fixed overhead is what micro-batching amortizes.
struct ServiceTimeModel {
  double batch_overhead_seconds = 0.002;
  double per_item_seconds = 0.0005;
};

struct VirtualOptions {
  CoreOptions core;
  ServiceTimeModel service;
  /// Concurrent simulated batch executors (the virtual thread pool).
  size_t workers = 4;
  /// Gauge-sampling period into the telemetry store (0 = off).
  double telemetry_period_seconds = 0.0;
};

/// End-of-run aggregate of one virtual-time serving experiment.
struct VirtualReport {
  Counters counters;
  /// Latency digest over served requests (seconds).
  common::QuantileSummary latency;
  double mean_batch_size = 0.0;
  size_t max_queue_depth = 0;
  /// Simulated time at which the last event (completion) ran.
  double horizon_seconds = 0.0;
  /// served / horizon_seconds.
  double throughput_rps = 0.0;
};

/// Virtual-time twin of ServingRuntime: the same ServingCore (admission,
/// shedding, rate limiting, micro-batching) driven by a single-threaded
/// discrete-event loop instead of threads, with a deterministic
/// service-time model standing in for backend compute. Seeded arrivals in,
/// byte-identical reports out — regardless of ADS_THREADS — which is what
/// makes serving tests and bench_p3_serving reproducible.
///
/// Semantics: requests expired at *dispatch* time are shed; once a batch
/// is in flight its requests are served even if their deadline passes
/// mid-execution (matching the threaded runtime, which checks deadlines
/// immediately before calling the backend).
class VirtualServer {
 public:
  /// Observes every terminal response (serves, sheds, rejects) in event
  /// order; useful for value-level assertions.
  using Callback = std::function<void(const Response&)>;

  explicit VirtualServer(VirtualOptions options,
                         telemetry::TelemetryStore* store = nullptr);

  /// Backends are borrowed and must outlive Run().
  void RegisterBackend(const std::string& model,
                       autonomy::ResilientModelServer* backend);

  /// Attaches a version router (borrowed, may be null; call before Run()).
  /// Arrivals consult it once at admission to stamp
  /// Request::pinned_version (canary tenant slices); when it declines
  /// (returns 0) the request pins the version deployed at admission, so a
  /// Deploy/Rollback fired mid-run (e.g. from the response callback or the
  /// autonomy loop) never retargets already-admitted requests.
  void SetRouter(const autonomy::VersionRouter* router);

  /// Attaches a causal span tracer (borrowed; call before Run()). Records
  /// request → admission → batch → backend → fallback causality in
  /// virtual time; with a fixed seed the resulting span table is
  /// byte-identical across runs and ADS_THREADS values.
  void SetTracer(telemetry::Tracer* tracer);

  void SetResponseCallback(Callback callback);

  /// Schedules one request arrival at simulated time `t`. Call before
  /// Run().
  void SubmitAt(double t, Request request);

  /// Runs the event loop until every submitted request has a terminal
  /// outcome (the loop drains: linger timers flush partial batches and
  /// completions free workers). One-shot.
  VirtualReport Run();

 private:
  void OnArrival(Request request, double now);
  /// Sheds expired requests, starts batches on free workers, and arms the
  /// next linger timer.
  void Dispatch(double now);
  void OnBatchComplete(Batch batch, double dispatched, double now);
  void Emit(const Response& response);
  void SampleGauges(double now);

  VirtualOptions options_;
  telemetry::TelemetryStore* store_;
  telemetry::Tracer* tracer_ = nullptr;
  const autonomy::VersionRouter* router_ = nullptr;
  common::EventQueue queue_;
  ServingCore core_;
  std::map<std::string, autonomy::ResilientModelServer*> backends_;
  Callback callback_;
  size_t busy_workers_ = 0;
  bool ran_ = false;

  common::QuantileSketch latency_;
  common::RunningMoments batch_size_;
  size_t max_queue_depth_ = 0;
};

}  // namespace ads::serve

#endif  // ADS_SERVE_VIRTUAL_SERVER_H_
