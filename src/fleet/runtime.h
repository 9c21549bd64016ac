#ifndef ADS_FLEET_RUNTIME_H_
#define ADS_FLEET_RUNTIME_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autonomy/router.h"
#include "autonomy/serving.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fleet/hedge.h"
#include "fleet/ledger.h"
#include "fleet/router.h"
#include "fleet/types.h"
#include "serve/runtime.h"
#include "serve/types.h"
#include "telemetry/span.h"
#include "telemetry/store.h"

namespace ads::fleet {

struct FleetRuntimeOptions {
  size_t shards = 4;
  size_t replicas_per_shard = 2;
  /// Admission/batching policy instantiated per replica runtime.
  serve::CoreOptions core;
  HedgeOptions hedge;
  RouterOptions router;
};

/// Threaded sharded serving tier: shards x replicas ServingRuntimes behind
/// one FleetRouter, with tail-latency hedging driven by a dedicated hedger
/// thread. The wall-clock counterpart of VirtualFleet — same routing, and
/// the same FlightLedger (hedge race, ShardCounters, latency base) driven
/// under this runtime's mutex on a steady clock — minus virtual time's
/// reproducibility: use VirtualFleet for byte-stable experiments and this
/// for running under real load.
///
/// Drain model: DrainShard diverts new arrivals via the ring; work already
/// queued on the shard completes in place (a real runtime cannot un-send
/// what its dispatcher may already be executing), so a rolling deploy is
/// drain → WaitShardQuiesced → swap → RejoinShard with zero lost requests.
/// The mid-drain queue reroute with ownership transfer is exercised in
/// virtual time, where it is observable deterministically.
///
/// Every logical request gets exactly one user callback, even when hedged:
/// copy responses funnel through the ledger, which picks the first served
/// copy (or the primary's failure once every copy has failed) and discards
/// the loser. A served response's latency_seconds runs from this Submit to
/// the winning copy's completion.
class FleetRuntime {
 public:
  using Callback = serve::ServingRuntime::Callback;

  /// `pool` is borrowed, shared by every replica runtime, and must outlive
  /// the fleet.
  FleetRuntime(FleetRuntimeOptions options, common::ThreadPool* pool);
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  /// Registers a model on every replica (fleet-wide). Borrowed; must
  /// outlive Shutdown(). The fleet installs one shared per-model mutex
  /// across all replica runtimes, so the non-thread-safe backend never
  /// sees interleaved Predict calls — replicas serialize on the backend,
  /// which models a shared model store behind independent serving queues.
  void RegisterBackend(const std::string& model,
                       autonomy::ResilientModelServer* backend);

  /// Version router consulted once per logical request at Submit; the pin
  /// is stamped before placement so the primary and any hedge duplicate
  /// serve the same version even if a promote lands between them.
  void SetVersionRouter(const autonomy::VersionRouter* router);
  /// Forwards a thread-safe tracer to every replica runtime.
  void SetTracer(telemetry::Tracer* tracer);

  void Start();

  /// Thread-safe. Routes by (tenant, id), stamps the version pin, and
  /// submits to the chosen replica. `callback` fires exactly once with the
  /// logical outcome; requests accepted with hedging enabled may fire a
  /// duplicate later. Refused before anything is counted, with no
  /// callback: NotFound for a model with no registered backend,
  /// AlreadyExists for the id of a request still in flight.
  common::Status Submit(serve::Request request, Callback callback);

  /// Diverts new arrivals away from `shard` (ring fallback order). Queued
  /// and in-flight work completes in place.
  void DrainShard(ShardId shard);
  void RejoinShard(ShardId shard);
  /// Blocks until the shard has no queued work and no unresolved flight
  /// whose primary copy lives there. Call after DrainShard to know the
  /// shard is safe to restart.
  void WaitShardQuiesced(ShardId shard) const;

  /// Stops the hedger, drains every replica runtime, and checks the
  /// fleet accounting invariants. Idempotent.
  void Shutdown();

  std::vector<ShardCounters> CountersSnapshot() const;
  ShardCounters FleetCounters() const;
  serve::ServingStats ReplicaStats(ShardId shard, size_t r) const;
  const FleetRouter& router() const { return router_; }
  /// Current quantile-derived hedge delay (seconds).
  double HedgeDelay() const;

  /// Publishes per-replica serving gauges (prefix "fleet.serve.", labels
  /// {shard, replica}) and per-shard fleet counters (prefix "fleet.",
  /// label {shard}) into `store`, and refreshes the router's load view.
  void SampleGauges(telemetry::TelemetryStore* store);

 private:
  struct HedgeDeadline {
    std::chrono::steady_clock::time_point due;
    uint64_t id;
    bool operator>(const HedgeDeadline& other) const {
      return due > other.due;
    }
  };

  serve::ServingRuntime& replica(ShardId shard, size_t r) {
    return *runtimes_[shard * options_.replicas_per_shard + r];
  }
  const serve::ServingRuntime& replica(ShardId shard, size_t r) const {
    return *runtimes_[shard * options_.replicas_per_shard + r];
  }
  /// Seconds on the fleet's steady clock, the one clock flights are timed
  /// on.
  double Now() const;
  /// Submits one copy of `id` to replica (shard, r). A refusal without a
  /// callback (shutdown race) is reported as a capacity rejection.
  common::Status SubmitCopy(uint64_t id, ShardId shard, size_t r,
                            serve::Request copy);
  /// Funnel for every copy response: reports it to the ledger and fires
  /// the user callback when it resolves the request.
  void OnCopyResponse(uint64_t id, ShardId shard, size_t r,
                      const serve::Response& response);
  void HedgerLoop();
  /// Fires one due hedge (called from the hedger with mu_ held; drops the
  /// lock around the inner Submit).
  void FireHedge(uint64_t id, std::unique_lock<std::mutex>& lock);

  FleetRuntimeOptions options_;
  common::ThreadPool* pool_;
  FleetRouter router_;
  std::vector<std::unique_ptr<serve::ServingRuntime>> runtimes_;
  std::map<std::string, autonomy::ResilientModelServer*> backends_;
  /// Fleet-wide per-model backend serialization (see RegisterBackend).
  std::map<std::string, std::unique_ptr<std::mutex>> backend_serialization_;
  const autonomy::VersionRouter* version_router_ = nullptr;

  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable hedger_wake_;
  FlightLedger ledger_;
  std::priority_queue<HedgeDeadline, std::vector<HedgeDeadline>,
                      std::greater<HedgeDeadline>>
      hedge_deadlines_;
  bool started_ = false;
  bool shutting_down_ = false;
  std::thread hedger_;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_RUNTIME_H_
