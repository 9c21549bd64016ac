#ifndef ADS_FLEET_VIRTUAL_FLEET_H_
#define ADS_FLEET_VIRTUAL_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "autonomy/router.h"
#include "autonomy/serving.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fleet/hedge.h"
#include "fleet/ledger.h"
#include "fleet/router.h"
#include "fleet/types.h"
#include "serve/core.h"
#include "serve/types.h"
#include "telemetry/span.h"

namespace ads::fleet {

/// Deterministic cost model for one simulated backend dispatch: a batch of
/// n requests occupies a worker for overhead + n * per_item seconds. The
/// fixed overhead is what micro-batching amortizes.
struct ServiceTimeModel {
  double batch_overhead_seconds = 0.002;
  double per_item_seconds = 0.0005;
};

struct VirtualFleetOptions {
  size_t shards = 4;
  size_t replicas_per_shard = 2;
  /// Concurrent simulated batch executors per replica.
  size_t workers_per_replica = 1;
  /// Admission/batching policy instantiated per replica core.
  serve::CoreOptions core;
  ServiceTimeModel service;
  /// Straggler model: each dispatched batch independently draws slow with
  /// this probability and takes slow_multiplier times its nominal service
  /// time. This is the tail hedging exists to cut — with it at 0 hedging
  /// can only lose (duplicate work, no stragglers to beat).
  double slow_probability = 0.0;
  double slow_multiplier = 8.0;
  /// Seeds the per-replica service-noise streams (forked in fixed order).
  uint64_t seed = 1;
  HedgeOptions hedge;
  RouterOptions router;
};

/// End-of-run aggregate of one virtual-time fleet experiment.
struct VirtualFleetReport {
  /// Element-wise sum of `shards` — the fleet ledger. Invariant:
  /// fleet.accepted == fleet.served + fleet.Shed().
  ShardCounters fleet;
  std::vector<ShardCounters> shards;
  /// End-to-end latency digest over served logical requests (seconds),
  /// measured original-admission → winning-copy completion.
  common::QuantileSummary latency;
  double mean_batch_size = 0.0;
  /// Max over time of fleet-wide queued requests.
  size_t max_queue_depth = 0;
  double horizon_seconds = 0.0;
  double throughput_rps = 0.0;
  /// served / accepted over the whole fleet (1.0 when nothing accepted):
  /// the zero-downtime claim of a rolling drain is availability == 1.0.
  double availability = 0.0;
};

/// Virtual-time twin of the sharded serving fleet: N shards of M replica
/// cores behind one FleetRouter, driven by a single discrete-event loop.
/// Mirrors what FleetRuntime does with threads — consistent-hash routing,
/// tail-latency hedging with first-completion-wins, rolling shard drains
/// that reroute queued work with exact ownership accounting — but with a
/// deterministic service-time model, so for a fixed seed the report and
/// span table are byte-identical across runs and ADS_THREADS values.
/// With shards = 1, replicas_per_shard = 1 and hedging off it is the
/// virtual twin of one ServingRuntime.
///
/// Requests expired at *dispatch* time are shed; once a batch is in
/// flight its requests are served even if their deadline passes
/// mid-execution (matching the threaded runtime, which checks deadlines
/// immediately before calling the backend).
///
/// Accounting is by logical request, in the FlightLedger FleetRuntime
/// also drives (see ShardCounters): a hedge launches a physical duplicate
/// whose serve/shed never touches the served ledger; a drain reroute moves
/// queued copies and transfers ownership. Cancelled losers are discarded
/// at completion (virtual time cannot interrupt an in-flight batch,
/// matching a real runtime that cannot un-send an RPC).
///
/// Run() allocates nothing per request once warm: every event captures
/// only (this, index) — an arrival's index into the submitted requests, a
/// batch's in-flight slot, a replica for its linger timer, a request id
/// for its hedge timer — which fits std::function's inline buffer; the
/// slots, the batchers' queues, the ledger's flights and the serving
/// scratch are all reused.
class VirtualFleet {
 public:
  /// Observes every logical request's terminal response (serves, sheds,
  /// rejects) in event order.
  using Callback = std::function<void(const serve::Response&)>;

  explicit VirtualFleet(VirtualFleetOptions options);

  /// Registers a model backend fleet-wide (every replica serves it).
  /// Borrowed; must outlive Run().
  void RegisterBackend(const std::string& model,
                       autonomy::ResilientModelServer* backend);

  /// Version router consulted once per logical request at admission; the
  /// pin travels with both copies and survives reroute, so flighting
  /// decisions (canary slices) are never re-made mid-request.
  void SetRouter(const autonomy::VersionRouter* router);
  void SetTracer(telemetry::Tracer* tracer);
  void SetResponseCallback(Callback callback);

  /// Schedules one logical request arrival at simulated time `t`.
  void SubmitAt(double t, serve::Request request);

  /// Schedules a shard drain at `t`: new arrivals divert via the ring,
  /// queued copies reroute to each tenant's first healthy fallback, and
  /// in-flight batches run to completion in place.
  void ScheduleDrain(double t, ShardId shard);
  void ScheduleRejoin(double t, ShardId shard);
  /// Rolling deploy: drains shard s at start + s*dwell and rejoins it at
  /// start + (s+1)*dwell — exactly one shard down at any moment.
  void ScheduleRollingDrain(double start, double dwell_seconds);

  /// Runs the event loop to completion. One-shot. Checks the per-shard
  /// and fleet-wide accounting invariants before returning.
  VirtualFleetReport Run();

  const FleetRouter& router() const { return router_; }

 private:
  /// One replica: a full admission core plus its virtual workers and its
  /// private service-noise stream.
  struct Replica {
    explicit Replica(const serve::CoreOptions& core_options, uint64_t seed)
        : core(core_options), rng(seed) {}
    serve::ServingCore core;
    common::Rng rng;
    size_t busy_workers = 0;
  };

  /// A dispatched batch in service. Its completion event names the slot;
  /// the slot, and the batch's request storage, are reused once it
  /// completes.
  struct InFlight {
    ShardId shard = 0;
    size_t replica = 0;
    double dispatched = 0.0;
    serve::Batch batch;
  };

  Replica& replica(ShardId shard, size_t r) {
    return replicas_[shard * options_.replicas_per_shard + r];
  }
  size_t ShardQueueDepth(ShardId shard) const;
  size_t FleetQueueDepth() const;

  /// Admits `request` (moved from) as a fresh logical request.
  void OnArrival(serve::Request& request, double now);
  void FireHedge(uint64_t id, double now);
  void Dispatch(ShardId shard, size_t r, double now);
  void OnBatchComplete(size_t slot, double now);
  /// Delivers a copy event that served nothing: the failure response when
  /// it resolved the request, and the root span's close.
  void Deliver(uint64_t id, const FlightLedger::Step& step, double now);
  /// Traces a closed flight: its logical outcome on the root span.
  void TraceClose(const FlightLedger::Flight& flight, double now);
  void DrainShardNow(ShardId shard, double now);
  void RejoinShardNow(ShardId shard, double now);
  void PublishLoad(ShardId shard);
  void Emit(const serve::Response& response);

  VirtualFleetOptions options_;
  telemetry::Tracer* tracer_ = nullptr;
  const autonomy::VersionRouter* version_router_ = nullptr;
  common::EventQueue queue_;
  FleetRouter router_;
  FlightLedger ledger_;
  std::vector<Replica> replicas_;
  std::map<std::string, autonomy::ResilientModelServer*> backends_;
  Callback callback_;
  bool ran_ = false;

  /// SubmitAt's requests, by arrival; each arrival event moves its own out.
  std::vector<serve::Request> arrivals_;
  std::vector<InFlight> in_flight_;
  std::vector<size_t> free_in_flight_;
  /// Event-loop scratch, reused by every event.
  std::vector<serve::Request> expired_;
  std::vector<size_t> rows_;
  serve::ServeScratch serve_scratch_;
  std::vector<autonomy::ResilientModelServer::ServeResult> served_;

  std::vector<telemetry::SpanId> drain_spans_;
  /// Each shard's queue depth as the router last heard it.
  std::vector<size_t> published_depth_;
  common::QuantileSketch latency_;
  common::RunningMoments batch_size_;
  size_t max_queue_depth_ = 0;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_VIRTUAL_FLEET_H_
