#ifndef ADS_SERVE_TYPES_H_
#define ADS_SERVE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "autonomy/router.h"
#include "autonomy/serving.h"
#include "common/matrix.h"

namespace ads::serve {

/// One prediction request submitted to the serving runtime.
struct Request {
  uint64_t id = 0;
  /// Backend (registered model) this request targets.
  std::string model;
  /// Rate-limiting principal (customer / subscription).
  std::string tenant;
  std::vector<double> features;
  /// Higher priority wins under load shedding.
  int priority = 0;
  /// Absolute deadline in runtime seconds; infinity means none. Requests
  /// whose deadline has passed are rejected at admission or shed before
  /// dispatch, never silently dropped.
  double deadline = std::numeric_limits<double>::infinity();
  /// Stamped by the runtime at admission.
  double arrival = 0.0;
  /// Causal span id of this request's root span, stamped by a traced
  /// admission core (telemetry::kNoSpan = untraced). Travels with the
  /// request through the batcher so dispatch and completion attach their
  /// spans to the right parent.
  uint64_t trace_span = 0;
  /// Model version this request is pinned to, stamped by the runtime at
  /// admission: the version router's verdict (canary tenant slice) or,
  /// absent a router, the version deployed at admission time. Batchers key
  /// on (model, pinned_version), so a micro-batch never mixes versions and
  /// an in-flight batch completes against the version its requests were
  /// admitted under even if a promote/rollback swaps the deployed pointer
  /// mid-flight. 0 = no pin (serve whatever is deployed at dispatch).
  uint32_t pinned_version = 0;
};

/// Terminal disposition of a request. Every submitted request gets exactly
/// one outcome — the accounting invariant the drain test asserts.
enum class Outcome {
  kServed = 0,
  /// Tenant token bucket was empty at admission.
  kRejectedRateLimit,
  /// Queue full and the request did not outrank any queued victim.
  kRejectedCapacity,
  /// Deadline already expired at admission.
  kRejectedDeadline,
  /// Accepted, then evicted by a higher-priority arrival under load.
  kShedCapacity,
  /// Accepted, then its deadline expired while queued.
  kShedDeadline,
};

/// Short stable name for tables and telemetry labels ("served", ...).
const char* OutcomeName(Outcome outcome);

/// One completed request.
struct Response {
  uint64_t id = 0;
  Outcome outcome = Outcome::kServed;
  /// Prediction (served requests only).
  double value = 0.0;
  /// Which fallback tier answered (served requests only).
  autonomy::ResilientModelServer::Tier tier =
      autonomy::ResilientModelServer::Tier::kHeuristic;
  /// Registry version that served (0 for the heuristic tier).
  uint32_t model_version = 0;
  /// Completion minus arrival (served requests only).
  double latency_seconds = 0.0;
  /// Size of the batch this request was dispatched in (served only).
  size_t batch_size = 0;
};

/// A dispatch unit: requests for one (model, pinned version) coalesced by
/// the micro-batcher. All member requests share `pinned_version` — the
/// structural no-mixed-version-batch guarantee.
struct Batch {
  std::string model;
  std::vector<Request> requests;
  /// Version every member is pinned to (0 = unpinned).
  uint32_t pinned_version = 0;
  /// Causal span of this batch (0 = untraced) and its per-run ordinal;
  /// request spans reference the ordinal via their "batch" attribute so
  /// goldens stay readable and seed-independent.
  uint64_t trace_span = 0;
  uint64_t seq = 0;
};

/// Short stable name for a fallback tier ("deployed", "previous",
/// "heuristic") for tables and trace attributes.
const char* TierName(autonomy::ResilientModelServer::Tier tier);

/// Pins `request` to a model version at admission, once per logical
/// request: the version router's verdict (canary tenant slice; `router`
/// may be null) or else the version `backend` has deployed now. A request
/// that arrives pinned keeps its pin. Batchers key on the pin, so a later
/// promote or rollback cannot retarget the request or split its batch.
void PinVersion(const autonomy::VersionRouter* router,
                const autonomy::ResilientModelServer& backend,
                Request* request);

/// Storage ServeBatch reuses from call to call, so a steady stream of
/// batches allocates nothing. Owned by one caller and never shared across
/// threads: a threaded runtime serving batches on pool workers keeps one
/// per batch, an event loop one for its whole run.
struct ServeScratch {
  common::Matrix features;
  std::vector<double> values;
};

/// Serves `batch.requests[rows...]` against the batch's pinned version at
/// `now` into *served, one result per row in order: one
/// PredictBatchVersion call over the packed features, or per-row
/// PredictVersion when the rows disagree on feature arity. Both are
/// bit-identical to per-request Predict.
void ServeBatch(
    autonomy::ResilientModelServer* backend, const Batch& batch,
    const std::vector<size_t>& rows, double now, ServeScratch* scratch,
    std::vector<autonomy::ResilientModelServer::ServeResult>* served);

/// Monotonic request accounting, maintained by the admission core and the
/// runtimes. Invariant after a graceful drain:
///   submitted == accepted + rejected_*          (admission is total), and
///   accepted  == served + shed_capacity + shed_deadline   (no losses).
struct Counters {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected_rate_limit = 0;
  uint64_t rejected_capacity = 0;
  uint64_t rejected_deadline = 0;
  uint64_t served = 0;
  uint64_t shed_capacity = 0;
  uint64_t shed_deadline = 0;

  uint64_t Rejected() const {
    return rejected_rate_limit + rejected_capacity + rejected_deadline;
  }
  uint64_t Finished() const { return served + shed_capacity + shed_deadline; }
};

}  // namespace ads::serve

#endif  // ADS_SERVE_TYPES_H_
