#ifndef ADS_AUTONOMY_SERVING_H_
#define ADS_AUTONOMY_SERVING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/matrix.h"
#include "common/retry.h"
#include "ml/registry.h"

namespace ads::common {
class ThreadPool;
}  // namespace ads::common

namespace ads::autonomy {

/// Tuning for the resilient serving path.
struct ServingOptions {
  /// Breaker guarding the deployed-model tier: after this many consecutive
  /// serving failures the tier is taken out of rotation for the cooldown.
  common::CircuitBreakerOptions breaker;
  /// When the deployed tier's breaker opens, automatically roll the
  /// registry back to the previously deployed version (the paper's
  /// "rollback mechanism that reacts fast").
  bool auto_rollback = true;
  /// PredictBatch calls with at least this many rows fan the batched
  /// kernel out over `pool` in chunks; smaller batches run one serial
  /// kernel call. Chunking never changes results (see PredictBatch).
  size_t parallel_batch_rows = 512;
  /// Pool for large-batch fan-out; null = ThreadPool::Global(). Callers
  /// already running on pool workers (the threaded serving runtime)
  /// degrade gracefully: nested ParallelFor executes inline.
  common::ThreadPool* pool = nullptr;
};

/// Model-serving fallback chain: deployed model -> previously deployed
/// model -> heuristic. Autonomous services must keep answering even when
/// the freshest model is broken (bad deploy, serialization bug, injected
/// fault); an ML-backed decision degrades to a rule of thumb, never to an
/// outage.
///
/// A circuit breaker guards the deployed tier: consecutive failures open
/// it, which (optionally) triggers an automatic registry rollback; after
/// the cooldown a single probe request tests the (now rolled back)
/// deployed model and closes the breaker on success. The previous-version
/// tier and the heuristic tier need no breaker — the heuristic cannot
/// fail.
///
/// Fault injection sites (when an injector is supplied):
///   "serving.deployed" — the deployed-model tier fails this request.
///   "serving.previous" — the previous-version tier fails this request.
class ResilientModelServer {
 public:
  enum class Tier { kDeployed = 0, kPrevious = 1, kHeuristic = 2 };

  struct ServeResult {
    double value = 0.0;
    Tier tier = Tier::kHeuristic;
    /// Registry version that served (0 for the heuristic tier).
    uint32_t version = 0;
  };

  using Heuristic = std::function<double(const std::vector<double>&)>;

  /// `heuristic` must be callable and total: it is the tier of last
  /// resort. `injector` may be null (no injected faults).
  ResilientModelServer(ml::ModelRegistry* registry, std::string model_name,
                       Heuristic heuristic,
                       ServingOptions options = ServingOptions(),
                       common::FaultInjector* injector = nullptr);

  /// Serves one request at time `now` (seconds; drives the breaker
  /// cooldown). Never fails: worst case the heuristic answers.
  ServeResult Predict(const std::vector<double>& features, double now);

  /// Serves one request against a specific registry `version` instead of
  /// whatever is deployed at call time — the primary tier of the fallback
  /// chain is pinned, the previous/heuristic tiers behave as in Predict.
  /// This is the hot-swap and canary primitive: a request admitted under
  /// version v keeps serving v even if a promote/rollback swaps the
  /// deployed pointer mid-flight. `version` 0 resolves to the currently
  /// deployed version (== Predict).
  ServeResult PredictVersion(uint32_t version,
                             const std::vector<double>& features, double now);

  /// Serves a whole micro-batch at time `now`; `out` is resized to one
  /// result per row. Produces bit-identical results to calling Predict on
  /// each row in order. When nothing can perturb individual rows — no
  /// injected faults pending (injector null or disabled) and the breaker
  /// closed — the deployed model serves the whole batch through one
  /// batched-kernel call (fanned out over the pool above
  /// `parallel_batch_rows` rows); any other state falls back to the exact
  /// per-row path so breaker bookkeeping, rollback, and tier selection
  /// behave as if the rows had arrived one at a time.
  void PredictBatch(const common::Matrix& features, double now,
                    std::vector<ServeResult>* out);

  /// Batched PredictVersion: the whole micro-batch is served against one
  /// pinned `version` (0 = the version deployed at entry, resolved once),
  /// bit-identical to calling PredictVersion per row in order. No row of a
  /// batch can observe a version swap that lands mid-batch — the
  /// no-mixed-version-batch guarantee the serving runtimes rely on.
  /// `values` is the caller's scratch for the batched kernel's output;
  /// reusing it (and `out`) across calls keeps serving allocation-free.
  void PredictBatchVersion(uint32_t version, const common::Matrix& features,
                           double now, std::vector<ServeResult>* out,
                           std::vector<double>* values);

  /// Version currently deployed in the registry for this model — what the
  /// serving runtimes stamp on requests at admission (pinning). Thread-safe
  /// (the registry serializes internally).
  uint32_t CurrentDeployedVersion() const;

  uint64_t served_by_tier(Tier t) const {
    return served_[static_cast<size_t>(t)];
  }
  /// Automatic rollbacks triggered by the breaker opening.
  int rollbacks() const { return rollbacks_; }
  const common::CircuitBreaker& breaker() const { return breaker_; }

 private:
  /// Tries to serve from a specific registry version; false on any
  /// failure (injected fault, unknown version, deserialization error).
  bool TryServe(uint32_t version, const std::string& site,
                const std::vector<double>& features, double* out);

  /// Fetches + deserializes `version` into the cache; null on any failure
  /// (version 0, unknown version, deserialization error).
  ml::Regressor* Materialize(uint32_t version);

  ml::ModelRegistry* registry_;
  std::string model_;
  Heuristic heuristic_;
  ServingOptions options_;
  common::FaultInjector* injector_;
  common::CircuitBreaker breaker_;
  /// Materialized models keyed by registry version.
  std::map<uint32_t, std::unique_ptr<ml::Regressor>> cache_;
  uint64_t served_[3] = {0, 0, 0};
  int rollbacks_ = 0;
};

}  // namespace ads::autonomy

#endif  // ADS_AUTONOMY_SERVING_H_
