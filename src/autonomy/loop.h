#ifndef ADS_AUTONOMY_LOOP_H_
#define ADS_AUTONOMY_LOOP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "autonomy/flight.h"
#include "autonomy/router.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "ml/dataset.h"
#include "ml/drift.h"
#include "ml/model.h"
#include "ml/registry.h"
#include "telemetry/span.h"

namespace ads::common {
class ThreadPool;
}  // namespace ads::common

namespace ads::autonomy {

/// Where the closed loop currently is for its model. One episode walks
/// kSteady → kRetraining → kShadow → kCanary → kProbation → kSteady;
/// every stage has an abort edge back to kSteady that leaves the last
/// good model deployed.
enum class LoopState {
  /// Serving the deployed model, watching for drift.
  kSteady = 0,
  /// Drift confirmed; a candidate is training on buffered samples.
  kRetraining,
  /// Candidate registered; scoring it on live traffic without serving it
  /// (duplicate scoring, no user-visible output).
  kShadow,
  /// Candidate serving a seeded tenant slice under SLO + accuracy gates.
  kCanary,
  /// Candidate promoted; a drift alarm inside this window rolls back to
  /// the previous version instead of retraining.
  kProbation,
};

/// Short stable name ("steady", "retraining", ...) for traces and tables.
const char* LoopStateName(LoopState state);

struct AutonomyLoopOptions {
  /// Drift detection over live serving errors (the retrain trigger, and
  /// the rollback trigger during probation).
  ml::DriftDetectorOptions detector;
  /// Canary promote/abort gates (accuracy side).
  FlightOptions flight;
  /// Ring buffer of recent (features, truth) pairs retraining draws from.
  size_t retrain_buffer_capacity = 512;
  /// Buffered samples required before a retrain can start.
  size_t min_retrain_samples = 64;
  /// Modeled latency of one retraining run: the candidate becomes
  /// available this long after the drift trigger. In virtual-time runs
  /// this is what makes training take simulated time; it also applies on
  /// top of real pool execution in threaded runs.
  double retrain_duration_seconds = 0.0;
  /// Live samples shadow-scored before the candidate may canary.
  size_t shadow_min_samples = 50;
  /// Shadow gate: candidate mean error must be <= live serving mean error
  /// times this ratio, else the candidate is discarded before ever
  /// serving a user.
  double shadow_max_error_ratio = 1.05;
  /// Fraction of tenants (by seeded hash) routed to the canary arm.
  double canary_tenant_fraction = 0.25;
  /// Seed of the tenant-slice hash: same seed — same slice, across runs
  /// and thread counts.
  uint64_t slice_seed = 0x51ce;
  /// After a promote, how long a drift alarm triggers rollback-to-previous
  /// rather than a fresh retrain.
  double probation_seconds = 60.0;
  /// After an abort or rollback, how long before another episode may
  /// start (throttles retrain storms when drift persists).
  double cooldown_seconds = 30.0;
  /// Serving SLO gates evaluated against ReportHealth snapshots while a
  /// candidate is in shadow or canary; a breach aborts the episode.
  double p99_slo_seconds = std::numeric_limits<double>::infinity();
  double min_availability = 0.0;
};

/// One serving-time observation fed back into the loop: what was served,
/// by which version, and what the truth turned out to be. Plain scalars —
/// the loop works identically under the virtual-time fleet and the
/// threaded runtime.
struct LoopSample {
  std::string tenant;
  std::vector<double> features;
  /// The user-visible prediction (whatever tier/version answered).
  double prediction = 0.0;
  /// Registry version that served it (Response::model_version; 0 =
  /// heuristic tier).
  uint32_t served_version = 0;
  double truth = 0.0;
};

/// Periodic serving-health snapshot for the SLO gates.
struct HealthSnapshot {
  double p99_latency_seconds = 0.0;
  /// served / accepted so far (1.0 when nothing was accepted yet).
  double availability = 1.0;
  bool breaker_open = false;
};

struct LoopStats {
  uint64_t samples = 0;
  /// Episodes started (drift alarm accepted as a retrain trigger).
  uint64_t episodes = 0;
  uint64_t promotes = 0;
  /// Probation rollbacks (registry reverted to the previous version).
  uint64_t rollbacks = 0;
  /// Episodes aborted at any stage (includes retrain failures).
  uint64_t aborts = 0;
  uint64_t retrain_failures = 0;
};

/// The paper's Insight-3 loop closed end to end: drift detection on live
/// serving errors triggers retraining on buffered recent samples, the
/// candidate is shadow-scored, then canaried on a seeded tenant slice
/// (via the VersionRouter interface the serving runtimes consult at
/// admission), and promoted or rolled back on combined accuracy + SLO
/// gates — while the serving tier keeps answering throughout.
///
/// Deterministic by construction: the loop owns no clock and no threads.
/// Callers push samples (OnSample) and health snapshots (ReportHealth)
/// with explicit timestamps; under the virtual-time fleet the whole
/// promote/rollback history is byte-reproducible. With a null pool the
/// trainer runs synchronously at trigger time and the candidate surfaces
/// `retrain_duration_seconds` later (pure virtual-time mode); with a pool
/// the trainer runs as a pool task and the loop polls its future, so
/// retraining shares compute with serving without blocking it.
///
/// Fault injection site (when an injector is supplied):
///   "autonomy.retrain" — this retraining run is lost (trainer crash /
///   machine death); the episode aborts and the deployed model keeps
///   serving. The drift alarm stays latched, so a fresh attempt starts
///   once the cooldown passes.
///
/// Thread-safe: OnSample / ReportHealth / Route may be called from
/// concurrent serving threads.
class AutonomyLoop : public VersionRouter {
 public:
  /// Trains a candidate on the buffered samples and returns its
  /// serialized blob (ml::Regressor::Serialize format). Runs on the pool
  /// in threaded mode — must not touch loop state.
  using Trainer =
      std::function<common::Result<std::string>(const ml::Dataset&)>;

  AutonomyLoop(ml::ModelRegistry* registry, std::string model_name,
               Trainer trainer,
               AutonomyLoopOptions options = AutonomyLoopOptions(),
               common::ThreadPool* pool = nullptr,
               common::FaultInjector* injector = nullptr);

  /// Attaches a causal span tracer (borrowed; may be null). Every episode
  /// opens an "episode" root span with "drift" / "retrain" / "shadow" /
  /// "canary" children and instant "promote" / "rollback" / "abort"
  /// terminals — the machine-checkable causal story of each transition.
  void SetTracer(telemetry::Tracer* tracer);

  /// Feeds one serving observation at time `now` and advances the state
  /// machine; returns the state after the transition.
  LoopState OnSample(const LoopSample& sample, double now);

  /// Feeds one serving-health snapshot; a gate breach (p99 over SLO,
  /// availability under floor, breaker open) while a candidate is in
  /// shadow or canary aborts the episode on the spot.
  void ReportHealth(const HealthSnapshot& health, double now);

  /// VersionRouter: during a canary, tenants in the seeded slice pin the
  /// candidate version; everyone else (and every non-canary state)
  /// delegates to the deployed version.
  uint32_t Route(const std::string& model,
                 const std::string& tenant) const override;

  /// Whether `tenant` belongs to the seeded canary slice (stable for the
  /// lifetime of the loop; exposed so tests and benches can pick tenants
  /// on either side of the split).
  bool InCanarySlice(const std::string& tenant) const;

  LoopState state() const;
  /// Version currently in flight (registered candidate; 0 outside an
  /// episode's shadow/canary/probation stages).
  uint32_t candidate_version() const;
  LoopStats stats() const;

 private:
  // All helpers below require mu_ held.
  bool InSliceLocked(const std::string& tenant) const;
  telemetry::SpanId Child(const std::string& kind, const std::string& name,
                          double now);
  void BeginEpisode(double now);
  void StartRetrain(double now);
  void PollRetrain(double now);
  void FinishRetrain(common::Result<std::string> blob, double now);
  void StartCanary(double now);
  void Promote(double now);
  void RollbackFromProbation(double now);
  /// Ends the episode without a promote: instant "abort" span, cooldown,
  /// back to kSteady with the last good model still deployed.
  void AbortEpisode(const std::string& stage, const std::string& reason,
                    double now);
  void EndEpisode(const std::string& outcome, double now);

  ml::ModelRegistry* registry_;
  const std::string model_;
  Trainer trainer_;
  AutonomyLoopOptions options_;
  common::ThreadPool* pool_;
  common::FaultInjector* injector_;
  telemetry::Tracer* tracer_ = nullptr;

  mutable std::mutex mu_;
  LoopState state_ = LoopState::kSteady;
  ml::DriftDetector detector_;
  /// Ring of recent (features, truth) pairs for retraining.
  std::deque<std::pair<std::vector<double>, double>> buffer_;
  LoopStats stats_;

  // Episode state.
  uint64_t episode_seq_ = 0;
  telemetry::SpanId episode_span_ = telemetry::kNoSpan;
  telemetry::SpanId stage_span_ = telemetry::kNoSpan;
  double cooldown_until_ = 0.0;
  double probation_until_ = 0.0;

  // Retraining state.
  double retrain_ready_at_ = 0.0;
  bool retrain_doomed_ = false;
  /// Sync-mode result, held until retrain_ready_at_.
  common::Result<std::string> pending_blob_{std::string()};
  bool pending_valid_ = false;
  /// Async-mode (pool) result.
  std::future<common::Result<std::string>> training_;

  // Shadow/canary state.
  uint32_t candidate_version_ = 0;
  std::unique_ptr<ml::Regressor> candidate_model_;
  double shadow_live_sum_ = 0.0;
  double shadow_candidate_sum_ = 0.0;
  size_t shadow_n_ = 0;
  std::unique_ptr<FlightEvaluator> evaluator_;
};

}  // namespace ads::autonomy

#endif  // ADS_AUTONOMY_LOOP_H_
