#include "autonomy/serving.h"

#include "common/logging.h"
#include "common/thread_pool.h"
#include "ml/model.h"

namespace ads::autonomy {

ResilientModelServer::ResilientModelServer(ml::ModelRegistry* registry,
                                           std::string model_name,
                                           Heuristic heuristic,
                                           ServingOptions options,
                                           common::FaultInjector* injector)
    : registry_(registry),
      model_(std::move(model_name)),
      heuristic_(std::move(heuristic)),
      options_(options),
      injector_(injector),
      breaker_(options.breaker) {
  ADS_CHECK(registry != nullptr) << "serving needs a registry";
  ADS_CHECK(heuristic_ != nullptr) << "the heuristic tier must be callable";
}

ml::Regressor* ResilientModelServer::Materialize(uint32_t version) {
  if (version == 0) return nullptr;
  auto it = cache_.find(version);
  if (it == cache_.end()) {
    auto stored = registry_->GetVersion(model_, version);
    if (!stored.ok()) return nullptr;
    auto model = ml::DeserializeRegressor(stored->blob);
    if (!model.ok()) return nullptr;
    it = cache_.emplace(version, std::move(*model)).first;
  }
  return it->second.get();
}

bool ResilientModelServer::TryServe(uint32_t version, const std::string& site,
                                    const std::vector<double>& features,
                                    double* out) {
  if (version == 0) return false;
  if (injector_ != nullptr && injector_->ShouldFail(site)) return false;
  ml::Regressor* model = Materialize(version);
  if (model == nullptr) return false;
  *out = model->Predict(features);
  return true;
}

uint32_t ResilientModelServer::CurrentDeployedVersion() const {
  return registry_->DeployedVersion(model_);
}

ResilientModelServer::ServeResult ResilientModelServer::Predict(
    const std::vector<double>& features, double now) {
  return PredictVersion(registry_->DeployedVersion(model_), features, now);
}

ResilientModelServer::ServeResult ResilientModelServer::PredictVersion(
    uint32_t version, const std::vector<double>& features, double now) {
  if (version == 0) version = registry_->DeployedVersion(model_);
  ServeResult result;
  // Tier 1: the pinned (normally: deployed) model, guarded by the breaker.
  if (breaker_.AllowRequest(now)) {
    if (TryServe(version, "serving.deployed", features, &result.value)) {
      breaker_.RecordSuccess(now);
      result.tier = Tier::kDeployed;
      result.version = version;
      ++served_[static_cast<size_t>(Tier::kDeployed)];
      return result;
    }
    breaker_.RecordFailure(now);
    if (breaker_.state() == common::CircuitBreaker::State::kOpen &&
        options_.auto_rollback && breaker_.trips() > rollbacks_ &&
        version == registry_->DeployedVersion(model_)) {
      // The deployed version is consistently failing: withdraw it. The
      // breaker stays open for its cooldown, so the rolled-back model is
      // first exercised by the half-open probe. A stale pinned version
      // (already swapped out) failing must NOT withdraw its successor,
      // hence the deployed-version check.
      if (registry_->Rollback(model_).ok()) ++rollbacks_;
    }
  }
  // Tier 2: the previously deployed version.
  uint32_t previous = registry_->PreviousVersion(model_);
  if (TryServe(previous, "serving.previous", features, &result.value)) {
    result.tier = Tier::kPrevious;
    result.version = previous;
    ++served_[static_cast<size_t>(Tier::kPrevious)];
    return result;
  }
  // Tier 3: the heuristic always answers.
  result.value = heuristic_(features);
  result.tier = Tier::kHeuristic;
  result.version = 0;
  ++served_[static_cast<size_t>(Tier::kHeuristic)];
  return result;
}

void ResilientModelServer::PredictBatch(const common::Matrix& features,
                                        double now,
                                        std::vector<ServeResult>* out) {
  std::vector<double> values;
  PredictBatchVersion(0, features, now, out, &values);
}

void ResilientModelServer::PredictBatchVersion(uint32_t version,
                                               const common::Matrix& features,
                                               double now,
                                               std::vector<ServeResult>* out,
                                               std::vector<double>* values) {
  const size_t n = features.rows();
  out->assign(n, ServeResult());
  if (n == 0) return;
  // The version is resolved exactly once, so a concurrent promote or
  // rollback landing mid-batch cannot split the batch across versions.
  if (version == 0) version = registry_->DeployedVersion(model_);
  // Bulk fast path. Safe exactly when per-row serving could not diverge
  // from one batched call: no injected fault can fire (a disabled injector
  // never fires, so skipping its per-row draws changes nothing) and the
  // breaker is closed (AllowRequest is then a pass-through, and N
  // consecutive RecordSuccess calls collapse to one — both only reset the
  // failure streak). Everything else — open/half-open breakers, pending
  // faults, a pinned model that fails to materialize — takes the exact
  // per-row path so probes, rollbacks, and tier fallbacks fire on the same
  // row they would have with sequential PredictVersion calls.
  const bool quiet = injector_ == nullptr || !injector_->Enabled();
  if (quiet &&
      breaker_.state() == common::CircuitBreaker::State::kClosed) {
    ml::Regressor* model = Materialize(version);
    if (model != nullptr) {
      if (n >= options_.parallel_batch_rows) {
        common::ThreadPool& pool = options_.pool != nullptr
                                       ? *options_.pool
                                       : common::ThreadPool::Global();
        ml::PredictBatchParallel(*model, features, pool, values);
      } else {
        model->PredictBatch(features, values);
      }
      breaker_.RecordSuccess(now);
      served_[static_cast<size_t>(Tier::kDeployed)] += n;
      for (size_t i = 0; i < n; ++i) {
        (*out)[i].value = (*values)[i];
        (*out)[i].tier = Tier::kDeployed;
        (*out)[i].version = version;
      }
      return;
    }
  }
  // The per-row path reuses `values` as its row buffer.
  for (size_t i = 0; i < n; ++i) {
    const double* x = features.RowPtr(i);
    values->assign(x, x + features.cols());
    (*out)[i] = PredictVersion(version, *values, now);
  }
}

}  // namespace ads::autonomy
