#include "serve/types.h"

#include <utility>

namespace ads::serve {

namespace {

/// Packs the feature vectors of `requests[rows...]` into a dense row-major
/// matrix, reusing its storage. False (matrix untouched) if the rows
/// disagree on feature arity.
bool GatherFeatures(const std::vector<Request>& requests,
                    const std::vector<size_t>& rows,
                    common::Matrix* features) {
  const size_t cols = requests[rows[0]].features.size();
  for (size_t i : rows) {
    if (requests[i].features.size() != cols) return false;
  }
  features->Resize(rows.size(), cols);
  for (size_t k = 0; k < rows.size(); ++k) {
    const std::vector<double>& row = requests[rows[k]].features;
    double* dst = features->RowPtr(k);
    for (size_t j = 0; j < cols; ++j) dst[j] = row[j];
  }
  return true;
}

}  // namespace

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kServed:
      return "served";
    case Outcome::kRejectedRateLimit:
      return "rejected_rate_limit";
    case Outcome::kRejectedCapacity:
      return "rejected_capacity";
    case Outcome::kRejectedDeadline:
      return "rejected_deadline";
    case Outcome::kShedCapacity:
      return "shed_capacity";
    case Outcome::kShedDeadline:
      return "shed_deadline";
  }
  return "unknown";
}

const char* TierName(autonomy::ResilientModelServer::Tier tier) {
  switch (tier) {
    case autonomy::ResilientModelServer::Tier::kDeployed:
      return "deployed";
    case autonomy::ResilientModelServer::Tier::kPrevious:
      return "previous";
    case autonomy::ResilientModelServer::Tier::kHeuristic:
      return "heuristic";
  }
  return "unknown";
}

void PinVersion(const autonomy::VersionRouter* router,
                const autonomy::ResilientModelServer& backend,
                Request* request) {
  if (request->pinned_version == 0 && router != nullptr) {
    request->pinned_version = router->Route(request->model, request->tenant);
  }
  if (request->pinned_version == 0) {
    request->pinned_version = backend.CurrentDeployedVersion();
  }
}

void ServeBatch(
    autonomy::ResilientModelServer* backend, const Batch& batch,
    const std::vector<size_t>& rows, double now, ServeScratch* scratch,
    std::vector<autonomy::ResilientModelServer::ServeResult>* served) {
  served->clear();
  if (rows.empty()) return;
  if (GatherFeatures(batch.requests, rows, &scratch->features)) {
    backend->PredictBatchVersion(batch.pinned_version, scratch->features,
                                 now, served, &scratch->values);
  } else {
    served->resize(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      (*served)[k] = backend->PredictVersion(
          batch.pinned_version, batch.requests[rows[k]].features, now);
    }
  }
}

}  // namespace ads::serve
