#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "autonomy/serving.h"
#include "fleet/virtual_fleet.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/types.h"

namespace ads::fleet {
namespace {

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

serve::Request MakeRequest(uint64_t id, double x) {
  serve::Request request;
  request.id = id;
  request.model = "m";
  request.tenant = "t";
  request.features = {x};
  return request;
}

/// One replica with one virtual worker, so a second batch queues behind
/// the first.
VirtualFleetOptions OneWorker() {
  VirtualFleetOptions options;
  options.shards = 1;
  options.replicas_per_shard = 1;
  options.workers_per_replica = 1;
  options.core.batcher.max_batch_size = 4;
  options.core.batcher.max_linger_seconds = 0.05;
  return options;
}

/// A model hot-swap landing while micro-batches are queued must not
/// retarget them: every request is served by the version that was
/// deployed when it was admitted, and no batch mixes versions.
TEST(HotSwapTest, InFlightBatchesCompleteAgainstAdmissionVersion) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(2.0));
  registry.Register("m", BlobWithSlope(5.0));
  ASSERT_TRUE(registry.Deploy("m", 1).ok());
  autonomy::ResilientModelServer backend(
      &registry, "m", [](const std::vector<double>&) { return -1.0; });

  VirtualFleet server(OneWorker());
  server.RegisterBackend("m", &backend);

  std::map<uint64_t, serve::Response> responses;
  server.SetResponseCallback([&](const serve::Response& response) {
    responses[response.id] = response;
    if (response.id == 0) {
      // The swap fires mid-run, from inside the event loop, while the
      // second batch (requests 4-7, admitted under v1) is still queued.
      ASSERT_TRUE(registry.Deploy("m", 2).ok());
    }
  });

  // Batch 1: requests 0-3, admitted and dispatched under v1.
  for (uint64_t i = 0; i < 4; ++i) {
    server.SubmitAt(0.001 * static_cast<double>(i),
                    MakeRequest(i, 1.0 + static_cast<double>(i)));
  }
  // Batch 2: requests 4-7 arrive while batch 1 occupies the only worker
  // (it dispatches at t=0.003 and completes at t=0.007, when the swap
  // fires); they are admitted — and version-pinned — before that.
  for (uint64_t i = 4; i < 8; ++i) {
    server.SubmitAt(0.004 + 0.0005 * static_cast<double>(i - 4),
                    MakeRequest(i, 1.0 + static_cast<double>(i)));
  }
  // Batch 3: requests 8-11 arrive well after the swap; they pin v2.
  for (uint64_t i = 8; i < 12; ++i) {
    server.SubmitAt(0.2 + 0.001 * static_cast<double>(i - 8),
                    MakeRequest(i, 1.0 + static_cast<double>(i)));
  }

  VirtualFleetReport report = server.Run();
  ASSERT_EQ(report.fleet.accepted, 12u);
  ASSERT_EQ(report.fleet.served, 12u);
  ASSERT_EQ(responses.size(), 12u);

  for (uint64_t i = 0; i < 8; ++i) {
    const double x = 1.0 + static_cast<double>(i);
    EXPECT_EQ(responses[i].model_version, 1u) << "request " << i;
    EXPECT_DOUBLE_EQ(responses[i].value, 2.0 * x) << "request " << i;
  }
  for (uint64_t i = 8; i < 12; ++i) {
    const double x = 1.0 + static_cast<double>(i);
    EXPECT_EQ(responses[i].model_version, 2u) << "request " << i;
    EXPECT_DOUBLE_EQ(responses[i].value, 5.0 * x) << "request " << i;
  }
  for (const auto& [id, response] : responses) {
    EXPECT_GT(response.batch_size, 0u) << "request " << id;
  }
}

/// The same guarantee under a rollback: requests admitted under the
/// newer version keep serving it even after Rollback() withdraws it.
TEST(HotSwapTest, RollbackDoesNotRetargetAdmittedRequests) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(2.0));
  registry.Register("m", BlobWithSlope(5.0));
  ASSERT_TRUE(registry.Deploy("m", 1).ok());
  ASSERT_TRUE(registry.Deploy("m", 2).ok());
  autonomy::ResilientModelServer backend(
      &registry, "m", [](const std::vector<double>&) { return -1.0; });

  VirtualFleet server(OneWorker());
  server.RegisterBackend("m", &backend);

  std::map<uint64_t, serve::Response> responses;
  server.SetResponseCallback([&](const serve::Response& response) {
    responses[response.id] = response;
    if (response.id == 0) {
      ASSERT_TRUE(registry.Rollback("m").ok());  // v2 -> v1
    }
  });

  for (uint64_t i = 0; i < 4; ++i) {
    server.SubmitAt(0.001 * static_cast<double>(i), MakeRequest(i, 2.0));
  }
  // Admitted under v2 while batch 1 holds the worker; dispatched after
  // the rollback fires at batch 1's completion (t=0.007).
  for (uint64_t i = 4; i < 8; ++i) {
    server.SubmitAt(0.004 + 0.0005 * static_cast<double>(i - 4),
                    MakeRequest(i, 2.0));
  }
  // Admitted after the rollback: back on v1.
  for (uint64_t i = 8; i < 12; ++i) {
    server.SubmitAt(0.2, MakeRequest(i, 2.0));
  }

  VirtualFleetReport report = server.Run();
  ASSERT_EQ(report.fleet.served, 12u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(responses[i].model_version, 2u) << "request " << i;
    EXPECT_DOUBLE_EQ(responses[i].value, 10.0) << "request " << i;
  }
  for (uint64_t i = 8; i < 12; ++i) {
    EXPECT_EQ(responses[i].model_version, 1u) << "request " << i;
    EXPECT_DOUBLE_EQ(responses[i].value, 4.0) << "request " << i;
  }
}

}  // namespace
}  // namespace ads::fleet
