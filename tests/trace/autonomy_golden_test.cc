// End-to-end golden traces for the closed autonomy loop under live
// virtual-time traffic: a one-replica VirtualFleet serves requests while
// an AutonomyLoop (attached as its version router and fed from the
// response stream) walks drift -> retrain -> shadow -> canary -> promote,
// and, in the second scenario, a post-promote regression walks probation
// -> rollback. The loop's episode span tree is diffed against checked-in
// goldens; both scenarios also assert byte-identical serialized spans
// across two runs — with seeded tracer ids and virtual time this holds
// for any ADS_THREADS, which the CI matrix exercises at 1 and 4.
//
// Regenerate after an intentional structure change:
//   ADS_UPDATE_GOLDENS=1 ctest --test-dir build -R autonomy_golden_test
//
// Serving availability is asserted against a floor throughout both
// flights: the loop must never cost user traffic its answers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "autonomy/loop.h"
#include "autonomy/serving.h"
#include "fleet/virtual_fleet.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/types.h"
#include "telemetry/span.h"
#include "telemetry/span_analysis.h"

namespace ads::autonomy {
namespace {

/// No request may be lost to the flighting machinery: the loop routes and
/// retrains, but the serving tier keeps answering. With ample capacity in
/// these scenarios the floor is effectively "everything served".
constexpr double kAvailabilityFloor = 0.99;

std::string GoldenPath(const std::string& name) {
  return std::string(ADS_TRACE_GOLDEN_DIR) + "/" + name;
}

void CheckGolden(const std::string& name, const std::string& got) {
  const std::string path = GoldenPath(name);
  if (std::getenv("ADS_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << got;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << "; create it with ADS_UPDATE_GOLDENS=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), got)
      << "episode span structure diverged from " << path
      << "; if intentional, regenerate with ADS_UPDATE_GOLDENS=1";
}

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

/// Fits the most recent quarter of the buffer — the pure-new-regime tail
/// at alarm time (see loop_test.cc for the window arithmetic).
common::Result<std::string> RecencyTrainer(const ml::Dataset& data) {
  std::vector<size_t> recent;
  for (size_t i = data.size() - data.size() / 4; i < data.size(); ++i)
    recent.push_back(i);
  ml::LinearRegressor m;
  common::Status fitted = m.Fit(data.Filter(recent));
  if (!fitted.ok()) return fitted;
  return m.Serialize();
}

AutonomyLoopOptions ScenarioOptions() {
  AutonomyLoopOptions options;
  options.detector.baseline_window = 20;
  options.detector.recent_window = 20;
  options.retrain_buffer_capacity = 40;
  options.min_retrain_samples = 40;
  options.retrain_duration_seconds = 0.05;
  options.shadow_min_samples = 10;
  options.flight.min_samples_per_arm = 10;
  options.canary_tenant_fraction = 0.5;
  options.probation_seconds = 0.4;
  options.cooldown_seconds = 0.2;
  return options;
}

struct ScenarioRun {
  std::vector<telemetry::Span> spans;
  fleet::VirtualFleetReport report;
  LoopStats stats;
  LoopState final_state = LoopState::kSteady;
  uint32_t deployed = 0;
};

/// Drives `n` requests through a one-replica VirtualFleet at dt=0.01 with
/// the loop attached as version router, feeding every served response back
/// into the loop as a LoopSample whose truth follows `truth_slope_at(id)`.
/// The loop's spans (not the server's) are the golden surface: the
/// scenario's causal story is the episode tree.
ScenarioRun RunScenario(size_t n, double (*truth_slope_at)(uint64_t),
                        double probation_seconds) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(2.0));
  EXPECT_TRUE(registry.Deploy("m", 1).ok());
  ResilientModelServer backend(
      &registry, "m", [](const std::vector<double>&) { return -1.0; });

  AutonomyLoopOptions options = ScenarioOptions();
  options.probation_seconds = probation_seconds;
  AutonomyLoop loop(&registry, "m", RecencyTrainer, options);
  telemetry::Tracer tracer(23);
  loop.SetTracer(&tracer);

  fleet::VirtualFleetOptions server_options;
  server_options.shards = 1;
  server_options.replicas_per_shard = 1;
  server_options.workers_per_replica = 4;
  server_options.core.batcher.max_batch_size = 4;
  server_options.core.batcher.max_linger_seconds = 0.005;
  fleet::VirtualFleet server(server_options);
  server.RegisterBackend("m", &backend);
  server.SetRouter(&loop);

  // Request metadata by id, for reconstructing the feedback sample.
  std::vector<double> arrivals(n, 0.0);
  std::vector<std::string> tenants(n);
  std::vector<double> xs(n, 0.0);
  server.SetResponseCallback([&](const serve::Response& response) {
    if (response.outcome != serve::Outcome::kServed) return;
    const uint64_t id = response.id;
    LoopSample sample;
    sample.tenant = tenants[id];
    sample.features = {xs[id]};
    sample.prediction = response.value;
    sample.served_version = response.model_version;
    sample.truth = truth_slope_at(id) * xs[id];
    loop.OnSample(sample, arrivals[id] + response.latency_seconds);
  });

  for (uint64_t id = 0; id < n; ++id) {
    serve::Request request;
    request.id = id;
    request.model = "m";
    request.tenant = "t" + std::to_string(id % 8);
    request.features = {1.0 + static_cast<double>(id % 4)};
    arrivals[id] = 0.01 * static_cast<double>(id + 1);
    tenants[id] = request.tenant;
    xs[id] = request.features[0];
    server.SubmitAt(arrivals[id], std::move(request));
  }

  ScenarioRun run;
  run.report = server.Run();
  run.stats = loop.stats();
  run.final_state = loop.state();
  run.deployed = registry.DeployedVersion("m");
  run.spans = tracer.Snapshot();
  EXPECT_EQ(tracer.open_count(), 0u);  // every episode closed
  return run;
}

void CheckAccounting(const ScenarioRun& run, size_t n) {
  // accepted == served + shed: nothing vanishes while the loop flights.
  EXPECT_EQ(run.report.fleet.accepted, run.report.fleet.Finished());
  EXPECT_EQ(run.report.fleet.submitted, static_cast<uint64_t>(n));
  EXPECT_GE(run.report.availability, kAvailabilityFloor);
}

// --------------------------------------------------------------------
// Scenario 1: drift -> retrain -> shadow -> canary -> promote.
// --------------------------------------------------------------------

double PromoteRegime(uint64_t id) { return id < 30 ? 2.0 : 5.0; }

TEST(AutonomyGoldenTest, PromoteEpisodeEndToEnd) {
  ScenarioRun first = RunScenario(250, PromoteRegime, 0.4);
  ScenarioRun second = RunScenario(250, PromoteRegime, 0.4);
  // Byte-identical including ids and timestamps: seeded tracer, virtual
  // time, synchronous trainer.
  EXPECT_EQ(telemetry::SerializeSpans(first.spans),
            telemetry::SerializeSpans(second.spans));
  EXPECT_EQ(first.report.fleet.served, second.report.fleet.served);

  CheckAccounting(first, 250);
  EXPECT_EQ(first.stats.episodes, 1u);
  EXPECT_EQ(first.stats.promotes, 1u);
  EXPECT_EQ(first.stats.rollbacks, 0u);
  EXPECT_EQ(first.stats.aborts, 0u);
  EXPECT_EQ(first.deployed, 2u);
  EXPECT_EQ(first.final_state, LoopState::kSteady);  // probation passed

  // The causal story: one episode root with drift, retrain, shadow,
  // canary children and a promote terminal; outcome annotated.
  int episodes = 0, promotes = 0;
  for (const telemetry::Span& span : first.spans) {
    if (span.kind == "episode") {
      ++episodes;
      auto it = span.attributes.find("outcome");
      ASSERT_NE(it, span.attributes.end());
      EXPECT_EQ(it->second, "promoted");
    }
    if (span.kind == "promote") ++promotes;
  }
  EXPECT_EQ(episodes, 1);
  EXPECT_EQ(promotes, 1);
  CheckGolden("autonomy_promote.txt",
              telemetry::CanonicalStructure(first.spans));
}

// --------------------------------------------------------------------
// Scenario 2: promote, then the world reverts -> the promoted model
// regresses inside probation -> rollback to the previous version.
// --------------------------------------------------------------------

double RollbackRegime(uint64_t id) {
  if (id < 30) return 2.0;   // steady on the v1 model
  if (id < 190) return 5.0;  // drift: triggers the promote episode
  return 2.0;                // reversion: the promoted model regresses
}

TEST(AutonomyGoldenTest, InjectedRegressionRollsBack) {
  ScenarioRun first = RunScenario(320, RollbackRegime, 3.0);
  ScenarioRun second = RunScenario(320, RollbackRegime, 3.0);
  EXPECT_EQ(telemetry::SerializeSpans(first.spans),
            telemetry::SerializeSpans(second.spans));

  CheckAccounting(first, 320);
  EXPECT_EQ(first.stats.promotes, 1u);
  EXPECT_EQ(first.stats.rollbacks, 1u);
  EXPECT_EQ(first.deployed, 1u);  // back on the last good model
  EXPECT_EQ(first.final_state, LoopState::kSteady);

  int rollbacks = 0;
  bool saw_rolled_back_episode = false;
  for (const telemetry::Span& span : first.spans) {
    if (span.kind == "rollback") {
      ++rollbacks;
      EXPECT_EQ(span.attributes.at("reason"), "probation-drift");
      EXPECT_EQ(span.attributes.at("from"), "v2");
      EXPECT_EQ(span.attributes.at("to"), "v1");
    }
    if (span.kind == "episode") {
      auto it = span.attributes.find("outcome");
      if (it != span.attributes.end() && it->second == "rolled-back") {
        saw_rolled_back_episode = true;
      }
    }
  }
  EXPECT_EQ(rollbacks, 1);
  EXPECT_TRUE(saw_rolled_back_episode);
  CheckGolden("autonomy_rollback.txt",
              telemetry::CanonicalStructure(first.spans));
}

}  // namespace
}  // namespace ads::autonomy
