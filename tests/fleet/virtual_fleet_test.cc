#include "fleet/virtual_fleet.h"

#include <gtest/gtest.h>

#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autonomy/serving.h"
#include "common/fault_injection.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/types.h"
#include "telemetry/span.h"
#include "telemetry/span_analysis.h"

namespace ads::fleet {
namespace {

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor model;
  model.SetCoefficients(0.0, {slope});
  return model.Serialize();
}

// Registry + resilient backend for one model "m" with v1 deployed.
struct Backend {
  explicit Backend(common::FaultInjector* injector = nullptr)
      : server(&registry, "m",
               [](const std::vector<double>& f) {
                 return f.empty() ? 0.0 : f[0];
               },
               autonomy::ServingOptions(), injector) {
    registry.Register("m", BlobWithSlope(2.0));
    EXPECT_TRUE(registry.Deploy("m", 1).ok());
  }
  ml::ModelRegistry registry;
  autonomy::ResilientModelServer server;
};

serve::Request MakeRequest(uint64_t id, const std::string& tenant) {
  serve::Request request;
  request.id = id;
  request.model = "m";
  request.tenant = tenant;
  request.features = {1.0 + 0.001 * static_cast<double>(id % 100)};
  return request;
}

// One shard of one replica: the virtual twin of a single ServingRuntime.
VirtualFleetOptions OneReplica(size_t workers) {
  VirtualFleetOptions options;
  options.shards = 1;
  options.replicas_per_shard = 1;
  options.workers_per_replica = workers;
  return options;
}

// Submits `requests` arrivals, one every `dt` seconds, each due
// `deadline_after` seconds after it arrives; records every response in
// event order into `responses` when given.
VirtualFleetReport RunUniform(const VirtualFleetOptions& options,
                              size_t requests, double dt,
                              double deadline_after,
                              std::vector<serve::Response>* responses = nullptr,
                              common::FaultInjector* injector = nullptr) {
  Backend backend(injector);
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  if (responses != nullptr) {
    fleet.SetResponseCallback([responses](const serve::Response& response) {
      responses->push_back(response);
    });
  }
  for (uint64_t i = 0; i < requests; ++i) {
    const double t = dt * static_cast<double>(i);
    serve::Request request = MakeRequest(i, "t");
    request.deadline = t + deadline_after;
    fleet.SubmitAt(t, std::move(request));
  }
  return fleet.Run();
}

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

// Exact textual image of a report, for byte-determinism comparisons.
std::string Serialize(const VirtualFleetReport& report) {
  std::ostringstream out;
  out << std::setprecision(17);
  auto counters = [&out](const ShardCounters& c) {
    out << c.submitted << ' ' << c.accepted << ' ' << c.rejected_rate_limit
        << ' ' << c.rejected_capacity << ' ' << c.rejected_deadline << ' '
        << c.served << ' ' << c.shed_capacity << ' ' << c.shed_deadline
        << ' ' << c.rerouted_in << ' ' << c.rerouted_out << ' '
        << c.drain_diverts << ' ' << c.load_diverts << ' ' << c.hedges_fired
        << ' ' << c.hedge_wins << ' ' << c.primary_wins << ' '
        << c.hedges_failed << ' ' << c.hedges_cancelled << '\n';
  };
  counters(report.fleet);
  for (const ShardCounters& c : report.shards) counters(c);
  out << report.latency.p50 << ' ' << report.latency.p95 << ' '
      << report.latency.p99 << ' ' << report.latency.max << '\n';
  out << report.mean_batch_size << ' ' << report.max_queue_depth << ' '
      << report.horizon_seconds << ' ' << report.throughput_rps << ' '
      << report.availability << '\n';
  return out.str();
}

// Response-exactness harness: every submitted id must get exactly one
// terminal response.
struct ResponseLedger {
  std::map<uint64_t, size_t> count;
  std::map<uint64_t, serve::Outcome> outcome;
  VirtualFleet::Callback Callback() {
    return [this](const serve::Response& response) {
      count[response.id] += 1;
      outcome[response.id] = response.outcome;
    };
  }
  void ExpectExactlyOneEach(size_t expected_total) const {
    EXPECT_EQ(count.size(), expected_total);
    for (const auto& [id, n] : count) {
      EXPECT_EQ(n, 1u) << "request " << id << " got " << n << " responses";
    }
  }
};

TEST(VirtualFleetTest, ServesEverythingAndBalancesAcrossShards) {
  Backend backend;
  VirtualFleetOptions options;
  options.shards = 4;
  options.replicas_per_shard = 2;
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  ResponseLedger ledger;
  fleet.SetResponseCallback(ledger.Callback());
  const size_t kRequests = 400;
  for (uint64_t i = 0; i < kRequests; ++i) {
    fleet.SubmitAt(0.001 * static_cast<double>(i),
                   MakeRequest(i, "tenant-" + std::to_string(i % 40)));
  }
  VirtualFleetReport report = fleet.Run();
  EXPECT_EQ(report.fleet.submitted, kRequests);
  EXPECT_EQ(report.fleet.accepted, kRequests);
  EXPECT_EQ(report.fleet.served, kRequests);
  EXPECT_DOUBLE_EQ(report.availability, 1.0);
  ledger.ExpectExactlyOneEach(kRequests);
  size_t shards_used = 0;
  for (const ShardCounters& shard : report.shards) {
    if (shard.submitted > 0) ++shards_used;
  }
  EXPECT_GE(shards_used, 3u) << "placement badly skewed";
  EXPECT_GT(report.throughput_rps, 0.0);
}

// Hedged, with stragglers; `responses` gets every response's id,
// outcome, value and latency, exactly.
VirtualFleetReport RunSeededScenario(size_t shards, size_t replicas,
                                     std::string* spans,
                                     std::string* responses) {
  Backend backend;
  VirtualFleetOptions options;
  options.shards = shards;
  options.replicas_per_shard = replicas;
  options.seed = 7;
  options.slow_probability = 0.1;
  options.hedge.enabled = true;
  options.hedge.min_samples = 16;
  options.hedge.initial_delay_seconds = 0.020;
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  telemetry::Tracer tracer(29);
  fleet.SetTracer(&tracer);
  std::ostringstream log;
  log << std::setprecision(17);
  fleet.SetResponseCallback([&log](const serve::Response& response) {
    log << response.id << ' ' << serve::OutcomeName(response.outcome) << ' '
        << response.value << ' ' << response.latency_seconds << '\n';
  });
  for (uint64_t i = 0; i < 300; ++i) {
    fleet.SubmitAt(0.002 * static_cast<double>(i),
                   MakeRequest(i, "tenant-" + std::to_string(i % 25)));
  }
  VirtualFleetReport report = fleet.Run();
  EXPECT_EQ(tracer.open_count(), 0u);
  *spans = telemetry::SerializeSpans(tracer.Snapshot());
  *responses = log.str();
  return report;
}

TEST(VirtualFleetTest, ByteIdenticalAcrossRuns) {
  // 4 shards x 2 replicas, and the one-replica fleet (which never hedges).
  for (const auto& [shards, replicas] :
       std::vector<std::pair<size_t, size_t>>{{4, 2}, {1, 1}}) {
    SCOPED_TRACE(std::to_string(shards) + "x" + std::to_string(replicas));
    std::string spans1, spans2, responses1, responses2;
    VirtualFleetReport r1 =
        RunSeededScenario(shards, replicas, &spans1, &responses1);
    VirtualFleetReport r2 =
        RunSeededScenario(shards, replicas, &spans2, &responses2);
    EXPECT_EQ(r1.fleet.submitted, 300u);
    // Full report, every response AND the full span table (ids and
    // timestamps included): the fleet is a seeded discrete-event loop
    // that never touches the shared thread pool, so ADS_THREADS cannot
    // perturb it either (the trace CI job re-runs the golden suite under
    // ADS_THREADS=1 and 4).
    EXPECT_EQ(Serialize(r1), Serialize(r2));
    EXPECT_EQ(responses1, responses2);
    EXPECT_EQ(spans1, spans2);
  }
}

VirtualFleetReport RunTailScenario(bool hedge) {
  Backend backend;
  VirtualFleetOptions options;
  options.shards = 4;
  options.replicas_per_shard = 2;
  // Two virtual workers per replica so a straggler never blocks the
  // requests queued behind it — those would hedge too and feed queueing
  // delay back into the quantile the hedge delay is derived from.
  options.workers_per_replica = 2;
  options.seed = 11;
  options.core.batching = false;  // isolate hedging from batching effects
  // 5% of dispatches stall 16x: the straggler tail hedging targets.
  options.slow_probability = 0.05;
  options.slow_multiplier = 16.0;
  options.hedge.enabled = hedge;
  options.hedge.quantile = 0.9;
  options.hedge.delay_factor = 1.5;
  options.hedge.min_samples = 16;
  options.hedge.initial_delay_seconds = 0.010;
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  for (uint64_t i = 0; i < 600; ++i) {
    fleet.SubmitAt(0.005 * static_cast<double>(i),
                   MakeRequest(i, "tenant-" + std::to_string(i % 30)));
  }
  return fleet.Run();
}

TEST(VirtualFleetTest, HedgingCutsTailLatency) {
  VirtualFleetReport off = RunTailScenario(false);
  VirtualFleetReport on = RunTailScenario(true);
  ASSERT_EQ(off.fleet.served, 600u);
  ASSERT_EQ(on.fleet.served, 600u);
  EXPECT_EQ(off.fleet.hedges_fired, 0u);
  EXPECT_GT(on.fleet.hedges_fired, 0u);
  EXPECT_GT(on.fleet.hedge_wins, 0u)
      << "hedges fired but never beat a straggler";
  // The point of the subsystem: the duplicate beats the straggler, so
  // the tail collapses toward (hedge delay + nominal service).
  EXPECT_LT(on.latency.p99, off.latency.p99 * 0.5)
      << "hedged p99 " << on.latency.p99 << "s vs unhedged "
      << off.latency.p99 << "s";
  // Median traffic never hedges, so the body is untouched.
  EXPECT_NEAR(on.latency.p50, off.latency.p50, 0.5 * off.latency.p50);
  // Counters reconcile: one winner and one cancelled loser per hedge.
  EXPECT_EQ(on.fleet.hedges_fired,
            on.fleet.hedge_wins + on.fleet.primary_wins);
  EXPECT_EQ(on.fleet.hedges_fired, on.fleet.hedges_cancelled);
}

TEST(VirtualFleetTest, RollingDrainKeepsFullAvailabilityAndExactAccounting) {
  Backend backend;
  VirtualFleetOptions options;
  options.shards = 4;
  options.replicas_per_shard = 2;
  options.seed = 3;
  // Linger keeps a queue standing so drains have live work to reroute.
  options.core.batcher.max_batch_size = 8;
  options.core.batcher.max_linger_seconds = 0.020;
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  ResponseLedger ledger;
  fleet.SetResponseCallback(ledger.Callback());
  const size_t kRequests = 2000;
  for (uint64_t i = 0; i < kRequests; ++i) {
    fleet.SubmitAt(0.002 * static_cast<double>(i),
                   MakeRequest(i, "tenant-" + std::to_string(i % 50)));
  }
  // One shard down at a time while traffic flows: 1.0s..3.0s.
  fleet.ScheduleRollingDrain(1.0, 0.5);
  VirtualFleetReport report = fleet.Run();

  EXPECT_DOUBLE_EQ(report.availability, 1.0) << "rolling drain lost work";
  EXPECT_EQ(report.fleet.served, kRequests);
  EXPECT_EQ(report.fleet.shed_capacity + report.fleet.shed_deadline, 0u);
  EXPECT_GT(report.fleet.drain_diverts, 0u) << "no arrivals were diverted";
  EXPECT_GT(report.fleet.rerouted_out, 0u) << "no queued work was rerouted";
  EXPECT_EQ(report.fleet.rerouted_out, report.fleet.rerouted_in);
  ledger.ExpectExactlyOneEach(kRequests);
  // Per-shard ownership ledger balances even mid-drain transfers (also
  // ADS_CHECKed inside Run, asserted here for visibility).
  for (size_t s = 0; s < report.shards.size(); ++s) {
    const ShardCounters& c = report.shards[s];
    EXPECT_EQ(c.accepted + c.rerouted_in,
              c.served + c.Shed() + c.rerouted_out)
        << "shard " << s;
  }
}

TEST(VirtualFleetTest, OverloadShedsWithExactAccounting) {
  Backend backend;
  VirtualFleetOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  options.seed = 5;
  options.core.queue_capacity = 3;  // tiny queues: rejects and evictions
  options.core.batcher.max_batch_size = 2;
  options.core.batcher.max_linger_seconds = 0.004;
  options.service.batch_overhead_seconds = 0.010;  // slow drain
  options.hedge.enabled = true;  // hedges land in full queues too
  options.hedge.min_samples = 4;
  options.hedge.initial_delay_seconds = 0.002;
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  ResponseLedger ledger;
  fleet.SetResponseCallback(ledger.Callback());
  const size_t kRequests = 300;
  for (uint64_t i = 0; i < kRequests; ++i) {
    serve::Request request = MakeRequest(i, "t" + std::to_string(i % 6));
    request.priority = static_cast<int>(i % 3);
    if (i % 7 == 3) {
      request.deadline = 0.0005 * static_cast<double>(i) + 0.015;
    }
    fleet.SubmitAt(0.0005 * static_cast<double>(i), std::move(request));
  }
  VirtualFleetReport report = fleet.Run();

  EXPECT_GT(report.fleet.Rejected() + report.fleet.Shed(), 0u)
      << "scenario did not overload";
  EXPECT_EQ(report.fleet.submitted,
            report.fleet.accepted + report.fleet.Rejected());
  EXPECT_EQ(report.fleet.accepted,
            report.fleet.served + report.fleet.Shed());
  // Exactly one terminal response per logical request, hedges included.
  ledger.ExpectExactlyOneEach(kRequests);
  EXPECT_EQ(report.fleet.hedges_fired, report.fleet.hedges_cancelled);
}

TEST(VirtualFleetTest, VersionPinSurvivesMidRunDeploy) {
  Backend backend;
  backend.registry.Register("m", BlobWithSlope(3.0));  // v2, not deployed
  VirtualFleetOptions options;
  options.shards = 2;
  options.replicas_per_shard = 1;
  options.core.batcher.max_batch_size = 4;
  options.core.batcher.max_linger_seconds = 0.010;
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  std::map<uint64_t, uint32_t> versions;
  bool deployed_v2 = false;
  fleet.SetResponseCallback([&](const serve::Response& response) {
    ASSERT_EQ(response.outcome, serve::Outcome::kServed);
    versions[response.id] = response.model_version;
    // Promote v2 mid-run, the moment the 40th response lands — exactly
    // how the autonomy loop's flighting swaps the deployed pointer while
    // admitted requests are still queued.
    if (!deployed_v2 && versions.size() == 40) {
      deployed_v2 = true;
      ASSERT_TRUE(backend.registry.Deploy("m", 2).ok());
    }
  });
  for (uint64_t i = 0; i < 120; ++i) {
    fleet.SubmitAt(0.002 * static_cast<double>(i), MakeRequest(i, "t"));
  }
  VirtualFleetReport report = fleet.Run();
  EXPECT_EQ(report.fleet.served, 120u);
  size_t v1 = 0, v2 = 0;
  for (const auto& [id, version] : versions) {
    if (version == 1) ++v1;
    if (version == 2) ++v2;
  }
  // Both versions served, and every request served the version pinned at
  // its own admission — the hot-swap landed without retargeting a batch.
  EXPECT_EQ(v1 + v2, 120u);
  EXPECT_GT(v1, 0u);
  EXPECT_GT(v2, 0u);
}

TEST(VirtualFleetTest, BatchSizeOneMatchesDirectBackendCalls) {
  VirtualFleetOptions options = OneReplica(1);
  options.core.batching = false;
  std::vector<serve::Response> responses;
  VirtualFleetReport report =
      RunUniform(options, 100, 0.01, kNoDeadline, &responses);
  ASSERT_EQ(responses.size(), 100u);
  // Reference: the same model served directly, no fleet in between.
  Backend reference;
  for (uint64_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, i);
    EXPECT_EQ(responses[i].outcome, serve::Outcome::kServed);
    const double direct =
        reference.server
            .Predict(MakeRequest(i, "t").features, static_cast<double>(i))
            .value;
    // Bit-identical, not approximately equal: serving adds queueing,
    // never arithmetic.
    EXPECT_EQ(responses[i].value, direct) << "request " << i;
  }
  EXPECT_DOUBLE_EQ(report.mean_batch_size, 1.0);
}

TEST(VirtualFleetTest, SheddingBoundsTailLatencyUnderOverload) {
  // 800 rps offered against one unbatched worker's ~400 rps (2 ms + 0.5 ms
  // per request).
  const size_t kRequests = 2000;
  const double kDt = 0.00125;
  VirtualFleetOptions unshed = OneReplica(1);
  unshed.core.batching = false;
  unshed.core.queue_capacity = std::numeric_limits<size_t>::max();
  VirtualFleetReport unshed_report =
      RunUniform(unshed, kRequests, kDt, kNoDeadline);

  // Same arrivals, a bounded queue, and a 200 ms deadline on each.
  VirtualFleetOptions shed = unshed;
  shed.core.queue_capacity = 32;
  VirtualFleetReport shed_report =
      RunUniform(shed, kRequests, kDt, 0.2);

  // Unshed overload: everything served, latency grows without bound
  // (p99 on the order of the whole backlog).
  EXPECT_EQ(unshed_report.fleet.served, kRequests);
  EXPECT_GT(unshed_report.latency.p99, 1.0);
  // Shedding engaged: bounded queue + deadlines keep served latency low...
  EXPECT_LT(shed_report.latency.p99, 0.25);
  // ...at the cost of explicitly accounted rejections and sheds.
  EXPECT_GT(shed_report.fleet.Rejected() + shed_report.fleet.Shed(), 0u);
  EXPECT_EQ(shed_report.fleet.accepted, shed_report.fleet.Finished());
}

TEST(VirtualFleetTest, BatchingRaisesSaturatedThroughput) {
  const size_t kRequests = 2000;
  const double kDt = 0.0005;  // 2000 rps offered
  VirtualFleetOptions off = OneReplica(2);
  off.core.batching = false;
  off.core.queue_capacity = std::numeric_limits<size_t>::max();
  VirtualFleetReport report_off =
      RunUniform(off, kRequests, kDt, kNoDeadline);

  VirtualFleetOptions on = off;
  on.core.batching = true;
  on.core.batcher = {.max_batch_size = 16, .max_linger_seconds = 0.004};
  VirtualFleetReport report_on =
      RunUniform(on, kRequests, kDt, kNoDeadline);

  // Both serve everything (unbounded queue), but batching amortizes the
  // 2 ms dispatch overhead and drains the same load in far less time.
  EXPECT_EQ(report_off.fleet.served, kRequests);
  EXPECT_EQ(report_on.fleet.served, kRequests);
  EXPECT_GT(report_on.mean_batch_size, 4.0);
  EXPECT_GT(report_on.throughput_rps, 1.5 * report_off.throughput_rps);
}

TEST(VirtualFleetTest, BackendFaultsFallBackWithoutDroppingRequests) {
  common::FaultInjector injector(23);
  injector.Configure("serving.deployed", {.probability = 0.9});
  VirtualFleetOptions options = OneReplica(4);
  options.core.batcher = {.max_batch_size = 4, .max_linger_seconds = 0.002};
  std::vector<serve::Response> responses;
  VirtualFleetReport report =
      RunUniform(options, 400, 0.002, kNoDeadline, &responses, &injector);
  // Availability survives the faults: the fallback chain answers.
  EXPECT_EQ(report.fleet.served, 400u);
  ASSERT_EQ(responses.size(), 400u);
  size_t fallbacks = 0;
  for (const serve::Response& response : responses) {
    EXPECT_EQ(response.outcome, serve::Outcome::kServed);
    if (response.tier != autonomy::ResilientModelServer::Tier::kDeployed) {
      ++fallbacks;
    }
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(injector.Injected("serving.deployed"), 0u);
}

TEST(VirtualFleetTest, SingleShardDegeneratesToPlainServing) {
  Backend backend;
  VirtualFleetOptions options;
  options.shards = 1;
  options.replicas_per_shard = 1;
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  for (uint64_t i = 0; i < 50; ++i) {
    fleet.SubmitAt(0.001 * static_cast<double>(i), MakeRequest(i, "t"));
  }
  VirtualFleetReport report = fleet.Run();
  EXPECT_EQ(report.fleet.served, 50u);
  EXPECT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].served, 50u);
}

}  // namespace
}  // namespace ads::fleet
