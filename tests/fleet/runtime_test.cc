#include "fleet/runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autonomy/serving.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fleet/virtual_fleet.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/types.h"
#include "telemetry/store.h"

namespace ads::fleet {
namespace {

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor model;
  model.SetCoefficients(0.0, {slope});
  return model.Serialize();
}

struct Backend {
  Backend()
      : server(&registry, "m",
               [](const std::vector<double>& f) {
                 return f.empty() ? 0.0 : f[0];
               },
               autonomy::ServingOptions()) {
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
  request.features = {1.0};
  return request;
}

// Thread-safe record of every callback, by request id.
class Ledger {
 public:
  FleetRuntime::Callback Callback() {
    return [this](const serve::Response& response) {
      std::lock_guard<std::mutex> lock(mu_);
      by_id_[response.id].push_back(response);
      if (response.outcome == serve::Outcome::kServed) ++served_;
      arrived_.notify_all();
    };
  }
  void ExpectExactlyOneEach(size_t expected_total) {
    std::lock_guard<std::mutex> lock(mu_);
    EXPECT_EQ(by_id_.size(), expected_total);
    for (const auto& [id, responses] : by_id_) {
      EXPECT_EQ(responses.size(), 1u)
          << "request " << id << " got " << responses.size() << " callbacks";
    }
  }
  size_t served() {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }
  void WaitFor(size_t ids) {
    std::unique_lock<std::mutex> lock(mu_);
    arrived_.wait(lock, [&]() { return by_id_.size() >= ids; });
  }
  std::map<uint64_t, std::vector<serve::Response>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return by_id_;
  }

 private:
  std::mutex mu_;
  std::condition_variable arrived_;
  std::map<uint64_t, std::vector<serve::Response>> by_id_;
  size_t served_ = 0;
};

TEST(FleetRuntimeTest, ServesAcrossShardsWithExactlyOneCallbackEach) {
  Backend backend;
  common::ThreadPool pool(4);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();

  Ledger ledger;
  const size_t kRequests = 200;
  size_t accepted = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    common::Status status = fleet.Submit(
        MakeRequest(i, "tenant-" + std::to_string(i % 16)),
        ledger.Callback());
    if (status.ok()) ++accepted;
  }
  // Shutdown drains every queue and checks the ledger invariants itself.
  fleet.Shutdown();

  EXPECT_EQ(accepted, kRequests) << "unloaded fleet rejected work";
  ledger.ExpectExactlyOneEach(kRequests);
  EXPECT_EQ(ledger.served(), kRequests);
  ShardCounters total = fleet.FleetCounters();
  EXPECT_EQ(total.submitted, kRequests);
  EXPECT_EQ(total.served, kRequests);
  EXPECT_EQ(total.accepted, total.served + total.Shed());
}

TEST(FleetRuntimeTest, DrainQuiesceRejoinLosesNothing) {
  Backend backend;
  common::ThreadPool pool(4);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 1;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();

  Ledger ledger;
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 8)),
                             ledger.Callback())
                    .ok());
  }
  // Rolling restart of shard 0 while traffic keeps flowing.
  fleet.DrainShard(0);
  EXPECT_TRUE(fleet.router().draining(0));
  for (uint64_t i = 100; i < 200; ++i) {
    EXPECT_TRUE(fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 8)),
                             ledger.Callback())
                    .ok());
  }
  fleet.WaitShardQuiesced(0);
  // Quiesced means shard 0 holds no queued work and owns no open flight:
  // it is now safe to restart the replica processes behind it.
  EXPECT_EQ(fleet.ReplicaStats(0, 0).queued, 0u);
  fleet.RejoinShard(0);
  EXPECT_FALSE(fleet.router().draining(0));
  for (uint64_t i = 200; i < 300; ++i) {
    EXPECT_TRUE(fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 8)),
                             ledger.Callback())
                    .ok());
  }
  fleet.Shutdown();

  ledger.ExpectExactlyOneEach(300);
  EXPECT_EQ(ledger.served(), 300u);
  ShardCounters total = fleet.FleetCounters();
  EXPECT_EQ(total.served, 300u);
  // The drain window had live traffic for shard 0's tenants, so some of
  // it must have been diverted to shard 1.
  EXPECT_GT(total.drain_diverts, 0u) << "drain diverted nothing";
}

TEST(FleetRuntimeTest, HedgingFiresAndReconcilesUnderThreads) {
  Backend backend;
  common::ThreadPool pool(4);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  // Linger holds batches open so the hedge deadline can overtake the
  // primary while it is still queued.
  options.core.batcher.max_batch_size = 16;
  options.core.batcher.max_linger_seconds = 0.010;
  options.hedge.enabled = true;
  options.hedge.min_samples = 1u << 30;  // pin the warmup delay all test
  options.hedge.initial_delay_seconds = 0.0005;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();
  EXPECT_DOUBLE_EQ(fleet.HedgeDelay(), 0.0005);

  Ledger ledger;
  const size_t kRequests = 400;
  for (uint64_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 10)),
                             ledger.Callback())
                    .ok());
    if (i % 50 == 49) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  fleet.Shutdown();

  ledger.ExpectExactlyOneEach(kRequests);
  ShardCounters total = fleet.FleetCounters();
  EXPECT_EQ(total.served, kRequests) << "hedging duplicated or lost work";
  // A 0.5ms hedge delay against a 10ms linger: hedges must have fired.
  EXPECT_GT(total.hedges_fired, 0u);
  // First-completion-wins bookkeeping closes exactly.
  EXPECT_EQ(total.hedges_fired, total.hedge_wins + total.primary_wins);
  EXPECT_EQ(total.hedges_fired, total.hedges_cancelled);
}

TEST(FleetRuntimeTest, GaugesExposePerReplicaAndPerShardSeries) {
  Backend backend;
  common::ThreadPool pool(2);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();
  Ledger ledger;
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 4)),
                     ledger.Callback())
            .ok());
  }
  telemetry::TelemetryStore store;
  fleet.SampleGauges(&store);
  fleet.Shutdown();

  // Per-replica serving gauges are scoped by {shard, replica} labels; the
  // legacy unscoped "serve.queue_depth" series must NOT appear.
  EXPECT_EQ(store.Select("fleet.serve.queue_depth", {}).size(), 4u)
      << "expected one queue_depth series per replica";
  EXPECT_EQ(store.Select("serve.queue_depth", {}).size(), 0u)
      << "unscoped series leaked";
  EXPECT_EQ(store.Select("fleet.served_total", {}).size(), 2u)
      << "expected one served_total series per shard";
  EXPECT_EQ(
      store.Select("fleet.serve.queue_depth", {{"shard", "1"}}).size(), 2u)
      << "label selector should narrow to one shard's replicas";
}

TEST(FleetRuntimeTest, SubmitRefusesAnIdInFlightAndAnUnknownModel) {
  Backend backend;
  common::ThreadPool pool(2);
  FleetRuntimeOptions options;
  options.shards = 1;
  options.replicas_per_shard = 2;
  // A long linger keeps the first request queued until Shutdown.
  options.core.batcher.max_batch_size = 16;
  options.core.batcher.max_linger_seconds = 10.0;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();
  Ledger ledger;
  ASSERT_TRUE(fleet.Submit(MakeRequest(7, "t"), ledger.Callback()).ok());
  EXPECT_EQ(fleet.Submit(MakeRequest(7, "u"), ledger.Callback()).code(),
            common::StatusCode::kAlreadyExists);
  serve::Request unknown = MakeRequest(8, "t");
  unknown.model = "no-such-model";
  EXPECT_EQ(fleet.Submit(unknown, ledger.Callback()).code(),
            common::StatusCode::kNotFound);
  // Neither refusal was counted or admitted anywhere.
  EXPECT_EQ(fleet.FleetCounters().submitted, 1u);
  EXPECT_EQ(fleet.ReplicaStats(0, 0).counters.submitted +
                fleet.ReplicaStats(0, 1).counters.submitted,
            1u);
  fleet.Shutdown();
  // The first request still gets its one response.
  ledger.ExpectExactlyOneEach(1);
  EXPECT_EQ(ledger.served(), 1u);
  EXPECT_EQ(fleet.FleetCounters().served, 1u);
}

TEST(FleetRuntimeTest, HedgeWonLatencyRunsFromTheRequestsOwnSubmit) {
  Backend backend;
  common::ThreadPool pool(2);
  FleetRuntimeOptions options;
  options.shards = 1;
  options.replicas_per_shard = 2;
  options.core.batcher.max_batch_size = 2;
  options.core.batcher.max_linger_seconds = 0.050;
  options.hedge.enabled = true;
  options.hedge.min_samples = 1u << 30;  // the 5 ms warmup delay all test
  options.hedge.initial_delay_seconds = 0.005;
  Ledger responses;  // outlives the fleet's callbacks
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();

  // A sits alone on replica 0 and its hedge lands on replica 1, where B
  // later fills the batch: no copy of A is served before B's Submit or
  // the 50 ms linger.
  uint64_t a = 0;
  while (fleet.router().Route("t", a).replica != 0) ++a;
  uint64_t b = 0;
  while (fleet.router().Route("t", b).replica != 1) ++b;

  ASSERT_TRUE(fleet.Submit(MakeRequest(a, "t"), responses.Callback()).ok());
  const auto after_a = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto before_b = std::chrono::steady_clock::now();
  ASSERT_TRUE(fleet.Submit(MakeRequest(b, "t"), responses.Callback()).ok());
  responses.WaitFor(2);
  fleet.Shutdown();

  const auto got = responses.Take();
  ASSERT_EQ(got.at(a).size(), 1u);
  const serve::Response& response = got.at(a)[0];
  ASSERT_EQ(response.outcome, serve::Outcome::kServed);
  const double between =
      std::chrono::duration<double>(before_b - after_a).count();
  EXPECT_GE(response.latency_seconds, between)
      << "A's latency must run from A's own Submit, not from its hedge's";
}

// The same seeded arrivals for both twins.
std::vector<serve::Request> SeededArrivals(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<serve::Request> requests;
  for (uint64_t i = 0; i < n; ++i) {
    serve::Request request = MakeRequest(i, "tenant-" + std::to_string(i % 16));
    request.features = {rng.Uniform(-4.0, 4.0)};
    requests.push_back(std::move(request));
  }
  return requests;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void ExpectLedgerInvariants(const std::vector<ShardCounters>& shards) {
  uint64_t accepted = 0, finished = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardCounters& c = shards[s];
    EXPECT_EQ(c.submitted, c.accepted + c.Rejected()) << "shard " << s;
    EXPECT_EQ(c.accepted + c.rerouted_in, c.Finished() + c.rerouted_out)
        << "shard " << s;
    EXPECT_EQ(c.hedges_fired, c.hedge_wins + c.primary_wins + c.hedges_failed)
        << "shard " << s;
    EXPECT_EQ(c.hedges_fired, c.hedges_cancelled) << "shard " << s;
    accepted += c.accepted;
    finished += c.Finished();
  }
  EXPECT_EQ(accepted, finished);
}

struct TwinRun {
  std::map<uint64_t, std::vector<serve::Response>> responses;
  std::vector<ShardCounters> shards;
};

TwinRun RunThreaded(const std::vector<serve::Request>& arrivals,
                    const FleetRuntimeOptions& options) {
  Backend backend;
  common::ThreadPool pool(2);
  Ledger responses;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();
  for (const serve::Request& request : arrivals) {
    (void)fleet.Submit(request, responses.Callback());
    // Paced, so queued copies outlive the hedge delay before Shutdown
    // flushes them.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  fleet.Shutdown();  // checks the ledger invariants itself
  return {responses.Take(), fleet.CountersSnapshot()};
}

TwinRun RunVirtual(const std::vector<serve::Request>& arrivals,
                   const FleetRuntimeOptions& options) {
  Backend backend;
  VirtualFleetOptions virtual_options;
  virtual_options.shards = options.shards;
  virtual_options.replicas_per_shard = options.replicas_per_shard;
  virtual_options.core = options.core;
  virtual_options.hedge = options.hedge;
  virtual_options.router = options.router;
  VirtualFleet fleet(virtual_options);
  fleet.RegisterBackend("m", &backend.server);
  TwinRun run;
  fleet.SetResponseCallback([&run](const serve::Response& response) {
    run.responses[response.id].push_back(response);
  });
  for (size_t i = 0; i < arrivals.size(); ++i) {
    fleet.SubmitAt(0.0005 * static_cast<double>(i), arrivals[i]);
  }
  run.shards = fleet.Run().shards;  // checks the ledger invariants itself
  return run;
}

TEST(FleetRuntimeTest, TwinsAgreeWhereTimingCannotMatter) {
  // No deadlines, no rate limits, room for every request, no hedging and
  // no drains: each twin must serve every id once, with the same answer
  // and the same per-shard ledger.
  const std::vector<serve::Request> arrivals = SeededArrivals(300, 41);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  options.core.queue_capacity = 1000;
  const TwinRun threaded = RunThreaded(arrivals, options);
  const TwinRun simulated = RunVirtual(arrivals, options);

  ASSERT_EQ(threaded.responses.size(), arrivals.size());
  ASSERT_EQ(simulated.responses.size(), arrivals.size());
  for (const serve::Request& request : arrivals) {
    const auto& t = threaded.responses.at(request.id);
    const auto& v = simulated.responses.at(request.id);
    ASSERT_EQ(t.size(), 1u) << "request " << request.id;
    ASSERT_EQ(v.size(), 1u) << "request " << request.id;
    EXPECT_EQ(t[0].outcome, serve::Outcome::kServed);
    EXPECT_EQ(v[0].outcome, serve::Outcome::kServed);
    EXPECT_EQ(Bits(t[0].value), Bits(v[0].value)) << "request " << request.id;
    EXPECT_EQ(t[0].tier, v[0].tier) << "request " << request.id;
    EXPECT_EQ(t[0].model_version, v[0].model_version)
        << "request " << request.id;
  }
  ASSERT_EQ(threaded.shards.size(), simulated.shards.size());
  for (size_t s = 0; s < threaded.shards.size(); ++s) {
    EXPECT_EQ(threaded.shards[s].submitted, simulated.shards[s].submitted);
    EXPECT_EQ(threaded.shards[s].accepted, simulated.shards[s].accepted);
    EXPECT_EQ(threaded.shards[s].served, simulated.shards[s].served);
  }
}

TEST(FleetRuntimeTest, TwinsKeepTheLedgerWhereTimingMatters) {
  // Hedging on and 3-deep queues: the twins may disagree on who is shed
  // or rejected, but each gives exactly one response per id and balances.
  std::vector<serve::Request> arrivals = SeededArrivals(200, 43);
  for (serve::Request& request : arrivals) {
    request.priority = static_cast<int>(request.id % 3);  // evictions too
  }
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  // Batches never fill a 3-deep queue, so every copy waits out the linger
  // and its hedge fires into the sibling replica's queue.
  options.core.queue_capacity = 3;
  options.core.batcher.max_batch_size = 4;
  options.core.batcher.max_linger_seconds = 0.002;
  options.hedge.enabled = true;
  options.hedge.min_samples = 8;
  options.hedge.initial_delay_seconds = 0.0005;
  const TwinRun simulated = RunVirtual(arrivals, options);
  for (const TwinRun& run : {RunThreaded(arrivals, options), simulated}) {
    ASSERT_EQ(run.responses.size(), arrivals.size());
    for (const auto& [id, responses] : run.responses) {
      EXPECT_EQ(responses.size(), 1u) << "request " << id;
    }
    ExpectLedgerInvariants(run.shards);
  }
  // The seeded virtual run is deterministic: the regime really hedges,
  // sheds and rejects.
  uint64_t hedges = 0, shed = 0, rejected = 0;
  for (const ShardCounters& c : simulated.shards) {
    hedges += c.hedges_fired;
    shed += c.Shed();
    rejected += c.Rejected();
  }
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ads::fleet
