// P4 — the closed autonomy loop under live traffic: how fast drift turns
// into a safely promoted model, how fast a regressing promotion is rolled
// back, and what flighting costs the serving tier while it happens.
//
// Two experiments:
//
//   1. Virtual time (deterministic, byte-identical run to run): the
//      golden-trace promote and rollback scenarios at bench scale —
//      a one-replica VirtualFleet with the AutonomyLoop attached as
//      version router, every served response fed back as a loop sample.
//      Reports promote latency (drift alarm -> deployed pointer swapped),
//      rollback latency (regression onset -> previous version restored),
//      and serving availability while the flights were active.
//
//   2. Threaded (wall clock): a ServingRuntime and the loop's retraining
//      share one ThreadPool; a drift mid-run triggers a deliberately
//      heavy retrain. Reports serving p99 with and without the retrain
//      competing for the pool — the "retraining must not violate serving
//      SLOs" number.
//
// Output: human tables on stdout; machine-readable JSON via --out=PATH
// (default BENCH_p4.json). `--smoke` shrinks the threaded experiment for
// CI runners.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autonomy/loop.h"
#include "autonomy/serving.h"
#include "common/logging.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "fleet/virtual_fleet.h"
#include "ml/dataset.h"
#include "ml/forest.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/runtime.h"
#include "serve/types.h"
#include "telemetry/span.h"

using namespace ads;  // NOLINT: bench brevity

namespace {

bool g_smoke = false;

/// Ordered so the JSON diffs cleanly run to run.
std::vector<std::pair<std::string, double>> g_metrics;

void Metric(const std::string& name, double value) {
  g_metrics.emplace_back(name, value);
}

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

/// Fits the most recent quarter of the retrain buffer — the
/// pure-new-regime tail at alarm time.
common::Result<std::string> RecencyTrainer(const ml::Dataset& data) {
  std::vector<size_t> recent;
  for (size_t i = data.size() - data.size() / 4; i < data.size(); ++i)
    recent.push_back(i);
  ml::LinearRegressor m;
  common::Status fitted = m.Fit(data.Filter(recent));
  if (!fitted.ok()) return fitted;
  return m.Serialize();
}

autonomy::AutonomyLoopOptions LoopOptions() {
  autonomy::AutonomyLoopOptions options;
  options.detector.baseline_window = 20;
  options.detector.recent_window = 20;
  options.retrain_buffer_capacity = 40;
  options.min_retrain_samples = 40;
  options.retrain_duration_seconds = 0.05;
  options.shadow_min_samples = 10;
  options.flight.min_samples_per_arm = 10;
  options.canary_tenant_fraction = 0.5;
  options.cooldown_seconds = 0.2;
  return options;
}

// --------------------------------------------------------------------
// P4.1 | virtual-time promote and rollback scenarios.
// --------------------------------------------------------------------

struct FlightRun {
  fleet::VirtualFleetReport report;
  autonomy::LoopStats stats;
  std::vector<telemetry::Span> spans;
  uint32_t deployed = 0;
};

FlightRun RunVirtualScenario(size_t n, double (*slope_at)(uint64_t),
                             double probation_seconds) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(2.0));
  ADS_CHECK_OK(registry.Deploy("m", 1));
  autonomy::ResilientModelServer backend(
      &registry, "m", [](const std::vector<double>&) { return -1.0; });
  autonomy::AutonomyLoopOptions options = LoopOptions();
  options.probation_seconds = probation_seconds;
  autonomy::AutonomyLoop loop(&registry, "m", RecencyTrainer, options);
  telemetry::Tracer tracer(29);
  loop.SetTracer(&tracer);

  fleet::VirtualFleetOptions vopts;
  vopts.shards = 1;
  vopts.replicas_per_shard = 1;
  vopts.workers_per_replica = 4;
  vopts.core.batcher.max_batch_size = 4;
  vopts.core.batcher.max_linger_seconds = 0.005;
  fleet::VirtualFleet server(vopts);
  server.RegisterBackend("m", &backend);
  server.SetRouter(&loop);

  std::vector<std::string> tenants(n);
  std::vector<double> xs(n, 0.0), arrivals(n, 0.0);
  server.SetResponseCallback([&](const serve::Response& response) {
    if (response.outcome != serve::Outcome::kServed) return;
    const uint64_t id = response.id;
    autonomy::LoopSample sample;
    sample.tenant = tenants[id];
    sample.features = {xs[id]};
    sample.prediction = response.value;
    sample.served_version = response.model_version;
    sample.truth = slope_at(id) * xs[id];
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
  FlightRun run;
  run.report = server.Run();
  run.stats = loop.stats();
  run.deployed = registry.DeployedVersion("m");
  run.spans = tracer.Snapshot();
  return run;
}

double SpanStart(const std::vector<telemetry::Span>& spans,
                 const std::string& kind) {
  for (const telemetry::Span& span : spans) {
    if (span.kind == kind) return span.start;
  }
  return -1.0;
}

double PromoteSlopes(uint64_t id) { return id < 30 ? 2.0 : 5.0; }

double RollbackSlopes(uint64_t id) {
  if (id < 30) return 2.0;
  if (id < 190) return 5.0;
  return 2.0;
}

void RunVirtualFlights() {
  // Promote: drift onset at request 30 (t=0.31), one full episode.
  FlightRun promote = RunVirtualScenario(250, PromoteSlopes, 0.4);
  ADS_CHECK(promote.stats.promotes == 1 && promote.deployed == 2)
      << "promote scenario drifted";
  const double drift_alarm = SpanStart(promote.spans, "episode");
  const double promoted_at = SpanStart(promote.spans, "promote");
  const double promote_latency = promoted_at - drift_alarm;
  const double promote_avail = promote.report.availability;

  // Rollback: the world reverts at request 190 (t=1.91) inside the
  // promoted model's probation window.
  FlightRun rollback = RunVirtualScenario(320, RollbackSlopes, 3.0);
  ADS_CHECK(rollback.stats.rollbacks == 1 && rollback.deployed == 1)
      << "rollback scenario drifted";
  const double reversion_onset = 0.01 * (190 + 1);
  const double rolled_back_at = SpanStart(rollback.spans, "rollback");
  const double rollback_latency = rolled_back_at - reversion_onset;
  const double rollback_avail = rollback.report.availability;

  common::Table table({"scenario", "episodes", "outcome", "latency (s)",
                       "availability", "deployed after"});
  table.AddRow({"drift -> promote", std::to_string(promote.stats.episodes),
                "promoted", common::Table::Num(promote_latency, 3),
                common::Table::Pct(promote_avail),
                "v" + std::to_string(promote.deployed)});
  table.AddRow({"regression -> rollback",
                std::to_string(rollback.stats.episodes), "rolled-back",
                common::Table::Num(rollback_latency, 3),
                common::Table::Pct(rollback_avail),
                "v" + std::to_string(rollback.deployed)});
  table.Print("P4.1 | virtual-time flights: drift to promote, regression "
              "to rollback (dt=10ms arrivals)");

  Metric("promote_latency_seconds", promote_latency);
  Metric("rollback_latency_seconds", rollback_latency);
  Metric("availability_promote_flight", promote_avail);
  Metric("availability_rollback_flight", rollback_avail);
}

// --------------------------------------------------------------------
// P4.2 | threaded serving p99 while retraining shares the pool.
// --------------------------------------------------------------------

/// A trainer that actually costs compute: fits a random forest on the
/// buffer replicated many times, then distils it back to the linear blob
/// the serving scenario expects. The forest fit is what contends with
/// serving for pool workers.
common::Result<std::string> HeavyTrainer(const ml::Dataset& data) {
  ml::Dataset big;
  const size_t reps = g_smoke ? 50 : 400;
  for (size_t r = 0; r < reps; ++r) {
    for (size_t i = 0; i < data.size(); ++i) {
      big.Add(std::vector<double>(data.row(i)), data.label(i));
    }
  }
  ml::RandomForestRegressor forest(
      ml::RandomForestOptions{.num_trees = g_smoke ? 8u : 16u, .max_depth = 8});
  common::Status fitted = forest.Fit(big);
  if (!fitted.ok()) return fitted;
  return RecencyTrainer(data);
}

struct ThreadedRun {
  serve::ServingStats stats;
  autonomy::LoopStats loop_stats;
  double p99 = 0.0;
};

ThreadedRun RunThreadedServing(bool with_drift) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(2.0));
  ADS_CHECK_OK(registry.Deploy("m", 1));
  autonomy::ResilientModelServer backend(
      &registry, "m", [](const std::vector<double>&) { return -1.0; });

  common::ThreadPool pool(4);
  autonomy::AutonomyLoopOptions options = LoopOptions();
  options.retrain_duration_seconds = 0.0;
  autonomy::AutonomyLoop loop(&registry, "m", HeavyTrainer, options, &pool);

  serve::CoreOptions copts;
  copts.queue_capacity = 4096;
  copts.batcher.max_batch_size = 8;
  copts.batcher.max_linger_seconds = 0.0005;
  serve::ServingRuntime runtime(copts, &pool);
  runtime.RegisterBackend("m", &backend);
  runtime.SetRouter(&loop);
  runtime.Start();

  const uint64_t kRequests = g_smoke ? 4000 : 20000;
  const uint64_t drift_at = kRequests / 4;
  std::atomic<uint64_t> done{0};
  for (uint64_t id = 0; id < kRequests; ++id) {
    serve::Request request;
    request.id = id;
    request.model = "m";
    request.tenant = "t" + std::to_string(id % 8);
    const double x = 1.0 + static_cast<double>(id % 4);
    request.features = {x};
    const double slope = (with_drift && id >= drift_at) ? 5.0 : 2.0;
    common::Status admitted = runtime.Submit(
        std::move(request),
        [&loop, &runtime, &done, x, slope,
         tenant = "t" + std::to_string(id % 8)](
            const serve::Response& response) {
          if (response.outcome == serve::Outcome::kServed) {
            autonomy::LoopSample sample;
            sample.tenant = tenant;
            sample.features = {x};
            sample.prediction = response.value;
            sample.served_version = response.model_version;
            sample.truth = slope * x;
            loop.OnSample(sample, runtime.Now());
          }
          done.fetch_add(1, std::memory_order_relaxed);
        });
    (void)admitted;  // rejections fire the callback inline and are counted
    // Light pacing keeps the queue shallow so p99 reflects service-time
    // contention (the retrain sharing the pool), not backlog depth.
    if (id % 64 == 63) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  runtime.Shutdown();
  ADS_CHECK(done.load() == kRequests) << "lost responses";

  ThreadedRun run;
  run.stats = runtime.Stats();
  run.loop_stats = loop.stats();
  run.p99 = run.stats.latency.p99;
  return run;
}

void RunThreadedFlight() {
  ThreadedRun steady = RunThreadedServing(/*with_drift=*/false);
  ThreadedRun flighted = RunThreadedServing(/*with_drift=*/true);

  common::Table table({"run", "served", "episodes", "promotes", "p99 (ms)",
                       "availability"});
  auto avail = [](const ThreadedRun& run) {
    return static_cast<double>(run.stats.counters.served) /
           static_cast<double>(run.stats.counters.accepted);
  };
  table.AddRow({"steady (no retrain)",
                std::to_string(steady.stats.counters.served),
                std::to_string(steady.loop_stats.episodes),
                std::to_string(steady.loop_stats.promotes),
                common::Table::Num(steady.p99 * 1e3, 3),
                common::Table::Pct(avail(steady))});
  table.AddRow({"drift + pool retrain",
                std::to_string(flighted.stats.counters.served),
                std::to_string(flighted.loop_stats.episodes),
                std::to_string(flighted.loop_stats.promotes),
                common::Table::Num(flighted.p99 * 1e3, 3),
                common::Table::Pct(avail(flighted))});
  table.Print("P4.2 | threaded runtime: serving p99 while retraining "
              "shares the thread pool");

  Metric("p99_steady_seconds", steady.p99);
  Metric("p99_during_flight_seconds", flighted.p99);
  Metric("availability_threaded_steady", avail(steady));
  Metric("availability_threaded_flight", avail(flighted));
  Metric("threaded_flight_promotes",
         static_cast<double>(flighted.loop_stats.promotes));
}

void WriteJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ADS_CHECK(f != nullptr) << "cannot open metrics output: " << path;
  std::fprintf(f, "{\n  \"bench\": \"bench_p4_autonomy\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", g_smoke ? "true" : "false");
  std::fprintf(f, "  \"metrics\": {\n");
  for (size_t i = 0; i < g_metrics.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.17g%s\n", g_metrics[i].first.c_str(),
                 g_metrics[i].second, i + 1 < g_metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote metrics: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_p4.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") g_smoke = true;
    const std::string flag = "--out=";
    if (arg.rfind(flag, 0) == 0) out = arg.substr(flag.size());
  }
  std::printf("P4 | autonomy bench: closed loop drift -> retrain -> "
              "flight -> promote/rollback\n\n");
  RunVirtualFlights();
  std::printf("\n");
  RunThreadedFlight();
  WriteJson(out);
  return 0;
}
