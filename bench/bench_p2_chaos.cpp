// P2 — chaos: the fault-injection and resilience layer end to end.
//
// Three experiments, all fully deterministic (fixed seeds, simulated
// time only — two runs print identical output):
//
//   1. Engine: event-driven multi-failure execution of a stage DAG.
//      Makespan and recovery cost vs. failure rate, bare vs. protected
//      (checkpoint cut + speculative re-execution). Protection turns the
//      steep makespan growth sub-linear: lost work is bounded by the
//      checkpoint cut and stragglers are clipped by backups.
//
//   2. Infra: machine failures/drains through the event queue against the
//      cluster scheduler. Every submitted task completes; restarts and
//      tail latency quantify the recovery cost.
//
//   3. Serving: the deployed -> previous -> heuristic fallback chain under
//      injected model faults. Every request is answered; the breaker
//      trips, rolls the registry back, and recovers via its probe.

// Pass --trace-out=PATH to additionally dump one traced engine-chaos run
// and one traced infra-chaos run as Chrome trace_event JSON (open in
// chrome://tracing or ui.perfetto.dev). Tracing runs on separate seeded
// tracers and never perturbs the benchmark numbers above it.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "autonomy/loop.h"
#include "autonomy/serving.h"
#include "common/event_queue.h"
#include "common/fault_injection.h"
#include "common/table.h"
#include "engine/executor.h"
#include "engine/stage_graph.h"
#include "infra/chaos.h"
#include "infra/scheduler.h"
#include "ml/linear.h"
#include "fleet/virtual_fleet.h"
#include "ml/registry.h"
#include "serve/types.h"
#include "telemetry/span.h"
#include "telemetry/span_analysis.h"

using namespace ads;  // NOLINT: bench brevity

namespace {

// A two-join analytics job shape: two scan->shuffle legs feeding joins
// that feed a final aggregation. Wide early levels, narrow late levels —
// the shape where checkpointing the last cut pays off.
engine::StageGraph MakeJob() {
  engine::StageGraph g;
  auto add = [&g](std::vector<int> inputs, const std::string& label,
                  double work, double out_bytes) {
    engine::Stage s;
    s.id = static_cast<int>(g.stages.size());
    s.inputs = std::move(inputs);
    s.label = label;
    s.work = work;
    s.output_rows = out_bytes / 100.0;
    s.output_bytes = out_bytes;
    g.stages.push_back(std::move(s));
    return s.id;
  };
  int s0 = add({}, "scan_facts", 400.0, 4.0e8);
  int s1 = add({}, "scan_dim_a", 150.0, 1.5e8);
  int s2 = add({}, "scan_dim_b", 150.0, 1.5e8);
  int j1 = add({s0, s1}, "join_a", 250.0, 2.5e8);
  int j2 = add({j1, s2}, "join_b", 200.0, 2.0e8);
  int agg = add({j2}, "partial_agg", 120.0, 4.0e7);
  g.final_stage = add({agg}, "final_agg", 60.0, 1.0e6);
  return g;
}

void RunEngineChaos() {
  engine::StageGraph g = MakeJob();
  engine::JobSimulator sim;
  const double base = sim.Execute(g, 1).makespan;
  // Protected config: every shuffle output is written durably, so a dead
  // machine never forces lineage recomputation of a completed stage.
  std::set<int> cut;
  for (const engine::Stage& s : g.stages) {
    if (s.id != g.final_stage) cut.insert(s.id);
  }

  common::Table table({"failures/hour", "bare makespan", "protected",
                       "bare waste (slot-s)", "protected waste",
                       "recomputes bare/prot"});
  const int kSeeds = 48;
  for (double per_makespan : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    engine::FaultOptions bare;
    bare.failures_per_hour = 3600.0 / base * per_makespan;
    bare.recovery_seconds = base / 5.0;
    bare.straggler_prob = 0.05;
    bare.straggler_mult = 4.0;
    engine::FaultOptions guarded = bare;
    guarded.speculation = true;
    guarded.speculation_trigger = 1.5;

    double mk_bare = 0.0, mk_prot = 0.0, waste_bare = 0.0, waste_prot = 0.0;
    int rec_bare = 0, rec_prot = 0;
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
      engine::ChaosRun b = sim.ExecuteWithFaults(g, seed, bare);
      engine::ChaosRun p = sim.ExecuteWithFaults(g, seed, guarded, cut);
      mk_bare += b.makespan;
      mk_prot += p.makespan;
      waste_bare += b.wasted_compute;
      waste_prot += p.wasted_compute;
      rec_bare += b.recomputed_stages;
      rec_prot += p.recomputed_stages;
    }
    table.AddRow({common::Table::Num(per_makespan, 1) + " per job",
                  common::Table::Num(mk_bare / kSeeds, 1),
                  common::Table::Num(mk_prot / kSeeds, 1),
                  common::Table::Num(waste_bare / kSeeds, 0),
                  common::Table::Num(waste_prot / kSeeds, 0),
                  std::to_string(rec_bare) + " / " + std::to_string(rec_prot)});
  }
  std::printf("failure-free makespan: %.1f s; checkpoint cut: %zu stages\n",
              base, cut.size());
  table.Print("P2.1 | engine: makespan under machine failures "
              "(checkpoints + speculation)");
}

void RunInfraChaos() {
  common::Table table({"MTBF (s)", "completed", "restarted", "failures",
                       "drains", "p50 latency", "p99 latency"});
  for (double mtbf : {0.0, 600.0, 300.0, 150.0}) {
    infra::Cluster cluster;
    infra::SkuSpec sku;
    sku.name = "gen4";
    sku.default_max_containers = 8;
    sku.cpu_per_container = 0.1;
    sku.temp_storage_gb = 50.0;
    cluster.AddMachines(sku, 8);
    common::EventQueue queue;
    infra::ClusterScheduler sched(&cluster, &queue, nullptr, 1);
    infra::MachineChaos chaos(&cluster, &queue, &sched, 17);
    infra::ChaosOptions copts;
    copts.mtbf_seconds = mtbf;
    copts.mttr_seconds = 90.0;
    copts.drain_fraction = 0.25;
    copts.drain_lead_seconds = 45.0;
    copts.horizon_seconds = 4000.0;
    chaos.Start(copts);
    for (uint64_t i = 0; i < 600; ++i) {
      queue.ScheduleAt(static_cast<double>(i) * 5.0,
                       [&sched, i](common::SimTime) {
                         sched.Submit({.id = i,
                                       .base_duration = 30.0,
                                       .temp_storage_gb = 1.0});
                       });
    }
    queue.RunAll();
    table.AddRow({mtbf <= 0.0 ? "off" : common::Table::Num(mtbf, 0),
                  std::to_string(sched.completed_tasks()),
                  std::to_string(sched.restarted_tasks()),
                  std::to_string(chaos.failures_injected()),
                  std::to_string(chaos.drains_injected()),
                  common::Table::Num(sched.task_latency().Quantile(0.5), 1),
                  common::Table::Num(sched.task_latency().Quantile(0.99), 1)});
  }
  table.Print("P2.2 | infra: scheduler under machine failures and drains "
              "(600 tasks, 8 machines)");
}

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

void RunServingChaos() {
  common::Table table({"deployed fault rate", "served", "deployed",
                       "previous", "heuristic", "breaker trips", "rollbacks"});
  for (double rate : {0.0, 0.05, 0.3, 0.8}) {
    ml::ModelRegistry registry;
    registry.Register("latency", BlobWithSlope(2.0));
    registry.Register("latency", BlobWithSlope(3.0));
    ADS_CHECK_OK(registry.Deploy("latency", 1));
    ADS_CHECK_OK(registry.Deploy("latency", 2));
    common::FaultInjector injector(23);
    injector.Configure("serving.deployed", {.probability = rate});
    autonomy::ServingOptions options;
    options.breaker.failure_threshold = 3;
    options.breaker.cooldown_seconds = 30.0;
    autonomy::ResilientModelServer server(
        &registry, "latency",
        [](const std::vector<double>& f) { return f.empty() ? 0.0 : f[0]; },
        options, &injector);
    const int kRequests = 2000;
    uint64_t served = 0;
    for (int i = 0; i < kRequests; ++i) {
      auto r = server.Predict({1.0}, static_cast<double>(i));
      (void)r;
      ++served;  // Predict never fails: the chain always answers
    }
    using Tier = autonomy::ResilientModelServer::Tier;
    table.AddRow({common::Table::Pct(rate), std::to_string(served),
                  std::to_string(server.served_by_tier(Tier::kDeployed)),
                  std::to_string(server.served_by_tier(Tier::kPrevious)),
                  std::to_string(server.served_by_tier(Tier::kHeuristic)),
                  std::to_string(server.breaker().trips()),
                  std::to_string(server.rollbacks())});
  }
  table.Print("P2.3 | serving: fallback chain under injected model faults "
              "(2000 requests each)");
}

// --flight: machine chaos overlaid on an active canary. The closed
// autonomy loop drives a drift -> retrain -> canary episode under a
// one-replica VirtualFleet; the moment the canary opens, the deployed
// serving tier starts failing at the configured rate (the "machine under
// the canary dies" scenario). The fallback chain keeps answering, the breaker
// opens, the health gate aborts the flight, and the loop lands back on
// the last good model. Deterministic: seeded injector, virtual time.
void RunFlightChaos() {
  common::Table table({"canary fault rate", "outcome", "aborts", "promotes",
                       "breaker trips", "availability",
                       "last-good recovery (s)"});
  for (double rate : {0.0, 0.6, 1.0}) {
    ml::ModelRegistry registry;
    registry.Register("m", BlobWithSlope(2.0));
    ADS_CHECK_OK(registry.Deploy("m", 1));
    common::FaultInjector injector(31);
    autonomy::ServingOptions sopts;
    sopts.breaker.failure_threshold = 3;
    sopts.breaker.cooldown_seconds = 0.5;
    autonomy::ResilientModelServer backend(
        &registry, "m", [](const std::vector<double>&) { return -1.0; },
        sopts, &injector);

    autonomy::AutonomyLoopOptions lopts;
    lopts.detector.baseline_window = 20;
    lopts.detector.recent_window = 20;
    lopts.retrain_buffer_capacity = 40;
    lopts.min_retrain_samples = 40;
    lopts.retrain_duration_seconds = 0.05;
    lopts.shadow_min_samples = 10;
    lopts.flight.min_samples_per_arm = 30;  // keeps the canary open a while
    lopts.canary_tenant_fraction = 0.5;
    lopts.probation_seconds = 0.4;
    lopts.cooldown_seconds = 0.2;
    autonomy::AutonomyLoop loop(
        &registry, "m",
        [](const ml::Dataset& data) -> common::Result<std::string> {
          std::vector<size_t> recent;
          for (size_t i = data.size() - data.size() / 4; i < data.size(); ++i)
            recent.push_back(i);
          ml::LinearRegressor m;
          common::Status fitted = m.Fit(data.Filter(recent));
          if (!fitted.ok()) return fitted;
          return m.Serialize();
        },
        lopts);

    fleet::VirtualFleetOptions vopts;
    vopts.shards = 1;
    vopts.replicas_per_shard = 1;
    vopts.workers_per_replica = 4;
    vopts.core.batcher.max_batch_size = 4;
    vopts.core.batcher.max_linger_seconds = 0.005;
    fleet::VirtualFleet server(vopts);
    server.RegisterBackend("m", &backend);
    server.SetRouter(&loop);

    const size_t kN = 400;
    std::vector<std::string> tenants(kN);
    std::vector<double> xs(kN, 0.0), arrivals(kN, 0.0);
    bool chaos_armed = false;
    double chaos_armed_at = 0.0, recovered_at = 0.0;
    server.SetResponseCallback([&](const serve::Response& response) {
      if (response.outcome != serve::Outcome::kServed) return;
      const uint64_t id = response.id;
      const double now = arrivals[id] + response.latency_seconds;
      autonomy::LoopSample sample;
      sample.tenant = tenants[id];
      sample.features = {xs[id]};
      sample.prediction = response.value;
      sample.served_version = response.model_version;
      sample.truth = (id < 30 ? 2.0 : 5.0) * xs[id];
      loop.OnSample(sample, now);
      // The machine under the canary dies the moment the flight opens.
      if (!chaos_armed && loop.state() == autonomy::LoopState::kCanary &&
          rate > 0.0) {
        injector.Configure("serving.deployed", {.probability = rate});
        chaos_armed = true;
        chaos_armed_at = now;
      }
      // Health gate: the loop sees the breaker state with every sample.
      autonomy::HealthSnapshot health;
      health.breaker_open =
          backend.breaker().state() == common::CircuitBreaker::State::kOpen;
      loop.ReportHealth(health, now);
      // Recovery: the flight is gone and the last good model serves again.
      if (chaos_armed && recovered_at == 0.0 &&
          loop.state() == autonomy::LoopState::kSteady &&
          registry.DeployedVersion("m") == 1) {
        recovered_at = now;
        injector.Configure("serving.deployed", {});  // machine comes back
      }
    });
    for (uint64_t id = 0; id < kN; ++id) {
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
    fleet::VirtualFleetReport report = server.Run();
    ADS_CHECK(report.fleet.accepted == report.fleet.Finished())
        << "request accounting broke under flight chaos";
    autonomy::LoopStats stats = loop.stats();
    const bool aborted = stats.aborts > 0;
    // With chaos the episode aborts; once the machine recovers the
    // latched drift alarm retries and the later episode promotes.
    const std::string outcome =
        !aborted ? "promoted"
                 : (stats.promotes > 0 ? "abort, then promote" : "aborted");
    table.AddRow(
        {common::Table::Pct(rate), outcome,
         std::to_string(stats.aborts), std::to_string(stats.promotes),
         std::to_string(backend.breaker().trips()),
         common::Table::Pct(report.availability),
         aborted ? common::Table::Num(recovered_at - chaos_armed_at, 3)
                 : "n/a"});
  }
  table.Print("P2.4 | flight chaos: machine death under an active canary "
              "(400 requests, virtual time)");
}

// One traced engine-chaos run plus one traced infra-chaos run, merged
// into a single Chrome trace (distinct tracer seeds keep span ids
// disjoint; every root span gets its own track).
void WriteChromeTrace(const std::string& path) {
  telemetry::Tracer engine_tracer(1);
  engine::StageGraph g = MakeJob();
  engine::JobSimulator sim;
  const double base = sim.Execute(g, 1).makespan;
  engine::FaultOptions faults;
  faults.failures_per_hour = 3600.0 / base * 2.0;
  faults.recovery_seconds = base / 5.0;
  faults.straggler_prob = 0.05;
  faults.straggler_mult = 4.0;
  faults.speculation = true;
  sim.ExecuteWithFaults(g, 7, faults, {}, &engine_tracer);

  telemetry::Tracer infra_tracer(2);
  infra::Cluster cluster;
  infra::SkuSpec sku;
  sku.name = "gen4";
  sku.default_max_containers = 8;
  sku.cpu_per_container = 0.1;
  sku.temp_storage_gb = 50.0;
  cluster.AddMachines(sku, 8);
  common::EventQueue queue;
  infra::ClusterScheduler sched(&cluster, &queue, nullptr, 1);
  sched.SetTracer(&infra_tracer);
  infra::MachineChaos chaos(&cluster, &queue, &sched, 17);
  chaos.SetTracer(&infra_tracer);
  infra::ChaosOptions copts;
  copts.mtbf_seconds = 300.0;
  copts.mttr_seconds = 90.0;
  copts.horizon_seconds = 1000.0;
  chaos.Start(copts);
  for (uint64_t i = 0; i < 150; ++i) {
    queue.ScheduleAt(static_cast<double>(i) * 5.0, [&sched, i](common::SimTime) {
      sched.Submit({.id = i, .base_duration = 30.0, .temp_storage_gb = 1.0});
    });
  }
  queue.RunAll();

  std::vector<telemetry::Span> spans = engine_tracer.Snapshot();
  std::vector<telemetry::Span> infra_spans = infra_tracer.Snapshot();
  spans.insert(spans.end(), infra_spans.begin(), infra_spans.end());
  std::string json = telemetry::ChromeTraceJson(spans);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ADS_CHECK(f != nullptr) << "cannot open trace output: " << path;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote chrome trace: %s (%zu spans)\n", path.c_str(),
              spans.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  bool flight = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flight") flight = true;
    const std::string flag = "--trace-out=";
    if (arg.rfind(flag, 0) == 0) trace_out = arg.substr(flag.size());
  }
  std::printf("P2 | chaos bench: deterministic fault injection across "
              "engine, infra and serving\n\n");
  RunEngineChaos();
  std::printf("\n");
  RunInfraChaos();
  std::printf("\n");
  RunServingChaos();
  if (flight) {
    std::printf("\n");
    RunFlightChaos();
  }
  if (!trace_out.empty()) WriteChromeTrace(trace_out);
  return 0;
}
