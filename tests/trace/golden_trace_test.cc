// Golden-trace regression harness: three deterministic scenarios produce
// canonical span trees that are diffed against checked-in goldens. The
// canonical form omits ids and timestamps, so a golden failure means the
// *causal structure* changed — a span appeared, vanished, or was rewired
// to a different parent. Timing-only changes never trip these tests.
//
// Regenerate after an intentional structure change:
//   ADS_UPDATE_GOLDENS=1 ctest --test-dir build -R trace_golden_test
//
// Every scenario runs single-threaded virtual time, so the serialized
// span table (ids and timestamps included) is byte-identical across runs
// and across ADS_THREADS — each test asserts that too.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "autonomy/serving.h"
#include "engine/executor.h"
#include "engine/stage_graph.h"
#include "fleet/virtual_fleet.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/types.h"
#include "telemetry/span.h"
#include "telemetry/span_analysis.h"

namespace ads {
namespace {

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
      << "span tree structure diverged from " << path
      << "; if intentional, regenerate with ADS_UPDATE_GOLDENS=1";
}

// The bench's two-join analytics job shape: two scan->shuffle legs
// feeding joins that feed a final aggregation.
engine::StageGraph TwoJoinJob() {
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

// --------------------------------------------------------------------
// Scenario 1: fault-free engine execution.
// --------------------------------------------------------------------

std::vector<telemetry::Span> RunFaultFree() {
  telemetry::Tracer tracer(11);
  engine::JobSimulator sim;
  engine::JobRun run = sim.Execute(TwoJoinJob(), 5, {}, &tracer);
  EXPECT_GT(run.makespan, 0.0);
  EXPECT_EQ(tracer.open_count(), 0u);  // everything closed at job end
  return tracer.Snapshot();
}

TEST(GoldenTraceTest, EngineFaultFreeExecution) {
  std::vector<telemetry::Span> first = RunFaultFree();
  std::vector<telemetry::Span> second = RunFaultFree();
  // Byte-identical including ids and timestamps: the simulator is a
  // deterministic event loop and the tracer ids are seeded.
  EXPECT_EQ(telemetry::SerializeSpans(first),
            telemetry::SerializeSpans(second));
  // job root + one stage span per stage.
  telemetry::SpanTree tree(first);
  ASSERT_EQ(tree.Roots().size(), 1u);
  EXPECT_EQ(first.size(), 1u + TwoJoinJob().size());
  // The critical path descends job -> some stage.
  std::vector<telemetry::SpanId> path = tree.CriticalPath(tree.Roots()[0]);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(tree.Get(path[1]).kind, "stage");
  CheckGolden("engine_fault_free.txt", telemetry::CanonicalStructure(first));
}

// --------------------------------------------------------------------
// Scenario 2: ExecuteWithFaults with exactly one machine death.
// --------------------------------------------------------------------

std::vector<telemetry::Span> RunOneMachineDeath() {
  engine::StageGraph g = TwoJoinJob();
  engine::JobSimulator sim;
  const double base = sim.Execute(g, 5).makespan;
  engine::FaultOptions faults;
  // ~1 expected failure per makespan; seed 7 is pinned below to land
  // exactly one mid-run death that kills in-flight work.
  faults.failures_per_hour = 3600.0 / base;
  faults.recovery_seconds = base / 10.0;
  telemetry::Tracer tracer(13);
  engine::ChaosRun run = sim.ExecuteWithFaults(g, 7, faults, {}, &tracer);
  EXPECT_EQ(run.failures, 1) << "scenario drifted: expected one machine death";
  EXPECT_GT(run.wasted_compute, 0.0);
  EXPECT_EQ(tracer.open_count(), 0u);
  return tracer.Snapshot();
}

TEST(GoldenTraceTest, EngineSingleMachineDeath) {
  std::vector<telemetry::Span> first = RunOneMachineDeath();
  std::vector<telemetry::Span> second = RunOneMachineDeath();
  EXPECT_EQ(telemetry::SerializeSpans(first),
            telemetry::SerializeSpans(second));
  // The death must be visible causally: an outage child of the job and
  // at least one killed execution followed by a retry or recompute.
  int outages = 0, killed = 0, reruns = 0;
  for (const telemetry::Span& span : first) {
    if (span.kind == "outage") ++outages;
    auto it = span.attributes.find("outcome");
    if (it != span.attributes.end() && it->second == "killed") ++killed;
    if (span.kind == "retry" || span.kind == "recompute") ++reruns;
  }
  EXPECT_EQ(outages, 1);
  EXPECT_GE(killed, 1);
  EXPECT_GE(reruns, 1);
  CheckGolden("engine_machine_death.txt",
              telemetry::CanonicalStructure(first));
}

// --------------------------------------------------------------------
// Scenario 3: a one-replica VirtualFleet under overload with shedding.
// --------------------------------------------------------------------

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

std::vector<telemetry::Span> RunOverloadedServer(
    fleet::VirtualFleetReport* report) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(2.0));
  EXPECT_TRUE(registry.Deploy("m", 1).ok());
  autonomy::ResilientModelServer backend(
      &registry, "m",
      [](const std::vector<double>& f) { return f.empty() ? 0.0 : f[0]; },
      autonomy::ServingOptions());
  fleet::VirtualFleetOptions options;
  options.shards = 1;
  options.replicas_per_shard = 1;
  options.workers_per_replica = 1;
  options.core.queue_capacity = 4;  // overload: forces sheds/rejects
  options.core.batcher = {.max_batch_size = 2, .max_linger_seconds = 0.004};
  fleet::VirtualFleet server(options);
  server.RegisterBackend("m", &backend);
  telemetry::Tracer tracer(17);
  server.SetTracer(&tracer);
  // A burst far above one worker's drain rate, with mixed priorities so
  // capacity shedding evicts, and tight deadlines on a few stragglers.
  for (uint64_t i = 0; i < 16; ++i) {
    serve::Request r;
    r.id = i;
    r.model = "m";
    r.tenant = "t";
    r.features = {1.0 + 0.1 * static_cast<double>(i % 5)};
    r.priority = static_cast<int>(i % 3);
    r.deadline = (i % 4 == 3) ? 0.0005 * static_cast<double>(i) + 0.003
                              : std::numeric_limits<double>::infinity();
    server.SubmitAt(0.0005 * static_cast<double>(i), std::move(r));
  }
  *report = server.Run();
  EXPECT_GT(report->fleet.served, 0u);
  EXPECT_GT(report->fleet.Shed() + report->fleet.Rejected(), 0u);
  EXPECT_EQ(tracer.open_count(), 0u);  // graceful drain closes every span
  return tracer.Snapshot();
}

TEST(GoldenTraceTest, OneReplicaFleetOverloadSheds) {
  fleet::VirtualFleetReport r1, r2;
  std::vector<telemetry::Span> first = RunOverloadedServer(&r1);
  std::vector<telemetry::Span> second = RunOverloadedServer(&r2);
  EXPECT_EQ(telemetry::SerializeSpans(first),
            telemetry::SerializeSpans(second));
  EXPECT_EQ(r1.fleet.served, r2.fleet.served);
  CheckGolden("serve_overload_shed.txt",
              telemetry::CanonicalStructure(first));
}

}  // namespace
}  // namespace ads
