// Property test: for random seeded request streams through a traced
// one-replica VirtualFleet, the span table must tell a complete,
// consistent story — every served request rides exactly one batch, every
// accepted request reaches exactly one terminal outcome, and the
// trace-derived counts reconcile with the fleet's ledger.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "autonomy/serving.h"
#include "common/rng.h"
#include "fleet/virtual_fleet.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/types.h"
#include "telemetry/span.h"

namespace ads::fleet {
namespace {

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

std::vector<uint64_t> ParseIdList(const std::string& csv) {
  std::vector<uint64_t> ids;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    ids.push_back(std::stoull(token));
  }
  return ids;
}

uint64_t IdFromName(const std::string& name) {  // "req-<id>"
  return std::stoull(name.substr(name.find('-') + 1));
}

struct TraceStory {
  // request id -> terminal outcome attribute ("served", "shed_capacity", ...)
  std::map<uint64_t, std::string> outcome;
  // request id -> admission decision ("accepted" or a reject outcome)
  std::map<uint64_t, std::string> decision;
  // request id -> batch ordinal from the request span's back-link
  std::map<uint64_t, std::string> batch_of;
  // batch ordinal -> member request ids from the batch span
  std::map<std::string, std::vector<uint64_t>> batch_members;
};

TraceStory Reconstruct(const std::vector<telemetry::Span>& spans) {
  TraceStory story;
  std::map<telemetry::SpanId, uint64_t> request_of_span;
  for (const telemetry::Span& span : spans) {
    if (span.kind == "request") {
      uint64_t id = IdFromName(span.name);
      request_of_span[span.id] = id;
      auto outcome = span.attributes.find("outcome");
      if (outcome != span.attributes.end()) {
        EXPECT_TRUE(story.outcome.emplace(id, outcome->second).second)
            << "request " << id << " traced twice";
      }
      auto batch = span.attributes.find("batch");
      if (batch != span.attributes.end()) story.batch_of[id] = batch->second;
    } else if (span.kind == "batch") {
      std::string seq = span.name.substr(span.name.find('-') + 1);
      for (uint64_t id : ParseIdList(span.attributes.at("requests"))) {
        story.batch_members[seq].push_back(id);
      }
    }
  }
  for (const telemetry::Span& span : spans) {
    if (span.kind != "admission") continue;
    uint64_t id = request_of_span.at(span.parent);
    EXPECT_TRUE(
        story.decision.emplace(id, span.attributes.at("decision")).second)
        << "request " << id << " admitted twice";
  }
  return story;
}

TEST(ServingTraceProperty, RandomStreamsReconcile) {
  for (uint64_t trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    common::Rng rng(1000 + trial);
    const size_t n = static_cast<size_t>(rng.UniformInt(40, 160));

    ml::ModelRegistry registry;
    registry.Register("m", BlobWithSlope(2.0));
    ASSERT_TRUE(registry.Deploy("m", 1).ok());
    autonomy::ResilientModelServer backend(
        &registry, "m",
        [](const std::vector<double>& f) { return f.empty() ? 0.0 : f[0]; },
        autonomy::ServingOptions());

    VirtualFleetOptions options;
    options.shards = 1;
    options.replicas_per_shard = 1;
    options.core.queue_capacity = static_cast<size_t>(rng.UniformInt(4, 24));
    options.core.batcher = {
        .max_batch_size = static_cast<size_t>(rng.UniformInt(1, 6)),
        .max_linger_seconds = rng.Uniform(0.0, 0.01)};
    options.workers_per_replica = static_cast<size_t>(rng.UniformInt(1, 3));
    VirtualFleet server(options);
    server.RegisterBackend("m", &backend);
    telemetry::Tracer tracer(trial);
    server.SetTracer(&tracer);

    double t = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      t += rng.Exponential(/*rate=*/600.0);  // bursty ~600 rps offered
      serve::Request r;
      r.id = i;
      r.model = "m";
      r.tenant = "t";
      r.features = {rng.Uniform(0.5, 2.0)};
      r.priority = static_cast<int>(rng.UniformInt(0, 3));
      r.deadline = rng.Bernoulli(0.3)
                       ? t + rng.Uniform(0.001, 0.05)
                       : std::numeric_limits<double>::infinity();
      server.SubmitAt(t, std::move(r));
    }
    VirtualFleetReport report = server.Run();
    ASSERT_EQ(tracer.open_count(), 0u);  // graceful drain: no dangling spans

    TraceStory story = Reconstruct(tracer.Snapshot());

    // Every submitted request has exactly one request span with exactly
    // one admission decision and one terminal outcome.
    ASSERT_EQ(story.decision.size(), n);
    ASSERT_EQ(story.outcome.size(), n);

    // Count outcomes from the trace alone.
    uint64_t served = 0, shed = 0, rejected = 0, accepted = 0;
    for (const auto& [id, decision] : story.decision) {
      if (decision == "accepted") ++accepted;
    }
    std::set<uint64_t> served_ids;
    for (const auto& [id, outcome] : story.outcome) {
      if (outcome == "served") {
        ++served;
        served_ids.insert(id);
      } else if (outcome == "shed_capacity" || outcome == "shed_deadline") {
        ++shed;
      } else {
        ++rejected;
      }
    }

    // The trace reconciles with the ledger's counters...
    EXPECT_EQ(accepted, report.fleet.accepted);
    EXPECT_EQ(served, report.fleet.served);
    EXPECT_EQ(shed, report.fleet.Shed());
    EXPECT_EQ(rejected, report.fleet.Rejected());
    // ...and accepted requests split exactly into served + shed.
    EXPECT_EQ(accepted, served + shed);

    // Batch membership: every served request appears in exactly one batch
    // span, and its back-link names that batch; non-served requests ride
    // no batch.
    std::map<uint64_t, std::string> member_of;
    for (const auto& [seq, members] : story.batch_members) {
      for (uint64_t id : members) {
        EXPECT_TRUE(member_of.emplace(id, seq).second)
            << "request " << id << " in two batches";
      }
    }
    for (uint64_t id : served_ids) {
      ASSERT_EQ(member_of.count(id), 1u) << "served request " << id
                                         << " missing from batch spans";
      EXPECT_EQ(story.batch_of.at(id), member_of.at(id));
    }
    for (const auto& [id, seq] : member_of) {
      EXPECT_EQ(served_ids.count(id), 1u)
          << "batched request " << id << " was never served";
    }
  }
}

}  // namespace
}  // namespace ads::fleet
