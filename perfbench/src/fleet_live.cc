// fleet_live / fleet_live_hedged: an open-loop generator drives a threaded
// FleetRuntime (2 shards x 2 replicas on a 2-worker pool) serving an MLP
// behind ResilientModelServer, up a ladder of fixed rates. Every rung gets
// a fresh fleet so hedge samples never carry across rungs.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "autonomy/serving.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fleet/hedge.h"
#include "fleet/runtime.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "ml/registry.h"
#include "report.h"
#include "stats.h"

namespace perfbench {

namespace {

using ads::autonomy::ResilientModelServer;

constexpr size_t kFeatures = 8;
constexpr size_t kTrainRows = 1000;
constexpr int kEpochs = 24;
constexpr size_t kTenants = 16;
/// Distinct (features, tenant) pairs the request stream cycles through.
constexpr size_t kStreamRows = 4096;
constexpr double kLadder[] = {1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 1.5e5};
constexpr double kMaxLagS = 1.0;
/// The reference tail is the median of the p95s of this many consecutive
/// slices of the rung (see WindowedMedian). p95, not the p99 the slices
/// would support: the p99 at 1k req/s follows the host's thread wake-up
/// latency, and across runs here it read 1.25-2.41 ms while the p95 held.
/// The p99 stays in the result file as serve_p99_ms.
constexpr size_t kWindows = 5;
constexpr double kTailLevel = 0.95;
/// Traced runs record spans for one request in this many.
constexpr uint64_t kTraceSampleEvery = 64;
const char* const kModel = "latency";

/// Written by the replays so the compiler keeps the replayed calls.
volatile size_t g_sink = 0;

/// Requests per rung: at least kRungRequests, and at least kRungSeconds
/// of load so the fast rungs can show a growing backlog. The hedged path
/// pays more per request as its latency sample grows, so these counts are
/// part of the workload: with them its collapse falls between the 10k rung
/// (8500 requests) and the 20k rung (15000), clear of both.
constexpr uint64_t kRungRequests = 8500;
constexpr double kRungSeconds = 0.75;

uint64_t RungRequests(double rate) {
  return std::max<uint64_t>(kRungRequests,
                            static_cast<uint64_t>(rate * kRungSeconds));
}

/// Everything built before the first timed request.
struct Backend {
  std::unique_ptr<ads::ml::ModelRegistry> registry;
  std::unique_ptr<ResilientModelServer> server;
  std::unique_ptr<ads::ml::Regressor> model;  // the deployed version
  ads::common::Matrix rows;                   // kStreamRows x kFeatures
  std::vector<std::string> tenants;           // per stream row
  std::vector<double> expected;               // PredictBatch of `rows`
};

Backend BuildBackend(uint64_t seed, double* fit_s) {
  Backend b;
  ads::common::Rng rng(seed);
  auto label = [](const std::vector<double>& x) {
    double y = 0.0;
    for (size_t k = 0; k < x.size(); ++k) {
      y += (static_cast<double>(k) + 1.0) * x[k];
    }
    return y + 3.0 * std::sin(x[0] * x[1]);
  };
  ads::ml::Dataset data;
  for (size_t i = 0; i < kTrainRows; ++i) {
    std::vector<double> x(kFeatures);
    for (double& v : x) v = rng.Uniform(-1.0, 1.0);
    const double y = label(x);
    data.Add(std::move(x), y);
  }
  ads::ml::MlpOptions mlp_options;
  mlp_options.hidden_layers = {64, 64};
  mlp_options.epochs = kEpochs;
  mlp_options.seed = seed;
  ads::ml::MlpRegressor mlp(mlp_options);
  *fit_s = TimeS([&] { (void)mlp.Fit(data); });

  b.registry = std::make_unique<ads::ml::ModelRegistry>();
  const uint32_t version = b.registry->Register(kModel, mlp.Serialize());
  (void)b.registry->Deploy(kModel, version);
  b.server = std::make_unique<ResilientModelServer>(
      b.registry.get(), kModel,
      [](const std::vector<double>&) { return 0.0; });
  auto deployed = b.registry->DeployedModel(kModel);
  if (deployed.ok()) b.model = std::move(deployed).value();

  b.rows = ads::common::Matrix(kStreamRows, kFeatures);
  for (size_t i = 0; i < kStreamRows; ++i) {
    for (size_t k = 0; k < kFeatures; ++k) {
      b.rows.RowPtr(i)[k] = rng.Uniform(-1.0, 1.0);
    }
    b.tenants.push_back(
        "tenant-" + std::to_string(rng.UniformInt(0, kTenants - 1)));
  }
  if (b.model != nullptr) b.model->PredictBatch(b.rows, &b.expected);
  return b;
}

ads::fleet::FleetRuntimeOptions FleetOptions(bool hedged) {
  ads::fleet::FleetRuntimeOptions o;
  o.shards = 2;
  o.replicas_per_shard = 2;
  o.core.queue_capacity = 4096;
  o.core.batching = true;
  o.core.batcher.max_batch_size = 32;
  o.core.batcher.max_linger_seconds = 0.001;
  o.hedge.enabled = hedged;
  return o;
}

/// What one rung measured, beyond the ladder's Rung.
struct RungDetail {
  Rung rung;
  /// p99 over the served requests alone; rung.p99_ms counts failures as
  /// infinitely late, which the ladder rule needs but a table cannot show.
  double served_p99_ms = 0.0;
  /// Median over kWindows consecutive slices of the rung of each slice's
  /// p95 (failures infinitely late).
  double window_p95_ms = 0.0;
  std::vector<double> late_ms;
  std::vector<double> submit_us;
  std::vector<double> served_latency_s;  // as the fleet reported them
  double batch_size_mean = 0.0;
  double serve_p50_ms = 0.0;
  double serve_p99_ms = 0.0;  // worst replica
  double shed = 0.0;
  double rejected = 0.0;
  double hedge_delay_ms = 0.0;
  double hedges_fired = 0.0;
  double hedge_wins = 0.0;
  double accepted = 0.0;
  double route_ns = 0.0;
};

/// One fixed-rate rung on a fresh fleet.
RungDetail RunRung(Backend& backend, ads::common::ThreadPool& pool,
                   bool hedged, double rate, Spans& spans, Report* report) {
  const uint64_t planned = RungRequests(rate);
  ScopedSpan rung_span(spans, "rung", "rate " + std::to_string(
                                          static_cast<int>(rate)));
  ads::fleet::FleetRuntime fleet(FleetOptions(hedged), &pool);
  fleet.RegisterBackend(kModel, backend.server.get());
  {
    ScopedSpan s(spans, "fleet", "Start", rung_span.id());
    fleet.Start();
  }

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> done_s(planned, inf);
  std::vector<double> fleet_latency_s(planned, -1.0);
  std::vector<std::atomic<uint32_t>> calls(planned);
  enum : uint8_t { kRight = 1, kWrong, kRefused };  // 0: no callback yet
  std::vector<std::atomic<uint8_t>> outcome(planned);
  std::vector<ads::telemetry::SpanId> root(planned, ads::telemetry::kNoSpan);

  RungDetail d;
  d.rung.rate_rps = rate;
  d.rung.planned = planned;
  d.late_ms.reserve(planned);
  d.submit_us.reserve(planned);
  const double start = NowS();
  uint64_t j = 0;
  for (; j < planned; ++j) {
    const double due = start + DueSeconds(j, rate);
    // Spin: a sleeping generator wakes late and charges its own wake-up
    // latency to the system under test.
    double now = NowS();
    while (now < due) now = NowS();
    if (GeneratorLagged(now, due, kMaxLagS)) {
      d.rung.lagged = true;
      break;
    }
    d.late_ms.push_back((now - due) * 1e3);
    const size_t row = j % kStreamRows;
    ads::serve::Request request;
    request.id = j;
    request.model = kModel;
    request.tenant = backend.tenants[row];
    request.features.assign(backend.rows.RowPtr(row),
                            backend.rows.RowPtr(row) + kFeatures);
    const bool sampled = spans.on() && j % kTraceSampleEvery == 0;
    if (sampled) {
      root[j] = spans.Start("request", "request", rung_span.id());
      spans.Annotate(root[j], "id", std::to_string(j));
    }
    const double expected = backend.expected[row];
    auto callback = [&, j, expected, sampled](
                        const ads::serve::Response& response) {
      const double t = NowS();
      const bool served = response.outcome == ads::serve::Outcome::kServed;
      const bool right =
          response.tier == ResilientModelServer::Tier::kDeployed &&
          std::memcmp(&response.value, &expected, sizeof(double)) == 0;
      if (calls[j].fetch_add(1) != 0) return;  // counted as failed below
      done_s[j] = t;
      fleet_latency_s[j] = served ? response.latency_seconds : -1.0;
      outcome[j].store(!served ? kRefused : right ? kRight : kWrong);
      if (sampled) {
        spans.Instant("callback", "completion", root[j]);
        spans.End(root[j]);
      }
    };
    ads::telemetry::SpanId submit_span = ads::telemetry::kNoSpan;
    if (sampled) submit_span = spans.Start("fleet", "Submit", root[j]);
    const double s0 = NowS();
    (void)fleet.Submit(std::move(request), callback);
    d.submit_us.push_back((NowS() - s0) * 1e6);
    spans.End(submit_span);
  }
  d.rung.sent = j;
  {
    ScopedSpan s(spans, "fleet", "Shutdown", rung_span.id());
    fleet.Shutdown();
  }

  // Outcomes. A wrong answer or a callback count other than one is an
  // operation that failed. For the ladder, anything not served right (a
  // refusal under overload, or a request never sent) misses the limit.
  std::vector<double> latency_ms(planned, inf);
  for (uint64_t i = 0; i < planned; ++i) {
    if (i < d.rung.sent) {
      report->Count(calls[i].load() == 1 && outcome[i].load() != kWrong);
    }
    if (i >= d.rung.sent || calls[i].load() != 1 ||
        outcome[i].load() != kRight) {
      ++d.rung.failed;
      continue;
    }
    latency_ms[i] =
        LatencyFromDue(start + DueSeconds(i, rate), done_s[i]) * 1e3;
    d.served_latency_s.push_back(fleet_latency_s[i]);
  }
  d.window_p95_ms = WindowedMedian(latency_ms, kWindows, [](auto w) {
    return Quantile(std::move(w), kTailLevel);
  });
  std::sort(latency_ms.begin(), latency_ms.end());
  d.rung.p50_ms = NearestRank(latency_ms, 0.5);
  d.rung.p99_ms = NearestRank(latency_ms, 0.99);
  latency_ms.resize(planned - d.rung.failed);  // drop the infinities
  d.served_p99_ms = NearestRank(latency_ms, 0.99);

  // serve layer: per-replica stats summed (latency: worst replica).
  double batches = 0.0, batched = 0.0;
  std::vector<double> p50s;
  for (size_t shard = 0; shard < 2; ++shard) {
    for (size_t r = 0; r < 2; ++r) {
      const ads::serve::ServingStats st = fleet.ReplicaStats(shard, r);
      batches += static_cast<double>(st.batch_size.count());
      batched += st.batch_size.mean() * st.batch_size.count();
      p50s.push_back(st.latency.p50 * 1e3);
      d.serve_p99_ms = std::max(d.serve_p99_ms, st.latency.p99 * 1e3);
      d.shed += static_cast<double>(st.counters.shed_capacity +
                                    st.counters.shed_deadline);
      d.rejected += static_cast<double>(st.counters.Rejected());
    }
  }
  d.batch_size_mean = batches > 0 ? batched / batches : 0.0;
  d.serve_p50_ms = Median(p50s);
  const ads::fleet::ShardCounters counters = fleet.FleetCounters();
  d.hedges_fired = static_cast<double>(counters.hedges_fired);
  d.hedge_wins = static_cast<double>(counters.hedge_wins);
  d.accepted = static_cast<double>(counters.accepted);
  d.hedge_delay_ms = fleet.HedgeDelay() * 1e3;

  if (spans.on()) {
    // Replay the router over this rung's (tenant, id) stream.
    ScopedSpan s(spans, "replay", "FleetRouter::Route", rung_span.id());
    const uint64_t n = std::max<uint64_t>(d.rung.sent, 1);
    const double t = TimeS([&] {
      for (uint64_t i = 0; i < n; ++i) {
        g_sink =
            fleet.router().Route(backend.tenants[i % kStreamRows], i).shard;
      }
    });
    d.route_ns = t / static_cast<double>(n) * 1e9;
  }
  return d;
}

struct Ladder {
  std::vector<RungDetail> rungs;  // each rung's first run
  double max_rate = 0.0;
  uint64_t reruns = 0;
};

Ladder RunLadder(Backend& backend, ads::common::ThreadPool& pool, bool hedged,
                 Spans& spans, Report* report) {
  const LatencyLimit limit;
  Ladder ladder;
  std::vector<std::vector<Rung>> runs;
  for (double rate : kLadder) {
    ladder.rungs.push_back(
        RunRung(backend, pool, hedged, rate, spans, report));
    runs.push_back({ladder.rungs.back().rung});
    if (!RungMeets(runs.back().front(), limit)) {
      // Rerun a miss until a rerun misses too (see kRungReruns).
      for (size_t i = 0; i < kRungReruns; ++i) {
        runs.back().push_back(
            RunRung(backend, pool, hedged, rate, spans, report).rung);
        ++ladder.reruns;
        if (!RungMeets(runs.back().back(), limit)) break;
      }
    }
    if (!RungHolds(runs.back(), limit)) break;
  }
  ladder.max_rate = MaxRate(runs, limit);
  return ladder;
}

/// Replays `fn` on the same input for ~50 ms; seconds per call.
template <typename Fn>
double ReplaySeconds(Fn&& fn) {
  uint64_t calls = 0;
  const double start = NowS();
  while (NowS() - start < 0.05 || calls < 10) {
    fn();
    ++calls;
  }
  return (NowS() - start) / static_cast<double>(calls);
}

}  // namespace

void RunFleetLive(const RunOptions& options, bool hedged, Spans& spans,
                  Report* report) {
  // Set-up: training plus fleet start, the training repeated so setup_s is
  // a median.
  std::vector<double> setup_s;
  Backend backend;
  HostSpeed host;
  double fit_s = 0.0;
  const int setups = options.trace ? 1 : 5;
  for (int i = 0; i < setups; ++i) {
    backend = Backend();
    ScopedSpan s(spans, "setup", "Fit");
    setup_s.push_back(
        TimeS([&] { backend = BuildBackend(options.seed, &fit_s); }));
    host.Sample();
  }
  report->Check(backend.model != nullptr &&
                    backend.expected.size() == kStreamRows,
                "model did not deploy");
  if (!report->correct()) return;
  ads::common::ThreadPool pool(2);
  const double start_s = TimeS([&] {
    ads::fleet::FleetRuntime fleet(FleetOptions(hedged), &pool);
    fleet.RegisterBackend(kModel, backend.server.get());
    fleet.Start();
    fleet.Shutdown();
  });

  if (!options.trace) {
    Ladder ladder = RunLadder(backend, pool, hedged, spans, report);
    // The reference rung is the ladder's first: 1k req/s, which both
    // workloads hold.
    const Rung& ref = ladder.rungs.front().rung;
    // Set-up in reference-host seconds (see HostSpeed); the live figures
    // are wake-up and linger bound, so they stay wall time.
    report->Set("setup_s", (Median(setup_s) + start_s) * host.Factor(), "s");
    report->Set("wall.setup_s", Median(setup_s) + start_s, "s");
    SetHostSpeed(host, report);
    report->Set("throughput_per_s", ladder.max_rate, "1/s");
    report->Set("latency_p50_ms", ref.p50_ms, "ms");
    report->Set("latency_tail_ms", ladder.rungs.front().window_p95_ms, "ms");
    report->Set("latency_tail_level", kTailLevel, "quantile");
    report->Set("latency_samples",
                static_cast<double>(ref.planned / kWindows), "count");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("max_rate_rps", ladder.max_rate, "1/s");
    report->Set("ladder.reruns", static_cast<double>(ladder.reruns), "count");
    report->Set("serve_p50_ms", ref.p50_ms, "ms");
    report->Set("serve_p99_ms", ref.p99_ms, "ms");
    for (const RungDetail& d : ladder.rungs) {
      const std::string r = std::to_string(static_cast<int>(d.rung.rate_rps));
      report->Set("rung." + r + ".p99_ms", d.served_p99_ms, "ms");
    }
    return;
  }

  // Traced run: the ladder untraced for the overhead, then traced.
  Spans off(nullptr);
  const double plain_rate =
      RunLadder(backend, pool, hedged, off, report).max_rate;
  Ladder ladder = RunLadder(backend, pool, hedged, spans, report);
  const RungDetail& ref = ladder.rungs.front();
  const RungDetail& last = ladder.rungs.back();

  report->Set("ml.fit_s", fit_s, "s");
  // Replays at the mean batch size the last rung observed.
  const size_t batch = std::clamp<size_t>(
      static_cast<size_t>(std::lround(last.batch_size_mean)), 1, 32);
  ads::common::Matrix rows(batch, kFeatures);
  for (size_t i = 0; i < batch; ++i) {
    std::copy(backend.rows.RowPtr(i), backend.rows.RowPtr(i) + kFeatures,
              rows.RowPtr(i));
  }
  {
    ScopedSpan s(spans, "replay", "Regressor::PredictBatch");
    std::vector<double> out;
    report->Set("ml.predict_ns_per_row",
                ReplaySeconds([&] { backend.model->PredictBatch(rows, &out); }) /
                    batch * 1e9,
                "ns");
  }
  {
    ScopedSpan s(spans, "replay", "ResilientModelServer::PredictBatch");
    std::vector<ResilientModelServer::ServeResult> out;
    report->Set("autonomy.predict_ns_per_row",
                ReplaySeconds([&] {
                  backend.server->PredictBatch(rows, 0.0, &out);
                }) / batch * 1e9,
                "ns");
  }

  report->Set("serve.batch_size_mean", ref.batch_size_mean, "count");
  report->Set("serve.latency_p50_ms", ref.serve_p50_ms, "ms");
  report->Set("serve.latency_p99_ms", ref.serve_p99_ms, "ms");
  report->Set("serve.shed", ref.shed, "count");
  report->Set("serve.rejected", ref.rejected, "count");

  std::vector<double> submit = last.submit_us;
  std::sort(submit.begin(), submit.end());
  report->Set("fleet.submit_us_p50", NearestRank(submit, 0.5), "us");
  report->Set("fleet.submit_us_p99", NearestRank(submit, 0.99), "us");
  report->Set("fleet.route_ns", last.route_ns, "ns");
  if (hedged) {
    ScopedSpan s(spans, "replay", "HedgePolicy");
    ads::fleet::HedgePolicy policy(FleetOptions(true).hedge);
    const double t = TimeS([&] {
      for (double latency : last.served_latency_s) {
        policy.Observe(latency);
        g_sink = static_cast<size_t>(policy.Delay() * 1e9);
      }
    });
    report->Set("fleet.hedge_policy_us",
                t / std::max<size_t>(last.served_latency_s.size(), 1) * 1e6,
                "us");
    report->Set("fleet.hedge_delay_ms", ref.hedge_delay_ms, "ms");
    report->Set("fleet.hedges_fired_frac",
                ref.accepted > 0 ? ref.hedges_fired / ref.accepted : 0.0,
                "ratio");
    report->Set("fleet.hedge_win_frac",
                ref.hedges_fired > 0 ? ref.hedge_wins / ref.hedges_fired : 0.0,
                "ratio");
  }

  std::vector<double> late;
  for (const RungDetail& d : ladder.rungs) {
    late.insert(late.end(), d.late_ms.begin(), d.late_ms.end());
    const std::string r = std::to_string(static_cast<int>(d.rung.rate_rps));
    report->Set("rung." + r + ".p50_ms", d.rung.p50_ms, "ms");
    report->Set("rung." + r + ".p99_ms", d.served_p99_ms, "ms");
    report->Set("rung." + r + ".failed_frac", FailedFrac(d.rung), "ratio");
  }
  std::sort(late.begin(), late.end());
  report->Set("gen.late_p99_ms", NearestRank(late, 0.99), "ms");
  report->Set("gen.late_max_ms", late.empty() ? 0.0 : late.back(), "ms");
  report->Set("telemetry.trace_overhead_frac",
              ladder.max_rate > 0 ? plain_rate / ladder.max_rate - 1.0 : 0.0,
              "ratio");
  report->Set("max_rate_rps", ladder.max_rate, "1/s");
}

}  // namespace perfbench
