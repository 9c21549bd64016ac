#include "serve/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "telemetry/span.h"

namespace ads::serve {
namespace {

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

struct Backend {
  ml::ModelRegistry registry;
  std::unique_ptr<autonomy::ResilientModelServer> server;

  explicit Backend(common::FaultInjector* injector = nullptr) {
    registry.Register("m", BlobWithSlope(2.0));
    registry.Register("m", BlobWithSlope(3.0));
    EXPECT_TRUE(registry.Deploy("m", 1).ok());
    EXPECT_TRUE(registry.Deploy("m", 2).ok());
    server = std::make_unique<autonomy::ResilientModelServer>(
        &registry, "m",
        [](const std::vector<double>& f) { return f.empty() ? 0.0 : f[0]; },
        autonomy::ServingOptions(), injector);
  }
};

Request Req(uint64_t id, double feature) {
  Request r;
  r.id = id;
  r.model = "m";
  r.tenant = "t";
  r.features = {feature};
  return r;
}

TEST(ServingRuntimeTest, ServesSequentialRequests) {
  Backend backend;
  CoreOptions options;
  options.batcher = {.max_batch_size = 4, .max_linger_seconds = 0.001};
  ServingRuntime runtime(options, &common::ThreadPool::Serial());
  runtime.RegisterBackend("m", backend.server.get());
  runtime.Start();
  std::mutex mu;
  std::vector<Response> responses;
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(runtime
                    .Submit(Req(i, 1.0),
                            [&](const Response& r) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses.push_back(r);
                            })
                    .ok());
  }
  runtime.Shutdown();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), 64u);
  for (const Response& r : responses) {
    EXPECT_EQ(r.outcome, Outcome::kServed);
    EXPECT_DOUBLE_EQ(r.value, 3.0);  // deployed v2, slope 3, feature 1
    EXPECT_GE(r.batch_size, 1u);
  }
  ServingStats stats = runtime.Stats();
  EXPECT_EQ(stats.counters.served, 64u);
  EXPECT_EQ(stats.counters.accepted, stats.counters.Finished());
}

TEST(ServingRuntimeTest, BatchSizeOneMatchesDirectBackend) {
  Backend backend;
  CoreOptions options;
  options.batching = false;
  ServingRuntime runtime(options, &common::ThreadPool::Serial());
  runtime.RegisterBackend("m", backend.server.get());
  runtime.Start();
  std::mutex mu;
  std::vector<std::pair<uint64_t, double>> values;
  for (uint64_t i = 0; i < 50; ++i) {
    double feature = 1.0 + 0.01 * static_cast<double>(i);
    ASSERT_TRUE(runtime
                    .Submit(Req(i, feature),
                            [&](const Response& r) {
                              std::lock_guard<std::mutex> lock(mu);
                              values.emplace_back(r.id, r.value);
                            })
                    .ok());
  }
  runtime.Shutdown();
  Backend reference;
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(values.size(), 50u);
  for (const auto& [id, value] : values) {
    double feature = 1.0 + 0.01 * static_cast<double>(id);
    double direct =
        reference.server->Predict({feature}, static_cast<double>(id)).value;
    EXPECT_EQ(value, direct) << "request " << id;  // bit-identical
  }
}

TEST(ServingRuntimeTest, ConcurrentSubmittersDrainWithoutLoss) {
  Backend backend;
  CoreOptions options;
  options.queue_capacity = 128;  // small enough that shedding can engage
  options.batcher = {.max_batch_size = 8, .max_linger_seconds = 0.0005};
  ServingRuntime runtime(options, &common::ThreadPool::Global());
  runtime.RegisterBackend("m", backend.server.get());
  runtime.Start();

  const int kThreads = 4;
  const int kPerThread = 500;
  std::atomic<uint64_t> callbacks{0};
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t id = static_cast<uint64_t>(t) * kPerThread +
                      static_cast<uint64_t>(i);
        Request r = Req(id, 1.0);
        r.priority = t;  // cross-priority traffic exercises shedding
        common::Status s =
            runtime.Submit(std::move(r), [&](const Response&) {
              callbacks.fetch_add(1);
            });
        if (s.ok()) accepted.fetch_add(1);
      }
    });
  }
  for (auto& s : submitters) s.join();
  runtime.Shutdown();

  ServingStats stats = runtime.Stats();
  const Counters& c = stats.counters;
  EXPECT_EQ(c.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(c.accepted, accepted.load());
  // Admission is total...
  EXPECT_EQ(c.submitted, c.accepted + c.Rejected());
  // ...and the drain is lossless: accepted == served + shed, and every
  // single submission produced exactly one callback.
  EXPECT_EQ(c.accepted, c.Finished());
  EXPECT_EQ(callbacks.load(), c.submitted);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(ServingRuntimeTest, TracedConcurrentLoadKeepsCausalityConsistent) {
  // Under the threaded runtime the tracer is thread-safe but not
  // deterministic; this (run under TSan in CI) checks the concurrent
  // path: ids stay unique, every request span closes, and batch spans
  // only ever name admitted requests.
  Backend backend;
  CoreOptions options;
  options.queue_capacity = 64;
  options.batcher = {.max_batch_size = 8, .max_linger_seconds = 0.0005};
  ServingRuntime runtime(options, &common::ThreadPool::Global());
  runtime.RegisterBackend("m", backend.server.get());
  telemetry::Tracer tracer(9);
  runtime.SetTracer(&tracer);
  runtime.Start();

  const int kThreads = 4;
  const int kPerThread = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t id = static_cast<uint64_t>(t) * kPerThread +
                      static_cast<uint64_t>(i);
        (void)runtime.Submit(Req(id, 1.0), nullptr);
      }
    });
  }
  for (auto& s : submitters) s.join();
  runtime.Shutdown();

  EXPECT_EQ(tracer.open_count(), 0u);  // graceful drain closes every span
  ServingStats stats = runtime.Stats();
  size_t request_spans = 0, batch_spans = 0;
  for (const telemetry::Span& span : tracer.Snapshot()) {
    if (span.kind == "request") {
      ++request_spans;
      EXPECT_EQ(span.attributes.count("outcome"), 1u);
    } else if (span.kind == "batch") {
      ++batch_spans;
      EXPECT_EQ(span.attributes.count("requests"), 1u);
    }
  }
  EXPECT_EQ(request_spans, stats.counters.submitted);
  EXPECT_GT(batch_spans, 0u);
}

TEST(ServingRuntimeTest, RateLimitRejectsFastTenant) {
  Backend backend;
  CoreOptions options;
  options.rate_limiting = true;
  options.rate_limit = {.capacity = 10.0, .refill_per_second = 0.0};
  ServingRuntime runtime(options, &common::ThreadPool::Serial());
  runtime.RegisterBackend("m", backend.server.get());
  runtime.Start();
  int ok = 0, rejected = 0;
  for (uint64_t i = 0; i < 25; ++i) {
    common::Status s = runtime.Submit(Req(i, 1.0), nullptr);
    if (s.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(s.code(), common::StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  runtime.Shutdown();
  EXPECT_EQ(ok, 10);
  EXPECT_EQ(rejected, 15);
  ServingStats stats = runtime.Stats();
  EXPECT_EQ(stats.counters.rejected_rate_limit, 15u);
}

TEST(ServingRuntimeTest, SubmitAfterShutdownFailsCleanly) {
  Backend backend;
  ServingRuntime runtime(CoreOptions(), &common::ThreadPool::Serial());
  runtime.RegisterBackend("m", backend.server.get());
  runtime.Start();
  runtime.Shutdown();
  common::Status s = runtime.Submit(Req(1, 1.0), nullptr);
  EXPECT_EQ(s.code(), common::StatusCode::kFailedPrecondition);
}

TEST(ServingRuntimeTest, SubmitRefusesAPendingIdAndAnUnknownModel) {
  Backend backend;
  CoreOptions options;
  // A long linger keeps the first request queued until Shutdown.
  options.batcher = {.max_batch_size = 16, .max_linger_seconds = 10.0};
  ServingRuntime runtime(options, &common::ThreadPool::Serial());
  runtime.RegisterBackend("m", backend.server.get());
  runtime.Start();
  std::mutex mu;
  std::vector<std::pair<int, Response>> heard;  // (caller, response)
  auto caller = [&](int who) {
    return [&, who](const Response& r) {
      std::lock_guard<std::mutex> lock(mu);
      heard.emplace_back(who, r);
    };
  };
  ASSERT_TRUE(runtime.Submit(Req(7, 1.0), caller(1)).ok());
  EXPECT_EQ(runtime.Submit(Req(7, 2.0), caller(2)).code(),
            common::StatusCode::kAlreadyExists);
  Request unknown = Req(8, 1.0);
  unknown.model = "no-such-model";
  EXPECT_EQ(runtime.Submit(unknown, caller(3)).code(),
            common::StatusCode::kNotFound);
  EXPECT_EQ(runtime.Stats().counters.submitted, 1u);
  runtime.Shutdown();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0].first, 1) << "the first caller must hear back";
  EXPECT_EQ(heard[0].second.outcome, Outcome::kServed);
  EXPECT_DOUBLE_EQ(heard[0].second.value, 3.0);
}

TEST(ServingRuntimeTest, AnIdIsFreeAgainOnceAnswered) {
  Backend backend;
  CoreOptions options;
  options.batching = false;
  ServingRuntime runtime(options, &common::ThreadPool::Serial());
  runtime.RegisterBackend("m", backend.server.get());
  runtime.Start();
  std::mutex mu;
  std::condition_variable answered;
  int responses = 0;
  auto callback = [&](const Response&) {
    std::lock_guard<std::mutex> lock(mu);
    ++responses;
    answered.notify_all();
  };
  for (int round = 1; round <= 2; ++round) {
    ASSERT_TRUE(runtime.Submit(Req(7, 1.0), callback).ok());
    std::unique_lock<std::mutex> lock(mu);
    answered.wait(lock, [&]() { return responses == round; });
  }
  runtime.Shutdown();
  EXPECT_EQ(runtime.Stats().counters.served, 2u);
}

TEST(ServingRuntimeTest, GaugeSamplerRecordsPoolAndQueueStats) {
  Backend backend;
  CoreOptions options;
  options.batcher = {.max_batch_size = 4, .max_linger_seconds = 0.0005};
  ServingRuntime runtime(options, &common::ThreadPool::Global());
  runtime.RegisterBackend("m", backend.server.get());
  runtime.Start();
  for (uint64_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(runtime.Submit(Req(i, 1.0), nullptr).ok());
  }
  runtime.Shutdown();
  telemetry::TelemetryStore store;
  runtime.SampleGauges(&store);
  auto executed = store.QueryAll("serve.pool.executed", {});
  ASSERT_EQ(executed.size(), 1u);
  EXPECT_GT(executed[0].value, 0.0);  // batches ran on the pool
  ASSERT_EQ(store.QueryAll("serve.queue_depth", {}).size(), 1u);
  ASSERT_EQ(store.QueryAll("serve.served_total", {})[0].value, 128.0);
  auto p99 = store.Select("serve.latency.p99", {{"model", "m"}});
  ASSERT_EQ(p99.size(), 1u);
  ServingStats stats = runtime.Stats();
  EXPECT_EQ(stats.pool.workers, common::ThreadPool::Global().worker_count());
}

}  // namespace
}  // namespace ads::serve
