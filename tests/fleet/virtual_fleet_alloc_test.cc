// Allocation regression test for VirtualFleet::Run(). Every event of a
// run captures only (this, index), which fits std::function's inline
// buffer, and the arrivals, in-flight batches, batcher queues, flights and
// serving scratch all live in storage the fleet reuses, so once warm a run
// allocates nothing per request. A counting global operator new counts the
// allocations made inside Run(); a per-request allocation sneaking back in
// (a callback capturing a batch, a fresh vector per served batch, a map
// node per flight) costs at least one per request and fails here.
//
// Bounds, over 20,000 seeded arrivals: at most 0.1 allocations per request
// with hedging off. With hedging on, a flight whose hedge fired has handed
// its copy's feature buffer away, so the next request that reuses it
// allocates one; the bound there is one per request.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autonomy/serving.h"
#include "common/rng.h"
#include "fleet/virtual_fleet.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/types.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void Count() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

// Every form is replaced, nothrow included, so all allocations share one
// allocator (malloc/aligned_alloc) and every one of them is counted.
//
// GCC flags free() on new'ed pointers without seeing that these
// replacements allocate via malloc/aligned_alloc, so free IS the matching
// deallocator here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {

void* Allocate(size_t n) {
  Count();
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(size_t n, std::align_val_t align) {
  Count();
  const auto a = static_cast<size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

void* operator new(size_t n) {
  void* p = Allocate(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) { return ::operator new(n); }
void* operator new(size_t n, std::align_val_t align) {
  void* p = AllocateAligned(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, align);
}
void* operator new[](size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ads::fleet {
namespace {

constexpr double kRate = 2000.0;  // requests per second
constexpr double kDeadline = 0.25;

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

struct RunResult {
  VirtualFleetReport report;
  size_t responses = 0;
  size_t allocations = 0;
};

/// 4 shards x 2 replicas x 2 workers, queue 64, batch 8, linger 2 ms,
/// service 2 ms + 0.5 ms per item, fed `requests` seeded arrivals at
/// kRate, every one submitted before Run(). Counts allocations in Run().
RunResult RunFleet(size_t requests, bool hedging) {
  Backend backend;
  VirtualFleetOptions options;
  options.shards = 4;
  options.replicas_per_shard = 2;
  options.workers_per_replica = 2;
  options.core.queue_capacity = 64;
  options.core.batcher.max_batch_size = 8;
  options.core.batcher.max_linger_seconds = 0.002;
  options.service.batch_overhead_seconds = 0.002;
  options.service.per_item_seconds = 0.0005;
  options.hedge.enabled = hedging;
  VirtualFleet fleet(options);
  fleet.RegisterBackend("m", &backend.server);
  RunResult result;
  fleet.SetResponseCallback(
      [&result](const serve::Response&) { ++result.responses; });

  common::Rng rng(20260419);
  double t = 0.0;
  for (uint64_t id = 0; id < requests; ++id) {
    t += rng.Exponential(kRate);
    serve::Request request;
    request.id = id;
    request.model = "m";
    request.tenant = "tenant-" + std::to_string(rng.UniformInt(0, 49));
    request.features = {rng.Uniform(0.0, 4.0)};
    request.deadline = t + kDeadline;
    fleet.SubmitAt(t, std::move(request));
  }

  g_allocations.store(0);
  g_counting.store(true);
  result.report = fleet.Run();
  g_counting.store(false);
  result.allocations = g_allocations.load();
  return result;
}

TEST(VirtualFleetAllocTest, UnhedgedRunAllocatesNothingPerRequest) {
  constexpr size_t kRequests = 20000;
  const RunResult run = RunFleet(kRequests, /*hedging=*/false);
  EXPECT_EQ(run.report.fleet.submitted, kRequests);
  EXPECT_EQ(run.responses, kRequests);
  EXPECT_GT(run.report.fleet.served, kRequests * 9 / 10);
  const double per_request =
      static_cast<double>(run.allocations) / static_cast<double>(kRequests);
  std::printf("hedging off: %zu allocations in Run(), %.4f per request\n",
              run.allocations, per_request);
  EXPECT_LE(per_request, 0.1);
}

TEST(VirtualFleetAllocTest, HedgedRunAllocatesAtMostOncePerRequest) {
  // Short: until the hedge quantile is incremental, every accepted request
  // re-sorts all served latencies.
  constexpr size_t kRequests = 2000;
  const RunResult run = RunFleet(kRequests, /*hedging=*/true);
  EXPECT_EQ(run.report.fleet.submitted, kRequests);
  EXPECT_EQ(run.responses, kRequests);
  EXPECT_GT(run.report.fleet.hedges_fired, 0u);
  const double per_request =
      static_cast<double>(run.allocations) / static_cast<double>(kRequests);
  std::printf("hedging on: %zu allocations in Run(), %.4f per request, "
              "%llu hedges fired\n",
              run.allocations, per_request,
              static_cast<unsigned long long>(run.report.fleet.hedges_fired));
  EXPECT_LE(per_request, 1.0);
}

}  // namespace
}  // namespace ads::fleet
