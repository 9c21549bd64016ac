// Allocation regression test for the late-materializing RealExecutor.
// Operators hand on views (column pointers plus row indexes), so one
// Execute allocates selections, composed indexes, hash tables and
// the small aggregate outputs — never a copy of a scanned column. A
// counting global operator new measures the bytes one Execute asks for,
// so a per-operator copy of the input sneaking back in fails here.
//
// Bound: at generator knob 1 (~60k lineitem rows, TPC-H SF ~0.01) one
// Execute of any template allocates under 50% of lineitem's column bytes,
// and the filter-heavy q6 under 5%. A copy-per-operator executor needs
// 100-300%.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/rules.h"
#include "engine/table.h"
#include "workload/tpch_gen.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_bytes{0};

void Count(size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

}  // namespace

// Every form is replaced, nothrow included: std::stable_sort's temporary
// buffer comes from nothrow new and goes back through plain delete, so
// all allocations must share one allocator (malloc/aligned_alloc).
//
// GCC flags free() on new'ed pointers without seeing that these
// replacements allocate via malloc/aligned_alloc, so free IS the matching
// deallocator here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {

void* Allocate(size_t n) {
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* AllocateAligned(size_t n, std::align_val_t align) {
  Count(n);
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

namespace ads::engine {
namespace {

/// Bytes requested from operator new by one Execute of `plan`.
size_t ExecuteBytes(const RealExecutor& executor, const PlanNode& plan) {
  g_bytes.store(0);
  g_counting.store(true);
  auto result = executor.Execute(plan);
  g_counting.store(false);
  EXPECT_TRUE(result.ok()) << result.status();
  return g_bytes.load();
}

TEST(ExecAllocTest, OneExecuteAllocatesAFractionOfLineitem) {
  workload::TpchGenOptions opts;
  opts.scale_factor = 1.0;
  opts.seed = 42;
  workload::TpchGenerator gen(opts);
  const ColumnTable* lineitem = gen.store().FindTable("lineitem");
  ASSERT_NE(lineitem, nullptr);
  size_t lineitem_bytes = 0;
  for (const Column& c : lineitem->columns()) lineitem_bytes += 8 * c.size();
  ASSERT_GT(lineitem_bytes, 3'000'000u);

  Optimizer optimizer(&gen.catalog());
  RealExecutor executor(&gen.store());
  for (const std::string& name : gen.QueryNames()) {
    auto logical = gen.MakeQuery(name);
    ASSERT_TRUE(logical.ok()) << logical.status();
    auto optimized =
        optimizer.Optimize(*logical.value(), RuleConfig::Default());
    ASSERT_NE(optimized, nullptr);
    const double bound = name == "q6_forecast_revenue" ? 0.05 : 0.50;
    for (const auto& [label, plan] :
         {std::pair<const char*, const PlanNode*>{"logical",
                                                  logical.value().get()},
          {"optimized", optimized.get()}}) {
      SCOPED_TRACE(name + " (" + label + ")");
      // Warm-up: the global pool and any first-use state are not the
      // executor's per-query cost.
      ASSERT_TRUE(executor.Execute(*plan).ok());
      const double share =
          static_cast<double>(ExecuteBytes(executor, *plan)) /
          static_cast<double>(lineitem_bytes);
      std::printf("%-22s %-9s allocates %6.2f%% of lineitem bytes\n",
                  name.c_str(), label, 100.0 * share);
      EXPECT_LT(share, bound);
    }
  }
}

}  // namespace
}  // namespace ads::engine
