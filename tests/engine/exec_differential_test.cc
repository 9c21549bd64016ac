// Differential property test: the vectorized RealExecutor must produce
// output bit-identical to the row-at-a-time ReferenceExecutor on every
// plan — for seeded random tables and plans, for the degenerate shapes
// that break naive kernels (empty tables, all-match and none-match
// predicates, duplicate and Zipf-skewed join keys, single-row groups),
// and for the TPC-H-shaped templates, logical and optimized alike.
//
// The oracle extends to the optimizer: every TPC-H template runs under
// every rule configuration a steering step can reach from the default
// (Default, All, None and each single-rule flip of Default), and each
// optimized plan must match the reference bit for bit and return the same
// rows as the unoptimized plan.
//
// Each comparison runs the vectorized executor twice: once on the shared
// 0-worker Serial pool and once on the Global pool (sized by ADS_THREADS;
// CI runs this binary at ADS_THREADS=1 and 4), so thread-count invariance
// is asserted in the same breath as executor equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/plan.h"
#include "engine/reference_exec.h"
#include "engine/rules.h"
#include "engine/table.h"
#include "workload/tpch_gen.h"

namespace ads::engine {
namespace {

void ExpectExecutorsAgree(const TableStore& store, const PlanNode& plan,
                          const std::string& what) {
  ReferenceExecutor reference(&store);
  auto oracle = reference.Execute(plan);
  ASSERT_TRUE(oracle.ok()) << what << ": reference failed: "
                           << oracle.status();

  RealExecOptions serial_opts;
  serial_opts.pool = &common::ThreadPool::Serial();
  RealExecutor serial_exec(&store, serial_opts);
  auto serial = serial_exec.Execute(plan);
  ASSERT_TRUE(serial.ok()) << what << ": vectorized (serial) failed: "
                           << serial.status();
  EXPECT_TRUE(serial->table.BitwiseEquals(oracle.value()))
      << what << ": vectorized (serial) diverged from reference\n"
      << "reference:\n" << oracle->Serialize()
      << "vectorized:\n" << serial->table.Serialize();

  RealExecOptions global_opts;
  global_opts.pool = &common::ThreadPool::Global();
  RealExecutor global_exec(&store, global_opts);
  auto parallel = global_exec.Execute(plan);
  ASSERT_TRUE(parallel.ok()) << what << ": vectorized (global) failed: "
                             << parallel.status();
  EXPECT_TRUE(parallel->table.BitwiseEquals(oracle.value()))
      << what << ": vectorized (global pool, "
      << common::ThreadPool::Global().worker_count()
      << " workers) diverged from reference\n"
      << "reference:\n" << oracle->Serialize()
      << "vectorized:\n" << parallel->table.Serialize();
}

// A fact/dim pair with seeded sizes, Zipf-skewed duplicate-heavy join
// keys, and value ranges the predicate generator can straddle.
TableStore RandomStore(common::Rng& rng, size_t max_rows) {
  const auto fact_rows =
      static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(max_rows)));
  const auto dim_rows = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(max_rows / 4)));
  const int64_t key_domain = 1 + rng.UniformInt(1, 200);

  TableStore store;
  {
    Column key = Column::I64("f_key");
    Column val = Column::I64("f_val");
    Column score = Column::F64("f_score");
    for (size_t r = 0; r < fact_rows; ++r) {
      key.AppendI64(rng.Zipf(key_domain, 0.9));
      val.AppendI64(rng.UniformInt(-1000, 1000));
      score.AppendF64(rng.Uniform(-1.0, 1.0));
    }
    ColumnTable fact("fact");
    fact.AddColumn(std::move(key));
    fact.AddColumn(std::move(val));
    fact.AddColumn(std::move(score));
    store.AddTable(std::move(fact));
  }
  {
    Column key = Column::I64("d_key");
    Column attr = Column::I64("d_attr");
    for (size_t r = 0; r < dim_rows; ++r) {
      // Duplicates on purpose: several dim rows per key value.
      key.AppendI64(rng.Zipf(key_domain, 0.5));
      attr.AppendI64(rng.UniformInt(0, 7));
    }
    ColumnTable dim("dim");
    dim.AddColumn(std::move(key));
    dim.AddColumn(std::move(attr));
    store.AddTable(std::move(dim));
  }
  return store;
}

TableSpec SpecFor(const TableStore& store, const std::string& name) {
  const ColumnTable* t = store.FindTable(name);
  TableSpec spec;
  spec.name = name;
  spec.rows = static_cast<double>(t->num_rows());
  for (const Column& c : t->columns()) {
    ColumnSpec cs;
    cs.name = c.name();
    spec.columns.push_back(cs);
  }
  return spec;
}

Predicate RandomPredicate(common::Rng& rng, const std::string& column,
                          double lo, double hi) {
  Predicate p;
  p.column = column;
  p.op = static_cast<CompareOp>(rng.UniformInt(0, 4));
  // One draw in five lands outside [lo, hi], giving all-match and
  // none-match selections.
  const double slack = (hi - lo) * 0.5;
  p.value = rng.Uniform(lo - slack, hi + slack);
  return p;
}

TEST(ExecDifferentialTest, RandomPlansAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    TableStore store = RandomStore(rng, 3000);
    const TableSpec fact = SpecFor(store, "fact");
    const TableSpec dim = SpecFor(store, "dim");

    // Filter with 1-3 random predicates (some all-match, some none-match).
    {
      std::vector<Predicate> preds;
      const int64_t n = rng.UniformInt(1, 3);
      for (int64_t i = 0; i < n; ++i) {
        preds.push_back(RandomPredicate(rng, "f_val", -1000.0, 1000.0));
      }
      auto plan = MakeFilter(MakeScan(fact), preds);
      ExpectExecutorsAgree(store, *plan, "filter");
    }

    // Filter on the f64 column.
    {
      auto plan = MakeFilter(
          MakeScan(fact), {RandomPredicate(rng, "f_score", -1.0, 1.0)});
      ExpectExecutorsAgree(store, *plan, "filter f64");
    }

    // Join with duplicate-heavy skewed keys.
    {
      auto plan = MakeJoin(MakeScan(fact), MakeScan(dim),
                           JoinSpec{"f_key", "d_key", 1e-3});
      ExpectExecutorsAgree(store, *plan, "join");
    }

    // Filter -> join -> grouped aggregate with the full palette.
    {
      auto filtered = MakeFilter(
          MakeScan(fact), {RandomPredicate(rng, "f_val", -1000.0, 1000.0)});
      auto joined = MakeJoin(std::move(filtered), MakeScan(dim),
                             JoinSpec{"f_key", "d_key", 1e-3});
      AggSpec agg;
      agg.group_keys = {"d_attr"};
      agg.aggs = {AggExpr{AggFn::kSum, "f_val"},
                  AggExpr{AggFn::kMin, "f_val"},
                  AggExpr{AggFn::kMax, "f_val"},
                  AggExpr{AggFn::kAvg, "f_val"},
                  AggExpr{AggFn::kSum, "f_score"},
                  AggExpr{AggFn::kCount, ""}};
      auto plan = MakeAggregate(std::move(joined), agg);
      ExpectExecutorsAgree(store, *plan, "join+aggregate");
    }

    // Global aggregate (no group keys) over a filtered scan; the filter
    // sometimes selects zero rows, exercising the identity-row rule.
    {
      auto filtered = MakeFilter(
          MakeScan(fact), {RandomPredicate(rng, "f_val", -1000.0, 1000.0)});
      AggSpec agg;
      agg.aggs = {AggExpr{AggFn::kSum, "f_val"},
                  AggExpr{AggFn::kAvg, "f_score"},
                  AggExpr{AggFn::kCount, ""}};
      auto plan = MakeAggregate(std::move(filtered), agg);
      ExpectExecutorsAgree(store, *plan, "global aggregate");
    }

    // Sort (duplicate sort keys exercise stability).
    {
      auto plan = MakeSort(MakeScan(fact), {"f_key", "f_val"});
      ExpectExecutorsAgree(store, *plan, "sort");
    }

    // Union of two filtered scans.
    {
      auto a = MakeFilter(MakeScan(fact),
                          {RandomPredicate(rng, "f_val", -1000.0, 1000.0)});
      auto b = MakeFilter(MakeScan(fact),
                          {RandomPredicate(rng, "f_val", -1000.0, 1000.0)});
      auto plan = MakeUnion(std::move(a), std::move(b));
      ExpectExecutorsAgree(store, *plan, "union");
    }

    // Self-join: both inputs borrow the same stored columns, each read
    // through its own row index; duplicate names resolve to the left.
    {
      auto joined = MakeJoin(
          MakeFilter(MakeScan(dim), {RandomPredicate(rng, "d_attr", 0, 7)}),
          MakeScan(dim), JoinSpec{"d_key", "d_key", 1e-3});
      ExpectExecutorsAgree(store, *joined, "self-join");
      AggSpec agg;
      agg.group_keys = {"d_attr"};
      agg.aggs = {AggExpr{AggFn::kSum, "d_key"}, AggExpr{AggFn::kAvg, "d_key"},
                  AggExpr{AggFn::kCount, ""}};
      auto plan = MakeSort(MakeAggregate(std::move(joined), agg), {"d_attr"});
      ExpectExecutorsAgree(store, *plan, "self-join+aggregate");
    }

    // Two group keys, each read through its own side's composed index:
    // d_attr through the build side's, f_key through the probe side's.
    {
      auto filtered = MakeFilter(
          MakeScan(fact), {RandomPredicate(rng, "f_val", -1000.0, 1000.0)});
      auto joined = MakeJoin(std::move(filtered), MakeScan(dim),
                             JoinSpec{"f_key", "d_key", 1e-3});
      AggSpec agg;
      agg.group_keys = {"d_attr", "f_key"};
      agg.aggs = {AggExpr{AggFn::kSum, "f_val"},
                  AggExpr{AggFn::kAvg, "f_score"},
                  AggExpr{AggFn::kMax, "f_score"},
                  AggExpr{AggFn::kCount, ""}};
      auto plan = MakeAggregate(std::move(joined), agg);
      ExpectExecutorsAgree(store, *plan, "two-key aggregate");
    }
  }
}

TEST(ExecDifferentialTest, EmptyTables) {
  common::Rng rng(99);
  TableStore store = RandomStore(rng, 1);  // 0 or 1 rows per table
  // Force-empty fact table alongside a populated dim.
  ColumnTable fact("fact");
  fact.AddColumn(Column::I64("f_key"));
  fact.AddColumn(Column::I64("f_val"));
  fact.AddColumn(Column::F64("f_score"));
  store.AddTable(std::move(fact));
  const TableSpec fact_spec = SpecFor(store, "fact");
  const TableSpec dim_spec = SpecFor(store, "dim");

  ExpectExecutorsAgree(store, *MakeScan(fact_spec), "empty scan");
  {
    Predicate p;
    p.column = "f_val";
    p.op = CompareOp::kGreater;
    p.value = 0.0;
    auto plan = MakeFilter(MakeScan(fact_spec), {p});
    ExpectExecutorsAgree(store, *plan, "empty filter");
  }
  {
    auto plan = MakeJoin(MakeScan(fact_spec), MakeScan(dim_spec),
                         JoinSpec{"f_key", "d_key", 1e-3});
    ExpectExecutorsAgree(store, *plan, "join with empty probe");
  }
  {
    auto plan = MakeJoin(MakeScan(dim_spec), MakeScan(fact_spec),
                         JoinSpec{"d_key", "f_key", 1e-3});
    ExpectExecutorsAgree(store, *plan, "join with empty build");
  }
  {
    AggSpec agg;
    agg.aggs = {AggExpr{AggFn::kSum, "f_val"}, AggExpr{AggFn::kCount, ""}};
    auto plan = MakeAggregate(MakeScan(fact_spec), agg);
    ExpectExecutorsAgree(store, *plan, "global aggregate over empty");
  }
  {
    AggSpec agg;
    agg.group_keys = {"f_key"};
    agg.aggs = {AggExpr{AggFn::kSum, "f_val"}};
    auto plan = MakeAggregate(MakeScan(fact_spec), agg);
    ExpectExecutorsAgree(store, *plan, "grouped aggregate over empty");
  }
}

TEST(ExecDifferentialTest, SingleRowGroups) {
  // Every f_key unique -> one group per input row.
  TableStore store;
  Column key = Column::I64("f_key");
  Column val = Column::I64("f_val");
  common::Rng rng(7);
  for (int64_t r = 0; r < 500; ++r) {
    key.AppendI64(r * 3 + 1);
    val.AppendI64(rng.UniformInt(-50, 50));
  }
  ColumnTable fact("fact");
  fact.AddColumn(std::move(key));
  fact.AddColumn(std::move(val));
  store.AddTable(std::move(fact));
  const TableSpec spec = SpecFor(store, "fact");

  AggSpec agg;
  agg.group_keys = {"f_key"};
  agg.aggs = {AggExpr{AggFn::kSum, "f_val"}, AggExpr{AggFn::kAvg, "f_val"},
              AggExpr{AggFn::kCount, ""}};
  auto plan = MakeAggregate(MakeScan(spec), agg);
  ExpectExecutorsAgree(store, *plan, "single-row groups");
}

/// The serialized table with its row lines sorted: the answer as a
/// multiset of rows, for comparing plans that may order rows differently.
std::string SortedRows(const ColumnTable& table) {
  std::istringstream in(table.Serialize());
  std::string header;
  std::string schema;
  std::getline(in, header);
  std::getline(in, schema);
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  std::sort(rows.begin(), rows.end());
  std::string out = header + "\n" + schema + "\n";
  for (const std::string& row : rows) out += row + "\n";
  return out;
}

TEST(ExecDifferentialTest, TpchTemplatesLogicalAndOptimized) {
  // Every template as authored, then under every rule configuration one
  // steering step can reach from the default. Knob 0.1 is large enough
  // that lineitem crosses the filter and probe morsel grain, so the
  // parallel chunking runs under every configuration too. Cost-based choices
  // (join commute, where an eager aggregate goes) follow the catalog
  // statistics, which follow the data seed, so two seeds run.
  std::vector<std::pair<std::string, RuleConfig>> configs = {
      {"Default", RuleConfig::Default()},
      {"All", RuleConfig::All()},
      {"None", RuleConfig::None()}};
  for (int r = 0; r < kNumRules; ++r) {
    const auto id = static_cast<RuleId>(r);
    const RuleConfig base = RuleConfig::Default();
    configs.emplace_back(std::string("Default flip ") + RuleName(id),
                         base.With(id, !base.IsEnabled(id)));
  }

  for (uint64_t seed : {11, 13}) {
    workload::TpchGenOptions opts;
    opts.scale_factor = 0.1;
    opts.seed = seed;
    workload::TpchGenerator gen(opts);
    Optimizer optimizer(&gen.catalog());
    ReferenceExecutor reference(&gen.store());
    RealExecutor executor(&gen.store());
    size_t plans = 0;
    for (const std::string& name : gen.QueryNames()) {
      auto logical = gen.MakeQuery(name);
      ASSERT_TRUE(logical.ok()) << logical.status();
      ExpectExecutorsAgree(gen.store(), *logical.value(),
                           name + " (logical, seed " + std::to_string(seed) +
                               ")");
      auto unoptimized = reference.Execute(*logical.value());
      ASSERT_TRUE(unoptimized.ok()) << unoptimized.status();
      const std::string want = SortedRows(unoptimized.value());
      for (const auto& [label, config] : configs) {
        const std::string what =
            name + " under " + label + ", seed " + std::to_string(seed);
        SCOPED_TRACE(what);
        auto plan = optimizer.Optimize(*logical.value(), config);
        ASSERT_NE(plan, nullptr);
        ExpectExecutorsAgree(gen.store(), *plan, what);
        auto got = executor.Execute(*plan);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(SortedRows(got->table), want)
            << what << " returns other rows than the unoptimized plan";
        ++plans;
      }
    }
    EXPECT_EQ(plans, 102u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ads::engine
