// Operator edge cases with concrete expected values (not differential):
// empty join build sides, zero-row aggregation, filter selectivity 0 and
// 1, overflow-adjacent i64 sums where two's-complement wraparound is the
// defined (and reference-matching) behavior, and the sort order of NaN
// and signed-zero keys.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/exec_real.h"
#include "engine/plan.h"
#include "engine/reference_exec.h"
#include "engine/table.h"

namespace ads::engine {
namespace {

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

TableStore MakeStore(std::vector<std::pair<int64_t, int64_t>> fact_rows,
                     std::vector<int64_t> dim_keys) {
  TableStore store;
  Column fk = Column::I64("f_key");
  Column fv = Column::I64("f_val");
  for (const auto& [k, v] : fact_rows) {
    fk.AppendI64(k);
    fv.AppendI64(v);
  }
  ColumnTable fact("fact");
  fact.AddColumn(std::move(fk));
  fact.AddColumn(std::move(fv));
  store.AddTable(std::move(fact));

  Column dk = Column::I64("d_key");
  for (int64_t k : dim_keys) dk.AppendI64(k);
  ColumnTable dim("dim");
  dim.AddColumn(std::move(dk));
  store.AddTable(std::move(dim));
  return store;
}

ColumnTable RunPlan(const TableStore& store, const PlanNode& plan) {
  RealExecutor exec(&store);
  auto result = exec.Execute(plan);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result.value().table);
}

TEST(ExecEdgeCaseTest, JoinWithEmptyBuildSide) {
  TableStore store = MakeStore({{1, 10}, {2, 20}, {3, 30}}, {});
  auto plan = MakeJoin(MakeScan(SpecFor(store, "fact")),
                       MakeScan(SpecFor(store, "dim")),
                       JoinSpec{"f_key", "d_key", 1e-3});
  ColumnTable out = RunPlan(store, *plan);
  EXPECT_EQ(out.num_rows(), 0u);
  // Schema is still left-then-right even with no matches.
  ASSERT_EQ(out.num_columns(), 3u);
  EXPECT_EQ(out.ColumnAt(0).name(), "f_key");
  EXPECT_EQ(out.ColumnAt(1).name(), "f_val");
  EXPECT_EQ(out.ColumnAt(2).name(), "d_key");
}

TEST(ExecEdgeCaseTest, JoinWithEmptyProbeSide) {
  TableStore store = MakeStore({}, {1, 2, 3});
  auto plan = MakeJoin(MakeScan(SpecFor(store, "fact")),
                       MakeScan(SpecFor(store, "dim")),
                       JoinSpec{"f_key", "d_key", 1e-3});
  ColumnTable out = RunPlan(store, *plan);
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(ExecEdgeCaseTest, GlobalAggregateOverZeroRowsYieldsIdentityRow) {
  TableStore store = MakeStore({}, {});
  AggSpec agg;
  agg.aggs = {AggExpr{AggFn::kCount, ""}, AggExpr{AggFn::kSum, "f_val"},
              AggExpr{AggFn::kAvg, "f_val"}, AggExpr{AggFn::kMin, "f_val"},
              AggExpr{AggFn::kMax, "f_val"}};
  auto plan = MakeAggregate(MakeScan(SpecFor(store, "fact")), agg);
  ColumnTable out = RunPlan(store, *plan);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.FindColumn("count_rows")->I64At(0), 0);
  EXPECT_EQ(out.FindColumn("sum_f_val")->I64At(0), 0);
  EXPECT_EQ(out.FindColumn("avg_f_val")->F64At(0), 0.0);
  EXPECT_EQ(out.FindColumn("min_f_val")->I64At(0), 0);
  EXPECT_EQ(out.FindColumn("max_f_val")->I64At(0), 0);
}

TEST(ExecEdgeCaseTest, GroupedAggregateOverZeroRowsYieldsNoRows) {
  TableStore store = MakeStore({}, {});
  AggSpec agg;
  agg.group_keys = {"f_key"};
  agg.aggs = {AggExpr{AggFn::kCount, ""}};
  auto plan = MakeAggregate(MakeScan(SpecFor(store, "fact")), agg);
  ColumnTable out = RunPlan(store, *plan);
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(ExecEdgeCaseTest, FilterSelectivityZeroAndOne) {
  TableStore store = MakeStore({{1, 10}, {2, 20}, {3, 30}, {4, 40}}, {});
  const TableSpec spec = SpecFor(store, "fact");
  {
    Predicate p;
    p.column = "f_val";
    p.op = CompareOp::kGreater;
    p.value = 1000.0;  // nothing matches
    ColumnTable out = RunPlan(store, *MakeFilter(MakeScan(spec), {p}));
    EXPECT_EQ(out.num_rows(), 0u);
    EXPECT_EQ(out.num_columns(), 2u);
  }
  {
    Predicate p;
    p.column = "f_val";
    p.op = CompareOp::kGreaterEqual;
    p.value = -1000.0;  // everything matches
    ColumnTable out = RunPlan(store, *MakeFilter(MakeScan(spec), {p}));
    EXPECT_EQ(out.num_rows(), 4u);
    EXPECT_TRUE(out.BitwiseEquals(*store.FindTable("fact")));
  }
}

TEST(ExecEdgeCaseTest, OverflowAdjacentSumsMatchReference) {
  // Two values near INT64_MAX/2: the pairwise sum is fine but adding a
  // third wraps. Wraparound is well-defined for the executor's unsigned-
  // congruent accumulation and must match the reference bit for bit.
  const int64_t big = std::numeric_limits<int64_t>::max() / 2;
  TableStore store = MakeStore({{1, big}, {1, big}, {1, big}}, {});
  AggSpec agg;
  agg.group_keys = {"f_key"};
  agg.aggs = {AggExpr{AggFn::kSum, "f_val"}, AggExpr{AggFn::kAvg, "f_val"}};
  auto plan = MakeAggregate(MakeScan(SpecFor(store, "fact")), agg);

  ColumnTable vectorized = RunPlan(store, *plan);
  ReferenceExecutor reference(&store);
  auto oracle = reference.Execute(*plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_TRUE(vectorized.BitwiseEquals(oracle.value()))
      << "vectorized:\n" << vectorized.Serialize()
      << "reference:\n" << oracle->Serialize();
  ASSERT_EQ(vectorized.num_rows(), 1u);
  // 3 * (MAX/2) wraps to MAX/2 + MAX/2 + MAX/2 - 2^64 exactly.
  const uint64_t expected =
      static_cast<uint64_t>(big) * 3ull;  // mod 2^64 by definition
  EXPECT_EQ(
      static_cast<uint64_t>(vectorized.FindColumn("sum_f_val")->I64At(0)),
      expected);
}

TEST(ExecEdgeCaseTest, SortPutsNanLastAndKeepsTiesInInputOrder) {
  // f64 sort keys follow one total order: numbers ascending, NaN after
  // every number; NaNs tie, and so do -0.0 and +0.0, so ties keep their
  // input order. Both executors, on both pools, return the same bits.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> keys = {3, nan, 1, 9, 8, nan, 2, 7, 0, 6, -0.0};
  Column key = Column::F64("x");
  Column id = Column::I64("id");
  for (size_t i = 0; i < keys.size(); ++i) {
    key.AppendF64(keys[i]);
    id.AppendI64(static_cast<int64_t>(i));
  }
  ColumnTable table("t");
  table.AddColumn(std::move(key));
  table.AddColumn(std::move(id));
  TableStore store;
  store.AddTable(std::move(table));
  auto plan = MakeSort(MakeScan(SpecFor(store, "t")), {"x"});

  ReferenceExecutor reference(&store);
  auto oracle = reference.Execute(*plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const std::vector<int64_t> want_ids = {8, 10, 2, 6, 0, 9, 7, 4, 3, 1, 5};
  ASSERT_EQ(oracle->num_rows(), want_ids.size());
  for (size_t r = 0; r < want_ids.size(); ++r) {
    EXPECT_EQ(oracle->FindColumn("id")->I64At(r), want_ids[r]) << "row " << r;
  }
  for (common::ThreadPool* pool :
       {&common::ThreadPool::Serial(), &common::ThreadPool::Global()}) {
    RealExecOptions options;
    options.pool = pool;
    auto vectorized = RealExecutor(&store, options).Execute(*plan);
    ASSERT_TRUE(vectorized.ok()) << vectorized.status();
    EXPECT_TRUE(vectorized->table.BitwiseEquals(oracle.value()))
        << "vectorized:\n" << vectorized->table.Serialize()
        << "reference:\n" << oracle->Serialize();
  }
}

TEST(ExecEdgeCaseTest, UnsupportedShapesFailCleanly) {
  TableStore store = MakeStore({{1, 10}}, {1});
  RealExecutor exec(&store);
  // Scan of a table the store does not hold (e.g. the optimizer's
  // "<empty>" relation from ContradictionToEmpty).
  PlanNode missing;
  missing.op = OpType::kScan;
  missing.table = "<empty>";
  auto result = exec.Execute(missing);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kNotFound);
}

}  // namespace
}  // namespace ads::engine
