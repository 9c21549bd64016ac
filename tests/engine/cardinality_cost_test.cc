#include <gtest/gtest.h>

#include "engine/cardinality.h"
#include "engine/cost.h"
#include "tests/engine/test_world.h"

namespace ads::engine {
namespace {

TEST(EstimatorTest, ScanEstimateIsRowCount) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  auto scan = MakeScan(*catalog.FindTable("orders"));
  est.Annotate(*scan);
  EXPECT_DOUBLE_EQ(scan->est_card, 1e6);
}

TEST(EstimatorTest, FilterUsesUniformityNotTruth) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  // o_price <= 100 with range [0,1000]: uniform estimate 10%, truth 30%
  // (the column is skewed toward small values).
  Predicate p{"o_price", CompareOp::kLessEqual, 100.0, 0.3};
  auto plan = MakeFilter(MakeScan(*catalog.FindTable("orders")), {p});
  est.Annotate(*plan);
  AnnotateTrueCardinality(*plan);
  EXPECT_NEAR(plan->est_card, 1e5, 1.0);
  EXPECT_NEAR(plan->true_card, 3e5, 1.0);
}

TEST(EstimatorTest, ConjunctionAssumesIndependence) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  // Two correlated predicates (both truly 0.5, jointly 0.5 in truth but
  // 0.25 under independence).
  Predicate a{"l_qty", CompareOp::kLessEqual, 25.0, 0.5};
  Predicate b{"l_ship", CompareOp::kLessEqual, 182.5, 1.0};  // correlated
  auto plan = MakeFilter(MakeScan(*catalog.FindTable("lineitems")), {a, b});
  est.Annotate(*plan);
  AnnotateTrueCardinality(*plan);
  EXPECT_NEAR(plan->est_card, 6e6 * 0.5 * 0.5, 1e3);
  EXPECT_NEAR(plan->true_card, 6e6 * 0.5, 1e3);
}

TEST(EstimatorTest, JoinUsesNdvHeuristic) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  auto plan = TestJoinAggPlan(catalog);
  est.Annotate(*plan);
  const PlanNode& join = *plan->children[0];
  // est = est(filter) * 1e4 / max(ndv(o_cust)=1e4, ndv(c_key)=1e4).
  EXPECT_NEAR(join.est_card, join.children[0]->est_card, 1.0);
}

TEST(EstimatorTest, AggregateCapsAtKeyNdv) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  auto plan = MakeAggregate(MakeScan(*catalog.FindTable("orders")),
                            {{"o_status"}, 0.001, {}});
  est.Annotate(*plan);
  EXPECT_DOUBLE_EQ(plan->est_card, 10.0);  // ndv of o_status
}

TEST(EstimatorTest, UnknownColumnFallsBackToMagicConstant) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  Predicate p{"mystery", CompareOp::kLessEqual, 1.0, 0.5};
  auto plan = MakeFilter(MakeScan(*catalog.FindTable("orders")), {p});
  est.Annotate(*plan);
  EXPECT_NEAR(plan->est_card, 1e5, 1.0);
}

class ConstantProvider : public CardinalityProvider {
 public:
  explicit ConstantProvider(OpType op, double value) : op_(op), value_(value) {}
  std::optional<double> Estimate(const PlanNode& node) const override {
    if (node.op == op_) return value_;
    return std::nullopt;
  }

 private:
  OpType op_;
  double value_;
};

TEST(EstimatorTest, ProviderOverridesPerNode) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  ConstantProvider provider(OpType::kFilter, 12345.0);
  est.SetProvider(&provider);
  Predicate p{"o_price", CompareOp::kLessEqual, 100.0, 0.3};
  auto plan = MakeFilter(MakeScan(*catalog.FindTable("orders")), {p});
  est.Annotate(*plan);
  EXPECT_DOUBLE_EQ(plan->est_card, 12345.0);
  // The scan below was NOT overridden.
  EXPECT_DOUBLE_EQ(plan->children[0]->est_card, 1e6);
}

TEST(CostTest, ScanCostScalesWithWidth) {
  Catalog catalog = TestCatalog();
  CostModel cost;
  auto wide = MakeScan(*catalog.FindTable("orders"));
  auto narrow = MakeScan(*catalog.FindTable("orders"));
  narrow->row_width = 10.0;
  wide->est_card = narrow->est_card = 1e6;
  EXPECT_GT(cost.NodeCost(*wide, CardSource::kEstimated),
            cost.NodeCost(*narrow, CardSource::kEstimated));
}

TEST(CostTest, BroadcastCheaperOnlyForSmallBuildSide) {
  Catalog catalog = TestCatalog();
  CostModel cost;
  auto make_join = [&](double build_rows, JoinStrategy strategy) {
    auto big = MakeScan(*catalog.FindTable("lineitems"));
    auto small = MakeScan(*catalog.FindTable("customers"));
    big->est_card = 6e6;
    small->est_card = build_rows;
    JoinSpec spec;
    spec.left_key = "l_order";
    spec.right_key = "c_key";
    spec.strategy = strategy;
    auto j = MakeJoin(std::move(big), std::move(small), spec);
    j->est_card = 6e6;
    return j;
  };
  // Tiny build side: broadcast wins.
  auto b_small = make_join(100, JoinStrategy::kBroadcast);
  auto s_small = make_join(100, JoinStrategy::kShuffleHash);
  EXPECT_LT(cost.NodeCost(*b_small, CardSource::kEstimated),
            cost.NodeCost(*s_small, CardSource::kEstimated));
  // Large build side: broadcast loses badly.
  auto b_large = make_join(3e6, JoinStrategy::kBroadcast);
  auto s_large = make_join(3e6, JoinStrategy::kShuffleHash);
  EXPECT_GT(cost.NodeCost(*b_large, CardSource::kEstimated),
            cost.NodeCost(*s_large, CardSource::kEstimated));
}

TEST(CostTest, PlanCostSumsTree) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  CostModel cost;
  auto plan = TestJoinAggPlan(catalog);
  est.Annotate(*plan);
  double total = cost.PlanCost(*plan, CardSource::kEstimated);
  double sum = 0.0;
  plan->Visit([&](const PlanNode& n) {
    sum += cost.NodeCost(n, CardSource::kEstimated);
  });
  EXPECT_NEAR(total, sum, 1e-9);
}

class FixedCostProvider : public CostProvider {
 public:
  std::optional<double> Cost(const PlanNode& node) const override {
    if (node.op == OpType::kAggregate) return 42.0;
    return std::nullopt;
  }
};

TEST(CostTest, ProviderOverridesSubtree) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  CostModel cost;
  FixedCostProvider provider;
  cost.SetProvider(&provider);
  auto plan = TestJoinAggPlan(catalog);  // root is the aggregate
  est.Annotate(*plan);
  EXPECT_DOUBLE_EQ(cost.PlanCost(*plan, CardSource::kEstimated), 42.0);
  // True-cost queries bypass the learned provider.
  AnnotateTrueCardinality(*plan);
  EXPECT_NE(cost.PlanCost(*plan, CardSource::kTrue), 42.0);
}

TEST(CostTest, TrueVsEstimatedCostDiverge) {
  Catalog catalog = TestCatalog();
  DefaultCardinalityEstimator est(&catalog);
  CostModel cost;
  auto plan = TestJoinAggPlan(catalog);
  est.Annotate(*plan);
  AnnotateTrueCardinality(*plan);
  // The skewed filter misestimate (1e5 vs 3e5) propagates into cost.
  EXPECT_LT(cost.PlanCost(*plan, CardSource::kEstimated),
            cost.PlanCost(*plan, CardSource::kTrue));
}

}  // namespace
}  // namespace ads::engine
