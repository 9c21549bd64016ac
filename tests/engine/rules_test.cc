#include "engine/rules.h"

#include <gtest/gtest.h>

#include "engine/cardinality.h"
#include "tests/engine/test_world.h"

namespace ads::engine {
namespace {

class RulesTest : public ::testing::Test {
 protected:
  RulesTest() : catalog_(TestCatalog()), estimator_(&catalog_) {
    ctx_.catalog = &catalog_;
  }

  std::unique_ptr<PlanNode> Apply(RuleId id, std::unique_ptr<PlanNode> plan,
                                  bool* changed) {
    estimator_.Annotate(*plan);
    *changed = false;
    return ApplyRule(id, std::move(plan), ctx_, changed);
  }

  Catalog catalog_;
  DefaultCardinalityEstimator estimator_;
  RuleContext ctx_;
};

TEST_F(RulesTest, FilterMergeCollapsesAdjacentFilters) {
  Predicate p1{"o_price", CompareOp::kLessEqual, 100.0, 0.3};
  Predicate p2{"o_status", CompareOp::kEqual, 1.0, 0.1};
  auto plan = MakeFilter(
      MakeFilter(MakeScan(*catalog_.FindTable("orders")), {p1}), {p2});
  bool changed = false;
  plan = Apply(RuleId::kFilterMerge, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan->op, OpType::kFilter);
  EXPECT_EQ(plan->predicates.size(), 2u);
  EXPECT_EQ(plan->children[0]->op, OpType::kScan);
  // True cardinality is preserved.
  AnnotateTrueCardinality(*plan);
  EXPECT_NEAR(plan->true_card, 1e6 * 0.3 * 0.1, 1.0);
}

TEST_F(RulesTest, FilterPushdownProjectSwapsOrder) {
  Predicate p{"o_price", CompareOp::kLessEqual, 100.0, 0.3};
  auto plan = MakeFilter(
      MakeProject(MakeScan(*catalog_.FindTable("orders")), {"o_price"}, 8.0),
      {p});
  bool changed = false;
  plan = Apply(RuleId::kFilterPushdownProject, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan->op, OpType::kProject);
  EXPECT_EQ(plan->children[0]->op, OpType::kFilter);
}

TEST_F(RulesTest, FilterPushdownJoinRoutesBySide) {
  Predicate left_pred{"o_price", CompareOp::kLessEqual, 100.0, 0.3};
  Predicate right_pred{"c_region", CompareOp::kEqual, 7.0, 0.02};
  JoinSpec join{"o_cust", "c_key", 1e-4, JoinStrategy::kShuffleHash};
  auto plan = MakeFilter(
      MakeJoin(MakeScan(*catalog_.FindTable("orders")),
               MakeScan(*catalog_.FindTable("customers")), join),
      {left_pred, right_pred});
  bool changed = false;
  plan = Apply(RuleId::kFilterPushdownJoin, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  ASSERT_EQ(plan->op, OpType::kJoin);  // filter fully dissolved
  EXPECT_EQ(plan->children[0]->op, OpType::kFilter);
  EXPECT_EQ(plan->children[0]->predicates[0].column, "o_price");
  EXPECT_EQ(plan->children[1]->op, OpType::kFilter);
  EXPECT_EQ(plan->children[1]->predicates[0].column, "c_region");
}

TEST_F(RulesTest, FilterPushdownJoinKeepsUnroutablePredicates) {
  Predicate unknown{"mystery_col", CompareOp::kLessEqual, 1.0, 0.5};
  JoinSpec join{"o_cust", "c_key", 1e-4, JoinStrategy::kShuffleHash};
  auto plan = MakeFilter(
      MakeJoin(MakeScan(*catalog_.FindTable("orders")),
               MakeScan(*catalog_.FindTable("customers")), join),
      {unknown});
  bool changed = false;
  plan = Apply(RuleId::kFilterPushdownJoin, std::move(plan), &changed);
  EXPECT_FALSE(changed);
  EXPECT_EQ(plan->op, OpType::kFilter);
}

TEST_F(RulesTest, FilterPushdownUnionDuplicates) {
  Predicate p{"o_price", CompareOp::kLessEqual, 100.0, 0.3};
  auto plan = MakeFilter(
      MakeUnion(MakeScan(*catalog_.FindTable("orders")),
                MakeScan(*catalog_.FindTable("orders"))),
      {p});
  bool changed = false;
  plan = Apply(RuleId::kFilterPushdownUnion, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  ASSERT_EQ(plan->op, OpType::kUnion);
  EXPECT_EQ(plan->children[0]->op, OpType::kFilter);
  EXPECT_EQ(plan->children[1]->op, OpType::kFilter);
}

TEST_F(RulesTest, FilterPushdownAggregateOnlyForGroupKeys) {
  Predicate on_key{"o_status", CompareOp::kEqual, 3.0, 0.1};
  Predicate not_key{"o_price", CompareOp::kLessEqual, 10.0, 0.05};
  auto plan = MakeFilter(
      MakeAggregate(MakeScan(*catalog_.FindTable("orders")),
                    {{"o_status"}, 0.00001, {}}),
      {on_key, not_key});
  bool changed = false;
  plan = Apply(RuleId::kFilterPushdownAggregate, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  ASSERT_EQ(plan->op, OpType::kFilter);  // non-key predicate stays above
  EXPECT_EQ(plan->predicates.size(), 1u);
  EXPECT_EQ(plan->predicates[0].column, "o_price");
  const PlanNode& agg = *plan->children[0];
  ASSERT_EQ(agg.op, OpType::kAggregate);
  EXPECT_EQ(agg.children[0]->op, OpType::kFilter);
  EXPECT_EQ(agg.children[0]->predicates[0].column, "o_status");
}

TEST_F(RulesTest, PredicateSimplifyDropsAlwaysTrue) {
  Predicate trivial{"o_price", CompareOp::kLessEqual, 5000.0, 1.0};  // max 1000
  Predicate real{"o_price", CompareOp::kLessEqual, 100.0, 0.3};
  auto plan = MakeFilter(MakeScan(*catalog_.FindTable("orders")),
                         {trivial, real});
  bool changed = false;
  plan = Apply(RuleId::kPredicateSimplify, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  ASSERT_EQ(plan->op, OpType::kFilter);
  EXPECT_EQ(plan->predicates.size(), 1u);
  // A filter left with no predicates dissolves entirely.
  Predicate only_trivial{"o_price", CompareOp::kLessEqual, 5000.0, 1.0};
  auto plan2 = MakeFilter(MakeScan(*catalog_.FindTable("orders")),
                          {only_trivial});
  changed = false;
  plan2 = Apply(RuleId::kPredicateSimplify, std::move(plan2), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan2->op, OpType::kScan);
}

TEST_F(RulesTest, ContradictionBecomesEmptyRelation) {
  Predicate upper{"o_price", CompareOp::kLessEqual, 10.0, 0.01};
  Predicate lower{"o_price", CompareOp::kGreaterEqual, 500.0, 0.5};
  auto plan = MakeFilter(MakeScan(*catalog_.FindTable("orders")),
                         {upper, lower});
  bool changed = false;
  plan = Apply(RuleId::kContradictionToEmpty, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan->op, OpType::kScan);
  EXPECT_EQ(plan->table, "<empty>");
  EXPECT_DOUBLE_EQ(plan->table_rows, 1.0);
}

TEST_F(RulesTest, ProjectMergeKeepsOuter) {
  auto plan = MakeProject(
      MakeProject(MakeScan(*catalog_.FindTable("orders")),
                  {"o_price", "o_status"}, 16.0),
      {"o_price"}, 8.0);
  bool changed = false;
  plan = Apply(RuleId::kProjectMerge, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan->op, OpType::kProject);
  EXPECT_DOUBLE_EQ(plan->row_width, 8.0);
  EXPECT_EQ(plan->children[0]->op, OpType::kScan);
}

TEST_F(RulesTest, ProjectIntoScanNarrowsScan) {
  auto plan = MakeProject(MakeScan(*catalog_.FindTable("orders")),
                          {"o_price"}, 8.0);
  bool changed = false;
  plan = Apply(RuleId::kProjectIntoScan, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan->op, OpType::kScan);
  EXPECT_DOUBLE_EQ(plan->row_width, 8.0);
}

TEST_F(RulesTest, SortEliminationUnderAggregate) {
  auto plan = MakeAggregate(
      MakeSort(MakeScan(*catalog_.FindTable("orders")), {"o_key"}),
      {{"o_status"}, 0.1, {}});
  bool changed = false;
  plan = Apply(RuleId::kSortElimination, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan->children[0]->op, OpType::kScan);
}

TEST_F(RulesTest, JoinCommutePutsSmallerOnBuildSide) {
  JoinSpec join{"o_cust", "c_key", 1e-4, JoinStrategy::kShuffleHash};
  // orders (1e6) on the right = build side is huge; commute should swap.
  auto plan = MakeJoin(MakeScan(*catalog_.FindTable("customers")),
                       MakeScan(*catalog_.FindTable("orders")), join);
  bool changed = false;
  plan = Apply(RuleId::kJoinCommute, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan->children[0]->table, "orders");
  EXPECT_EQ(plan->children[1]->table, "customers");
  EXPECT_EQ(plan->join.left_key, "c_key");  // keys swapped with sides
  // Re-applying is a fixpoint.
  changed = false;
  plan = Apply(RuleId::kJoinCommute, std::move(plan), &changed);
  EXPECT_FALSE(changed);
}

TEST_F(RulesTest, BroadcastJoinForSmallBuildSide) {
  JoinSpec join{"o_cust", "c_key", 1e-4, JoinStrategy::kShuffleHash};
  auto plan = MakeJoin(MakeScan(*catalog_.FindTable("orders")),
                       MakeScan(*catalog_.FindTable("customers")), join);
  // customers: 1e4 rows * 100 B = 1e6 B < 5e6 threshold.
  bool changed = false;
  plan = Apply(RuleId::kBroadcastJoin, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan->join.strategy, JoinStrategy::kBroadcast);
  // Large build side flips back.
  JoinSpec join2{"l_order", "o_key", 1e-6, JoinStrategy::kBroadcast};
  auto plan2 = MakeJoin(MakeScan(*catalog_.FindTable("lineitems")),
                        MakeScan(*catalog_.FindTable("orders")), join2);
  changed = false;
  plan2 = Apply(RuleId::kBroadcastJoin, std::move(plan2), &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(plan2->join.strategy, JoinStrategy::kShuffleHash);
}

TEST_F(RulesTest, JoinAssociativityReordersWhenBeneficial) {
  // (lineitems ⋈ orders) ⋈ customers, where the outer join key l_order is
  // in the A (lineitems) subtree... use keys so that A⋈C is much smaller.
  JoinSpec j1{"l_order", "o_key", 1e-6, JoinStrategy::kShuffleHash};
  JoinSpec j2{"l_qty", "c_key", 1e-7, JoinStrategy::kShuffleHash};
  auto inner = MakeJoin(MakeScan(*catalog_.FindTable("lineitems")),
                        MakeScan(*catalog_.FindTable("orders")), j1);
  auto plan = MakeJoin(std::move(inner),
                       MakeScan(*catalog_.FindTable("customers")), j2);
  bool changed = false;
  plan = Apply(RuleId::kJoinAssociativity, std::move(plan), &changed);
  if (changed) {
    // New shape: (lineitems ⋈ customers) ⋈ orders.
    EXPECT_EQ(plan->join.left_key, "l_order");
    EXPECT_EQ(plan->children[0]->op, OpType::kJoin);
    EXPECT_EQ(plan->children[0]->children[1]->table, "customers");
  }
  // Semantics: true cardinality is invariant under reassociation.
  auto reference = MakeJoin(
      MakeJoin(MakeScan(*catalog_.FindTable("lineitems")),
               MakeScan(*catalog_.FindTable("orders")), j1),
      MakeScan(*catalog_.FindTable("customers")), j2);
  AnnotateTrueCardinality(*plan);
  AnnotateTrueCardinality(*reference);
  EXPECT_NEAR(plan->true_card, reference->true_card,
              reference->true_card * 1e-9);
}

TEST_F(RulesTest, EagerAggregationInsertsPartialAgg) {
  JoinSpec join{"o_cust", "c_key", 1e-4, JoinStrategy::kShuffleHash};
  auto plan = MakeAggregate(
      MakeJoin(MakeScan(*catalog_.FindTable("orders")),
               MakeScan(*catalog_.FindTable("customers")), join),
      {{"o_status"}, 0.01, {}});
  bool changed = false;
  plan = Apply(RuleId::kEagerAggregation, std::move(plan), &changed);
  EXPECT_TRUE(changed);
  const PlanNode& join_node = *plan->children[0];
  ASSERT_EQ(join_node.children[0]->op, OpType::kAggregate);
  // Partial agg groups by the original keys plus the join key.
  EXPECT_EQ(join_node.children[0]->agg.group_keys.size(), 2u);
  // Idempotent: does not stack partial aggregates.
  changed = false;
  plan = Apply(RuleId::kEagerAggregation, std::move(plan), &changed);
  EXPECT_FALSE(changed);
}

TEST(RuleConfigTest, DefaultsAndDistance) {
  RuleConfig all = RuleConfig::All();
  RuleConfig def = RuleConfig::Default();
  RuleConfig none = RuleConfig::None();
  EXPECT_EQ(all.enabled.count(), static_cast<size_t>(kNumRules));
  EXPECT_EQ(none.enabled.count(), 0u);
  EXPECT_EQ(def.Distance(all), 2);  // the two risky rules are off
  EXPECT_FALSE(def.IsEnabled(RuleId::kEagerAggregation));
  EXPECT_TRUE(def.IsEnabled(RuleId::kFilterMerge));
  RuleConfig tweaked = def.With(RuleId::kEagerAggregation, true);
  EXPECT_EQ(def.Distance(tweaked), 1);
  EXPECT_EQ(def.Neighbors().size(), static_cast<size_t>(kNumRules));
}

}  // namespace
}  // namespace ads::engine
