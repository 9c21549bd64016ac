#include "engine/optimizer.h"

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "tests/engine/test_world.h"

namespace ads::engine {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(TestCatalog()), optimizer_(&catalog_) {}

  Catalog catalog_;
  Optimizer optimizer_;
  CostModel cost_;
};

// A messy logical plan: filter above a join above projections.
std::unique_ptr<PlanNode> MessyPlan(const Catalog& catalog) {
  auto orders = MakeProject(MakeScan(*catalog.FindTable("orders")),
                            {"o_cust", "o_price"}, 16.0);
  auto customers = MakeScan(*catalog.FindTable("customers"));
  JoinSpec join{"o_cust", "c_key", 1e-4, JoinStrategy::kShuffleHash};
  auto joined = MakeJoin(std::move(orders), std::move(customers), join);
  Predicate p1{"o_price", CompareOp::kLessEqual, 100.0, 0.3};
  Predicate p2{"c_region", CompareOp::kEqual, 7.0, 0.02};
  auto filtered = MakeFilter(std::move(joined), {p1, p2});
  return MakeAggregate(std::move(filtered), {{"c_region"}, 0.001, {}});
}

TEST_F(OptimizerTest, OptimizedPlanIsCheaper) {
  auto logical = MessyPlan(catalog_);
  auto none = optimizer_.Optimize(*logical, RuleConfig::None());
  auto opt = optimizer_.Optimize(*logical, RuleConfig::Default());
  double cost_none = cost_.PlanCost(*none, CardSource::kTrue);
  double cost_opt = cost_.PlanCost(*opt, CardSource::kTrue);
  EXPECT_LT(cost_opt, cost_none * 0.9);
}

TEST_F(OptimizerTest, PreservesTrueCardinality) {
  auto logical = MessyPlan(catalog_);
  auto none = optimizer_.Optimize(*logical, RuleConfig::None());
  auto opt = optimizer_.Optimize(*logical, RuleConfig::Default());
  EXPECT_NEAR(opt->true_card, none->true_card, none->true_card * 1e-6);
}

TEST_F(OptimizerTest, PushdownsFireUnderDefaultConfig) {
  auto logical = MessyPlan(catalog_);
  auto opt = optimizer_.Optimize(*logical, RuleConfig::Default());
  // The filter above the join must have dissolved into the join inputs.
  EXPECT_NE(opt->op, OpType::kFilter);
  bool filter_below_join = false;
  opt->Visit([&](const PlanNode& n) {
    if (n.op == OpType::kJoin) {
      for (const auto& child : n.children) {
        const PlanNode* c = child.get();
        while (c != nullptr) {
          if (c->op == OpType::kFilter) filter_below_join = true;
          c = c->children.empty() ? nullptr : c->children[0].get();
        }
      }
    }
  });
  EXPECT_TRUE(filter_below_join);
}

TEST_F(OptimizerTest, InputPlanIsNotMutated) {
  auto logical = MessyPlan(catalog_);
  uint64_t sig_before = logical->StrictSignature();
  size_t nodes_before = logical->NodeCount();
  (void)optimizer_.Optimize(*logical, RuleConfig::Default());
  EXPECT_EQ(logical->StrictSignature(), sig_before);
  EXPECT_EQ(logical->NodeCount(), nodes_before);
}

TEST_F(OptimizerTest, ConfigsProduceDifferentPlans) {
  auto logical = MessyPlan(catalog_);
  auto def = optimizer_.Optimize(*logical, RuleConfig::Default());
  auto no_broadcast = optimizer_.Optimize(
      *logical, RuleConfig::Default().With(RuleId::kBroadcastJoin, false));
  bool def_has_broadcast = false;
  def->Visit([&](const PlanNode& n) {
    if (n.op == OpType::kJoin &&
        n.join.strategy == JoinStrategy::kBroadcast) {
      def_has_broadcast = true;
    }
  });
  bool nb_has_broadcast = false;
  no_broadcast->Visit([&](const PlanNode& n) {
    if (n.op == OpType::kJoin &&
        n.join.strategy == JoinStrategy::kBroadcast) {
      nb_has_broadcast = true;
    }
  });
  EXPECT_TRUE(def_has_broadcast);  // customers is small
  EXPECT_FALSE(nb_has_broadcast);
}

TEST_F(OptimizerTest, EstimatesAnnotatedOnAllNodes) {
  auto logical = MessyPlan(catalog_);
  auto opt = optimizer_.Optimize(*logical, RuleConfig::Default());
  opt->Visit([&](const PlanNode& n) {
    EXPECT_GE(n.est_card, 1.0);
    EXPECT_GE(n.true_card, 1.0);
  });
}

TEST_F(OptimizerTest, TerminatesOnPathologicalConfig) {
  // All rules on, applied to a deep plan: must reach a fixpoint within the
  // pass budget and not loop forever.
  auto logical = MessyPlan(catalog_);
  auto plan = optimizer_.Optimize(*logical, RuleConfig::All());
  EXPECT_GE(plan->NodeCount(), 4u);
}

TEST_F(OptimizerTest, OptimizationIsIdempotent) {
  auto logical = MessyPlan(catalog_);
  auto once = optimizer_.Optimize(*logical, RuleConfig::Default());
  auto twice = optimizer_.Optimize(*once, RuleConfig::Default());
  EXPECT_EQ(twice->StrictSignature(), once->StrictSignature());
  EXPECT_NEAR(cost_.PlanCost(*twice, CardSource::kTrue),
              cost_.PlanCost(*once, CardSource::kTrue), 1e-9);
}

TEST_F(OptimizerTest, EndToEndExecutionOfOptimizedPlan) {
  auto logical = MessyPlan(catalog_);
  auto none = optimizer_.Optimize(*logical, RuleConfig::None());
  auto opt = optimizer_.Optimize(*logical, RuleConfig::Default());
  JobSimulator sim;
  StageGraph g_none = CompileToStages(*none, cost_, CardSource::kTrue);
  StageGraph g_opt = CompileToStages(*opt, cost_, CardSource::kTrue);
  JobRun run_none = sim.Execute(g_none, 1);
  JobRun run_opt = sim.Execute(g_opt, 1);
  EXPECT_LT(run_opt.makespan, run_none.makespan);
}

}  // namespace
}  // namespace ads::engine
