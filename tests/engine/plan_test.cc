#include "engine/plan.h"

#include <gtest/gtest.h>

#include "engine/expr.h"
#include "tests/engine/test_world.h"

namespace ads::engine {
namespace {

TEST(CatalogTest, LookupAndGlobalColumns) {
  Catalog catalog = TestCatalog();
  EXPECT_TRUE(catalog.HasTable("orders"));
  EXPECT_FALSE(catalog.HasTable("nope"));
  EXPECT_FALSE(catalog.GetTable("nope").ok());
  auto orders = catalog.GetTable("orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_DOUBLE_EQ(orders->rows, 1e6);
  const ColumnSpec* col = catalog.FindColumnGlobal("c_region");
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->distinct_values, 50u);
  EXPECT_EQ(catalog.FindColumnGlobal("missing"), nullptr);
  EXPECT_EQ(catalog.TableNames().size(), 3u);
}

TEST(ExprTest, UniformSelectivityRange) {
  ColumnSpec col{"x", 0.0, 100.0, 1000, 0.0};
  EXPECT_NEAR(UniformSelectivity(col, CompareOp::kLessEqual, 25.0), 0.25,
              1e-9);
  EXPECT_NEAR(UniformSelectivity(col, CompareOp::kGreater, 25.0), 0.75, 1e-9);
  EXPECT_NEAR(UniformSelectivity(col, CompareOp::kEqual, 25.0), 0.001, 1e-12);
  // Clamping beyond the range.
  EXPECT_NEAR(UniformSelectivity(col, CompareOp::kLessEqual, 500.0), 1.0,
              1e-12);
  EXPECT_NEAR(UniformSelectivity(col, CompareOp::kGreaterEqual, 500.0), 0.001,
              1e-12);
}

TEST(ExprTest, PredicateHashes) {
  Predicate a{"x", CompareOp::kLessEqual, 10.0, 0.5};
  Predicate b{"x", CompareOp::kLessEqual, 20.0, 0.7};
  Predicate c{"y", CompareOp::kLessEqual, 10.0, 0.5};
  // Template hash ignores the literal; strict hash does not.
  EXPECT_EQ(a.TemplateHash(), b.TemplateHash());
  EXPECT_NE(a.StrictHash(), b.StrictHash());
  EXPECT_NE(a.TemplateHash(), c.TemplateHash());
}

TEST(PlanTest, CloneIsDeepAndEqual) {
  Catalog catalog = TestCatalog();
  auto plan = TestJoinAggPlan(catalog);
  auto copy = plan->Clone();
  EXPECT_EQ(plan->StrictSignature(), copy->StrictSignature());
  EXPECT_EQ(plan->NodeCount(), copy->NodeCount());
  // Mutating the copy does not affect the original.
  copy->children[0]->children[0]->predicates[0].value = 999.0;
  EXPECT_NE(plan->StrictSignature(), copy->StrictSignature());
}

TEST(PlanTest, TemplateSignatureIgnoresLiterals) {
  Catalog catalog = TestCatalog();
  auto a = TestJoinAggPlan(catalog);
  auto b = TestJoinAggPlan(catalog);
  b->children[0]->children[0]->predicates[0].value = 555.0;
  EXPECT_NE(a->StrictSignature(), b->StrictSignature());
  EXPECT_EQ(a->TemplateSignature(), b->TemplateSignature());
}

TEST(PlanTest, SignatureDistinguishesStructure) {
  Catalog catalog = TestCatalog();
  auto scan1 = MakeScan(*catalog.FindTable("orders"));
  auto scan2 = MakeScan(*catalog.FindTable("customers"));
  EXPECT_NE(scan1->StrictSignature(), scan2->StrictSignature());
  auto agg = MakeAggregate(MakeScan(*catalog.FindTable("orders")),
                           {{"o_status"}, 0.1, {}});
  EXPECT_NE(scan1->StrictSignature(), agg->StrictSignature());
}

TEST(PlanTest, FilterSignatureIsPredicateOrderInsensitive) {
  Catalog catalog = TestCatalog();
  Predicate p1{"o_price", CompareOp::kLessEqual, 10.0, 0.1};
  Predicate p2{"o_status", CompareOp::kEqual, 3.0, 0.1};
  auto a = MakeFilter(MakeScan(*catalog.FindTable("orders")), {p1, p2});
  auto b = MakeFilter(MakeScan(*catalog.FindTable("orders")), {p2, p1});
  EXPECT_EQ(a->StrictSignature(), b->StrictSignature());
}

TEST(PlanTest, TrueCardinalityComposition) {
  Catalog catalog = TestCatalog();
  auto plan = TestJoinAggPlan(catalog);
  AnnotateTrueCardinality(*plan);
  // Filter: 1e6 * 0.3; Join: 3e5 * 1e4 * 1e-4 = 3e5; Agg: * ratio -> 50.
  const PlanNode& join = *plan->children[0];
  const PlanNode& filter = *join.children[0];
  EXPECT_DOUBLE_EQ(filter.true_card, 3e5);
  EXPECT_DOUBLE_EQ(join.true_card, 3e5);
  EXPECT_NEAR(plan->true_card, 50.0, 1e-6);
}

TEST(PlanTest, TrueCardinalityFloorsAtOne) {
  Catalog catalog = TestCatalog();
  Predicate tiny{"o_price", CompareOp::kEqual, 5.0, 1e-12};
  auto plan = MakeFilter(MakeScan(*catalog.FindTable("orders")), {tiny});
  AnnotateTrueCardinality(*plan);
  EXPECT_DOUBLE_EQ(plan->true_card, 1.0);
}

TEST(PlanTest, NodeCountAndDepth) {
  Catalog catalog = TestCatalog();
  auto plan = TestJoinAggPlan(catalog);
  EXPECT_EQ(plan->NodeCount(), 5u);  // agg, join, filter, scan, scan
  EXPECT_EQ(plan->Depth(), 4);
}

TEST(PlanTest, ToStringMentionsOperators) {
  Catalog catalog = TestCatalog();
  auto plan = TestJoinAggPlan(catalog);
  std::string s = plan->ToString();
  EXPECT_NE(s.find("Aggregate"), std::string::npos);
  EXPECT_NE(s.find("Join"), std::string::npos);
  EXPECT_NE(s.find("Scan(orders)"), std::string::npos);
}

TEST(PlanTest, UnionAndSortBuilders) {
  Catalog catalog = TestCatalog();
  auto u = MakeUnion(MakeScan(*catalog.FindTable("orders")),
                     MakeScan(*catalog.FindTable("customers")));
  AnnotateTrueCardinality(*u);
  EXPECT_DOUBLE_EQ(u->true_card, 1e6 + 1e4);
  auto s = MakeSort(std::move(u), {"o_key"});
  AnnotateTrueCardinality(*s);
  EXPECT_DOUBLE_EQ(s->true_card, 1e6 + 1e4);
}

}  // namespace
}  // namespace ads::engine
