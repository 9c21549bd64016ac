#include <gtest/gtest.h>

#include "telemetry/metric.h"
#include "telemetry/semantic.h"
#include "telemetry/store.h"

namespace ads::telemetry {
namespace {

TEST(RollupTest, MeanPerWindow) {
  std::vector<MetricPoint> pts = {
      {0.0, 1.0}, {1.0, 3.0}, {10.0, 5.0}, {11.0, 7.0}};
  auto out = Rollup(pts, 10.0, Aggregation::kMean);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].time, 0.0);
  EXPECT_DOUBLE_EQ(out[0].value, 2.0);
  EXPECT_DOUBLE_EQ(out[1].time, 10.0);
  EXPECT_DOUBLE_EQ(out[1].value, 6.0);
}

TEST(RollupTest, AllAggregations) {
  std::vector<MetricPoint> pts = {{0.0, 1.0}, {1.0, 5.0}, {2.0, 3.0}};
  EXPECT_DOUBLE_EQ(Rollup(pts, 10.0, Aggregation::kSum)[0].value, 9.0);
  EXPECT_DOUBLE_EQ(Rollup(pts, 10.0, Aggregation::kMax)[0].value, 5.0);
  EXPECT_DOUBLE_EQ(Rollup(pts, 10.0, Aggregation::kMin)[0].value, 1.0);
  EXPECT_DOUBLE_EQ(Rollup(pts, 10.0, Aggregation::kCount)[0].value, 3.0);
  EXPECT_DOUBLE_EQ(Rollup(pts, 10.0, Aggregation::kLast)[0].value, 3.0);
}

TEST(RollupTest, SkipsEmptyWindows) {
  std::vector<MetricPoint> pts = {{0.0, 1.0}, {35.0, 2.0}};
  auto out = Rollup(pts, 10.0, Aggregation::kMean);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[1].time, 30.0);
}

TEST(RollupTest, EmptyInput) {
  EXPECT_TRUE(Rollup({}, 10.0, Aggregation::kMean).empty());
}

TEST(StoreTest, RecordAndQueryRange) {
  TelemetryStore store;
  LabelSet labels{{"machine", "1"}};
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(store.Record("cpu", labels, t, t * 0.1).ok());
  }
  auto pts = store.Query("cpu", labels, 3.0, 7.0);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts[0].time, 3.0);
  EXPECT_DOUBLE_EQ(pts.back().time, 6.0);
  EXPECT_EQ(store.QueryAll("cpu", labels).size(), 10u);
}

TEST(StoreTest, DistinctLabelSetsAreDistinctSeries) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("cpu", {{"m", "1"}}, 0.0, 1.0).ok());
  ASSERT_TRUE(store.Record("cpu", {{"m", "2"}}, 0.0, 2.0).ok());
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.Query("cpu", {{"m", "1"}}, 0.0, 1.0)[0].value, 1.0);
}

TEST(StoreTest, RejectsOutOfOrderSamples) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("cpu", {}, 5.0, 1.0).ok());
  EXPECT_FALSE(store.Record("cpu", {}, 4.0, 1.0).ok());
  // Equal timestamps are allowed.
  EXPECT_TRUE(store.Record("cpu", {}, 5.0, 2.0).ok());
}

TEST(StoreTest, SelectMatchesLabelSubset) {
  TelemetryStore store;
  ASSERT_TRUE(store.Record("cpu", {{"m", "1"}, {"sku", "a"}}, 0.0, 1.0).ok());
  ASSERT_TRUE(store.Record("cpu", {{"m", "2"}, {"sku", "a"}}, 0.0, 2.0).ok());
  ASSERT_TRUE(store.Record("cpu", {{"m", "3"}, {"sku", "b"}}, 0.0, 3.0).ok());
  ASSERT_TRUE(store.Record("mem", {{"m", "1"}, {"sku", "a"}}, 0.0, 4.0).ok());
  auto series = store.Select("cpu", {{"sku", "a"}});
  EXPECT_EQ(series.size(), 2u);
  auto all = store.Select("cpu", {});
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(store.sample_count(), 4u);
}

TEST(SemanticTest, DefaultCatalogResolvesOsCounters) {
  SemanticCatalog cat = SemanticCatalog::Default();
  auto win = cat.Resolve("windows", "\\Processor(_Total)\\% Processor Time");
  auto lin = cat.Resolve("linux", "node_cpu_seconds_total");
  ASSERT_TRUE(win.ok());
  ASSERT_TRUE(lin.ok());
  // The paper's point: same meaning despite different native names.
  EXPECT_EQ(*win, *lin);
  EXPECT_EQ(*win, "system.cpu.utilization");
}

TEST(SemanticTest, UnknownNativeNameFails) {
  SemanticCatalog cat = SemanticCatalog::Default();
  EXPECT_FALSE(cat.Resolve("windows", "\\Bogus\\Counter").ok());
}

TEST(SemanticTest, MapRequiresDefinedCanonical) {
  SemanticCatalog cat;
  EXPECT_FALSE(cat.MapNative("linux", "x", "undefined.metric").ok());
  cat.DefineCanonical("custom.metric", "widgets");
  EXPECT_TRUE(cat.MapNative("linux", "x", "custom.metric").ok());
  auto unit = cat.UnitOf("custom.metric");
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(*unit, "widgets");
}

}  // namespace
}  // namespace ads::telemetry
