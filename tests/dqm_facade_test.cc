#include "core/dqm.h"

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.h"
#include "core/scenario.h"
#include "estimators/registry.h"

namespace dqm::core {
namespace {

/// The paper's estimator panel, one spec per estimator.
const char* const kPanelSpecs[] = {"switch", "chao92",  "good-turing",
                                   "vchao92", "voting", "nominal"};

std::string DisplayNameOf(const char* spec) {
  return estimators::EstimatorRegistry::Global().Find(spec).value()
      ->display_name;
}

TEST(DataQualityMetricTest, FreshMetricIsPristine) {
  DataQualityMetric metric(100);
  EXPECT_EQ(metric.num_items(), 100u);
  EXPECT_EQ(metric.num_votes(), 0u);
  EXPECT_DOUBLE_EQ(metric.EstimatedTotalErrors(), 0.0);
  EXPECT_DOUBLE_EQ(metric.EstimatedUndetectedErrors(), 0.0);
  EXPECT_DOUBLE_EQ(metric.QualityScore(), 1.0);
  EXPECT_EQ(metric.method_name(), "SWITCH");
}

TEST(DataQualityMetricTest, VotesFlowThrough) {
  DataQualityMetric metric(10);
  metric.AddVote(0, 0, 3, true);
  metric.AddVote(0, 0, 4, false);
  EXPECT_EQ(metric.num_votes(), 2u);
  EXPECT_EQ(metric.NominalCount(), 1u);
  EXPECT_EQ(metric.MajorityCount(), 1u);
  EXPECT_EQ(metric.log().positive_votes(3), 1u);
}

TEST(DataQualityMetricTest, MethodSelection) {
  for (const char* spec : kPanelSpecs) {
    DataQualityMetric metric = DataQualityMetric::Create(10, {spec}).value();
    EXPECT_EQ(metric.method_name(), DisplayNameOf(spec));
    EXPECT_EQ(metric.specs(), std::vector<std::string>{spec});
  }
}

TEST(DataQualityMetricTest, QuickstartConstructorIsTheSwitchSpec) {
  DataQualityMetric metric(10);
  EXPECT_EQ(metric.specs(), std::vector<std::string>{"switch"});
  EXPECT_EQ(metric.log().retention(), crowd::RetentionPolicy::kTallies);
}

TEST(DataQualityMetricTest, LogRetainsPairCountsOnlyForPanelsThatReadThem) {
  const estimators::EstimatorRegistry& registry =
      estimators::EstimatorRegistry::Global();
  for (const std::string& name : registry.Names()) {
    DataQualityMetric metric = DataQualityMetric::Create(10, {name}).value();
    EXPECT_EQ(metric.log().retention(),
              registry.Find(name).value()->wants_pair_counts
                  ? crowd::RetentionPolicy::kCounts
                  : crowd::RetentionPolicy::kTallies)
        << name;
  }
  DataQualityMetric mixed =
      DataQualityMetric::Create(10, "switch,em-voting").value();
  EXPECT_EQ(mixed.log().retention(), crowd::RetentionPolicy::kCounts);
}

TEST(DataQualityMetricTest, UndetectedIsTotalMinusMajority) {
  DataQualityMetric metric = DataQualityMetric::Create(50, {"chao92"}).value();
  // Ten singleton dirty items: Chao92 extrapolates beyond the majority.
  for (uint32_t i = 0; i < 10; ++i) {
    metric.AddVote(i, i, i, true);
  }
  double undetected = metric.EstimatedUndetectedErrors();
  EXPECT_NEAR(undetected,
              metric.EstimatedTotalErrors() -
                  static_cast<double>(metric.MajorityCount()),
              1e-9);
  EXPECT_GE(undetected, 0.0);
}

TEST(DataQualityMetricTest, QualityScoreInUnitRange) {
  Scenario scenario = SimulationScenario(0.02, 0.2, 10);
  SimulatedRun run = SimulateScenario(scenario, 100, 3);
  DataQualityMetric metric(scenario.num_items);
  for (const crowd::VoteEvent& event : run.log.events()) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
    double quality = metric.QualityScore();
    ASSERT_GE(quality, 0.0);
    ASSERT_LE(quality, 1.0);
  }
  // After 100 tasks over 1000 items most labels are settled: quality high.
  EXPECT_GT(metric.QualityScore(), 0.8);
}

TEST(DataQualityMetricTest, EstimateTracksTruthEndToEnd) {
  Scenario scenario = SimulationScenario(0.005, 0.1, 15);
  SimulatedRun run = SimulateScenario(scenario, 500, 21);
  DataQualityMetric metric(scenario.num_items);
  for (const crowd::VoteEvent& event : run.log.events()) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
  }
  EXPECT_NEAR(metric.EstimatedTotalErrors(), 100.0, 20.0);
}

TEST(RegistryFactoryTest, OneRowPanelsProduceWorkingEstimators) {
  for (const char* spec : kPanelSpecs) {
    Result<DataQualityMetric> metric = DataQualityMetric::Create(20, {spec});
    ASSERT_TRUE(metric.ok()) << metric.status().ToString();
    metric->AddVote(0, 0, 1, /*is_dirty=*/true);
    EXPECT_GE(metric->EstimatedTotalErrors(), 0.0);
    EXPECT_EQ(metric->method_name(), DisplayNameOf(spec));
  }
}

}  // namespace
}  // namespace dqm::core
