// The multi-estimator pipeline contract: one pass over the vote stream must
// produce, for every attached estimator, exactly the numbers an independent
// one-row replay produces — bit for bit — and exactly the paper's formula
// for that estimator over independently rebuilt statistics. The figure
// benches and the engine both run estimators through this one pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "engine/engine.h"
#include "estimators/baselines.h"
#include "estimators/chao92.h"
#include "estimators/em_voting.h"
#include "estimators/switch_total.h"
#include "lockstep_feed.h"

namespace dqm::core {
namespace {

/// The paper's estimator panel (Figs. 2/4/6 comparisons).
const std::vector<std::string> kPanel = {
    "switch", "chao92", "good-turing", "vchao92", "voting", "nominal"};

SimulatedRun PanelRun(size_t tasks = 150, uint64_t seed = 11) {
  Scenario scenario = SimulationScenario(0.02, 0.15, 10);
  return SimulateScenario(scenario, tasks, seed);
}

void Feed(DataQualityMetric& metric, const crowd::ResponseLog& log) {
  for (const crowd::VoteEvent& event : log.events()) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
  }
}

TEST(ReportPipelineTest, OnePassMatchesSixSingleMethodReplaysBitForBit) {
  SimulatedRun run = PanelRun();
  size_t num_items = run.truth.size();

  Result<DataQualityMetric> pipeline =
      DataQualityMetric::Create(num_items, std::span<const std::string>(kPanel));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  Feed(*pipeline, run.log);
  DataQualityMetric::QualityReport report = pipeline->Report();
  ASSERT_EQ(report.estimators.size(), kPanel.size());

  for (size_t i = 0; i < kPanel.size(); ++i) {
    SCOPED_TRACE(kPanel[i]);
    // Independent one-row replay through the spec path.
    std::vector<std::string> single = {kPanel[i]};
    Result<DataQualityMetric> replay =
        DataQualityMetric::Create(num_items,
                                  std::span<const std::string>(single));
    ASSERT_TRUE(replay.ok());
    Feed(*replay, run.log);
    EXPECT_EQ(report.estimators[i].total_errors,
              replay->EstimatedTotalErrors());
    EXPECT_EQ(report.estimators[i].undetected_errors,
              replay->EstimatedUndetectedErrors());
    EXPECT_EQ(report.estimators[i].quality_score, replay->QualityScore());
    EXPECT_EQ(report.estimators[i].name, replay->method_name());
  }
}

TEST(ReportPipelineTest, RowsAreTheirFormulaOverRebuiltStatistics) {
  // Each row must be its estimator's formula over the statistics of a log
  // the pipeline never saw (the simulator's, whose fingerprint is checked
  // against a rebuild from scratch), and SWITCH must be a directly
  // constructed estimator observing every vote.
  SimulatedRun run = PanelRun();
  size_t num_items = run.truth.size();
  Result<DataQualityMetric> pipeline =
      DataQualityMetric::Create(num_items, std::span<const std::string>(kPanel));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  Feed(*pipeline, run.log);
  DataQualityMetric::QualityReport report = pipeline->Report();

  estimators::FStatistics f;
  f.RebuildFromCounts(run.log.positive_counts());
  std::span<const uint64_t> kept = run.log.positive_fingerprint();
  ASSERT_GT(kept.size(), 2u);
  for (uint32_t j = 1; j < std::max(kept.size(), f.fingerprint().size());
       ++j) {
    ASSERT_EQ(estimators::FingerprintAt(kept, j), f.f(j)) << "f_" << j;
  }
  test::LockstepFeed<estimators::SwitchTotalErrorEstimator> switch_estimator(
      num_items);
  for (const crowd::VoteEvent& event : run.log.events()) {
    switch_estimator.Observe(event);
  }
  const std::vector<double> expected = {
      switch_estimator.Estimate(),
      estimators::Chao92Score(run.log, /*skew_correction=*/true),
      estimators::Chao92Score(run.log, /*skew_correction=*/false),
      estimators::VChao92Score(run.log, /*shift=*/1, /*skew_correction=*/true),
      estimators::VotingScore(run.log),
      estimators::NominalScore(run.log),
  };
  ASSERT_EQ(expected.size(), kPanel.size());
  for (size_t i = 0; i < kPanel.size(); ++i) {
    SCOPED_TRACE(kPanel[i]);
    double undetected =
        std::max(expected[i] - static_cast<double>(run.log.MajorityCount()),
                 0.0);
    EXPECT_EQ(report.estimators[i].total_errors, expected[i]);
    EXPECT_EQ(report.estimators[i].undetected_errors, undetected);
    EXPECT_EQ(report.estimators[i].quality_score,
              std::clamp(1.0 - undetected / static_cast<double>(num_items),
                         0.0, 1.0));
  }
  EXPECT_EQ(report.estimators[0].name, switch_estimator.name());
}

TEST(ReportPipelineTest, ReportCarriesDescriptiveCountsAndSpecs) {
  SimulatedRun run = PanelRun(60);
  size_t num_items = run.truth.size();
  // Braced-list form — the class comment's documented usage.
  Result<DataQualityMetric> metric =
      DataQualityMetric::Create(num_items, {"switch", "vchao92?shift=2"});
  ASSERT_TRUE(metric.ok());
  Feed(*metric, run.log);

  DataQualityMetric::QualityReport report = metric->Report();
  EXPECT_EQ(report.num_votes, metric->num_votes());
  EXPECT_EQ(report.num_items, num_items);
  EXPECT_EQ(report.majority_count, metric->MajorityCount());
  EXPECT_EQ(report.nominal_count, metric->NominalCount());
  ASSERT_EQ(report.estimators.size(), 2u);
  EXPECT_EQ(report.estimators[0].name, "SWITCH");
  EXPECT_EQ(report.estimators[0].spec, "switch");
  EXPECT_EQ(report.estimators[1].name, "V-CHAO");
  EXPECT_EQ(report.estimators[1].spec, "vchao92?shift=2");

  // The single-method accessors answer for the primary (first) estimator.
  EXPECT_EQ(metric->method_name(), "SWITCH");
  EXPECT_EQ(report.estimators[0].total_errors, metric->EstimatedTotalErrors());
  EXPECT_EQ(report.estimators[0].quality_score, metric->QualityScore());
  EXPECT_EQ(metric->estimator_names(),
            (std::vector<std::string>{"SWITCH", "V-CHAO"}));
}

TEST(ReportPipelineTest, CreateRejectsBadInput) {
  std::vector<std::string> empty;
  EXPECT_EQ(DataQualityMetric::Create(100, std::span<const std::string>(empty))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DataQualityMetric::Create(100, "switch,chao93").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      DataQualityMetric::Create(100, "switch?winow=9").status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ReportPipelineTest, EngineSnapshotCarriesTheFullPanel) {
  SimulatedRun run = PanelRun(100, 31);
  size_t num_items = run.truth.size();

  engine::DqmEngine engine;
  Result<std::shared_ptr<engine::EstimationSession>> session =
      engine.OpenSession("panel", num_items,
                         std::span<const std::string>(kPanel));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const std::vector<crowd::VoteEvent>& events = run.log.events();
  for (size_t begin = 0; begin < events.size(); begin += 64) {
    size_t size = std::min<size_t>(64, events.size() - begin);
    ASSERT_TRUE((*session)
                    ->AddVotes(std::span<const crowd::VoteEvent>(
                        &events[begin], size))
                    .ok());
  }

  // The snapshot rows must be exactly the facade report of a serial replay.
  Result<DataQualityMetric> serial =
      DataQualityMetric::Create(num_items, std::span<const std::string>(kPanel));
  ASSERT_TRUE(serial.ok());
  Feed(*serial, run.log);
  DataQualityMetric::QualityReport report = serial->Report();

  engine::Snapshot snapshot = (*session)->snapshot();
  EXPECT_EQ(snapshot.num_votes, report.num_votes);
  EXPECT_EQ(snapshot.majority_count, report.majority_count);
  EXPECT_EQ(snapshot.nominal_count, report.nominal_count);
  EXPECT_EQ(snapshot.method_name, "SWITCH");
  ASSERT_EQ(snapshot.estimates.size(), kPanel.size());
  for (size_t i = 0; i < kPanel.size(); ++i) {
    SCOPED_TRACE(kPanel[i]);
    EXPECT_EQ(snapshot.estimates[i].name, report.estimators[i].name);
    EXPECT_EQ(snapshot.estimates[i].total_errors,
              report.estimators[i].total_errors);
    EXPECT_EQ(snapshot.estimates[i].undetected_errors,
              report.estimators[i].undetected_errors);
    EXPECT_EQ(snapshot.estimates[i].quality_score,
              report.estimators[i].quality_score);
  }
  // Primary scalars mirror row 0.
  EXPECT_EQ(snapshot.estimated_total_errors,
            snapshot.estimates[0].total_errors);
  EXPECT_EQ(snapshot.quality_score, snapshot.estimates[0].quality_score);

  // Bad specs never half-open a session.
  EXPECT_EQ(engine.OpenSession("bad", num_items,
                               std::span<const std::string>(
                                   std::vector<std::string>{"chao93"}))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.num_sessions(), 1u);
}

TEST(ReportPipelineTest, EmVotingRowMatchesAnEstimatorOverItsOwnLog) {
  SimulatedRun run = PanelRun(60, 5);
  size_t num_items = run.truth.size();
  Result<DataQualityMetric> pipeline =
      DataQualityMetric::Create(num_items, "em-voting,chao92");
  ASSERT_TRUE(pipeline.ok());
  Feed(*pipeline, run.log);

  // The same estimator over a log this test owns: the pipeline row is
  // exactly the EM fit of the pipeline's log, no copy and no drift.
  crowd::ResponseLog log(num_items, crowd::RetentionPolicy::kCounts);
  for (const crowd::VoteEvent& event : run.log.events()) log.Append(event);
  estimators::EmVotingEstimator own(log, crowd::DawidSkene::Options());
  EXPECT_EQ(pipeline->Report().estimators[0].total_errors, own.Estimate());
}

}  // namespace
}  // namespace dqm::core
