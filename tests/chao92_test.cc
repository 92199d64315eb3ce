#include "estimators/chao92.h"

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "crowd/response_log.h"

namespace dqm::estimators {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

/// A one-row metric for `spec`: the one way a species estimator runs.
core::DataQualityMetric OneRow(const std::string& spec, size_t num_items) {
  return core::DataQualityMetric::Create(num_items, {spec}).value();
}

void Add(core::DataQualityMetric& metric, const VoteEvent& event) {
  metric.AddVote(event.task, event.worker, event.item,
                 event.vote == Vote::kDirty);
}

void Feed(core::DataQualityMetric& metric, const crowd::ResponseLog& log) {
  for (const VoteEvent& event : log.events()) Add(metric, event);
}

TEST(Chao92ScoreTest, EmptyGivesZero) {
  EXPECT_DOUBLE_EQ(OneRow("chao92", 10).EstimatedTotalErrors(), 0.0);
}

TEST(Chao92ScoreTest, CleanVotesAreNoOps) {
  core::DataQualityMetric chao = OneRow("chao92", 10);
  for (uint32_t i = 0; i < 10; ++i) Add(chao, {0, 0, i, Vote::kClean});
  EXPECT_DOUBLE_EQ(chao.EstimatedTotalErrors(), 0.0);
}

TEST(Chao92ScoreTest, FullCoverageConverges) {
  // Every item marked dirty twice: no singletons, D = c exactly.
  core::DataQualityMetric chao = OneRow("chao92", 5);
  for (uint32_t round = 0; round < 2; ++round) {
    for (uint32_t i = 0; i < 5; ++i) Add(chao, {round, round, i, Vote::kDirty});
  }
  EXPECT_DOUBLE_EQ(chao.EstimatedTotalErrors(), 5.0);
}

TEST(Chao92ScoreTest, SingletonsInflateEstimate) {
  // 4 doubletons + 2 singletons: estimate must exceed c = 6.
  core::DataQualityMetric chao = OneRow("good-turing", 10);
  for (uint32_t i = 0; i < 4; ++i) {
    Add(chao, {0, 0, i, Vote::kDirty});
    Add(chao, {1, 1, i, Vote::kDirty});
  }
  Add(chao, {2, 2, 8, Vote::kDirty});
  Add(chao, {2, 2, 9, Vote::kDirty});
  EXPECT_GT(chao.EstimatedTotalErrors(), 6.0);
}

TEST(Chao92ScoreTest, ScoresTheLogItIsGiven) {
  // The free function over a hand-built log: dirty-vote piles {2, 2, 1}
  // give 3 species, f1 = 1, n = 5, sum_ii1 = 2 + 2 = 4. Good-Turing:
  // C = 1 - 1/5, D = 3 / 0.8.
  crowd::ResponseLog log(10, crowd::RetentionPolicy::kTallies);
  for (uint32_t item : {0u, 0u, 1u, 1u, 2u}) {
    log.Append({0, 0, item, Vote::kDirty});
  }
  EXPECT_DOUBLE_EQ(Chao92Score(log, /*skew_correction=*/false), 3.0 / 0.8);
  EXPECT_GE(Chao92Score(log, /*skew_correction=*/true),
            Chao92Score(log, /*skew_correction=*/false));
}

TEST(Chao92ScoreTest, PaperExampleOneRegression) {
  // Section 3.2.1 Example 1 regenerated end-to-end: 1000 pairs / 100 dups,
  // 20 items per task, 0.9 detection rate, no false positives, 100 tasks.
  // The remaining-error estimate should be small and nearly unbiased
  // (paper: ~16.6 with cnominal ~83; exact values depend on the stream).
  core::Scenario scenario = core::SimulationScenario(0.0, 0.1, 20);
  core::SimulatedRun run = core::SimulateScenario(scenario, 100, 7);
  core::DataQualityMetric chao = OneRow("good-turing", scenario.num_items);
  Feed(chao, run.log);
  double nominal = static_cast<double>(run.log.NominalCount());
  EXPECT_GT(nominal, 70.0);
  EXPECT_LT(nominal, 100.0);
  // Total estimate lands near the true 100 (within 15%).
  EXPECT_NEAR(chao.EstimatedTotalErrors(), 100.0, 15.0);
}

TEST(Chao92ScoreTest, FalsePositivesCauseOverestimate) {
  // The singleton-error entanglement (Section 3.2.2): with 1% FP the
  // estimate overshoots the true 100 markedly.
  core::Scenario clean = core::SimulationScenario(0.0, 0.1, 20);
  core::Scenario noisy = core::SimulationScenario(0.01, 0.1, 20);
  core::SimulatedRun run_clean = core::SimulateScenario(clean, 100, 7);
  core::SimulatedRun run_noisy = core::SimulateScenario(noisy, 100, 7);
  core::DataQualityMetric chao_clean = OneRow("good-turing", clean.num_items);
  core::DataQualityMetric chao_noisy = OneRow("good-turing", noisy.num_items);
  Feed(chao_clean, run_clean.log);
  Feed(chao_noisy, run_noisy.log);
  EXPECT_GT(chao_noisy.EstimatedTotalErrors(),
            chao_clean.EstimatedTotalErrors() + 20.0);
}

TEST(Chao92ScoreTest, SkewCorrectionAtLeastNoskew) {
  core::Scenario scenario = core::SimulationScenario(0.01, 0.1, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 60, 11);
  core::DataQualityMetric panel = core::DataQualityMetric::Create(
      scenario.num_items, {"chao92", "good-turing"}).value();
  Feed(panel, run.log);
  core::DataQualityMetric::QualityReport report = panel.Report();
  EXPECT_GE(report.estimators[0].total_errors,
            report.estimators[1].total_errors);
}

TEST(Jackknife1ScoreTest, BasicBehavior) {
  core::DataQualityMetric jk = OneRow("jackknife1", 10);
  EXPECT_DOUBLE_EQ(jk.EstimatedTotalErrors(), 0.0);
  // 3 species, 1 singleton, n = 5: D = 3 + 1 * 4/5.
  Add(jk, {0, 0, 0, Vote::kDirty});
  Add(jk, {0, 0, 1, Vote::kDirty});
  Add(jk, {1, 1, 0, Vote::kDirty});
  Add(jk, {1, 1, 1, Vote::kDirty});
  Add(jk, {2, 2, 2, Vote::kDirty});
  EXPECT_NEAR(jk.EstimatedTotalErrors(), 3.0 + 0.8, 1e-12);
  EXPECT_EQ(jk.method_name(), "JACKKNIFE1");
}

TEST(VChao92ScoreTest, UsesMajorityNotNominal) {
  // One item: 1 dirty vote then 2 clean votes -> majority clean.
  // Plain Chao92 would report ~1+ species; vChao92's c is 0.
  core::DataQualityMetric vchao = OneRow("vchao92?shift=1", 5);
  Add(vchao, {0, 0, 0, Vote::kDirty});
  Add(vchao, {1, 1, 0, Vote::kClean});
  Add(vchao, {2, 2, 0, Vote::kClean});
  // c_majority = 0, and the shifted f-stats have no f_2 either.
  EXPECT_DOUBLE_EQ(vchao.EstimatedTotalErrors(), 0.0);
}

TEST(VChao92ScoreTest, ShiftSuppressesSingletonNoise) {
  // The false-positive regime vChao92 was designed for: 8 true errors each
  // confirmed by four workers, and 6 false-positive singletons that other
  // workers voted clean (majority clean). Chao92's c_nominal counts the
  // FPs and its f1 is inflated; vChao92 suppresses both.
  core::DataQualityMetric panel = core::DataQualityMetric::Create(
      20, {"good-turing", "vchao92?shift=1&skew=0"}).value();
  for (uint32_t round = 0; round < 4; ++round) {
    for (uint32_t i = 0; i < 8; ++i) Add(panel, {round, round, i, Vote::kDirty});
  }
  for (uint32_t i = 8; i < 14; ++i) {
    Add(panel, {4, 4, i, Vote::kDirty});
    Add(panel, {5, 5, i, Vote::kClean});
    Add(panel, {6, 6, i, Vote::kClean});
  }
  core::DataQualityMetric::QualityReport report = panel.Report();
  double chao = report.estimators[0].total_errors;
  double vchao = report.estimators[1].total_errors;
  EXPECT_LT(vchao, chao);
  // vChao92 lands on the true count (8); Chao92 overestimates it.
  EXPECT_DOUBLE_EQ(vchao, 8.0);
  EXPECT_GT(chao, 14.0);
}

TEST(VChao92ScoreTest, LargerShiftIsMoreConservative) {
  core::Scenario scenario = core::SimulationScenario(0.02, 0.1, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 80, 13);
  core::DataQualityMetric panel = core::DataQualityMetric::Create(
      scenario.num_items, {"vchao92?shift=1", "vchao92?shift=2"}).value();
  Feed(panel, run.log);
  core::DataQualityMetric::QualityReport report = panel.Report();
  EXPECT_LE(report.estimators[1].total_errors,
            report.estimators[0].total_errors * 1.2);
  EXPECT_EQ(report.estimators[0].name, "V-CHAO");
}

TEST(VChao92ScoreTest, ShiftSpecScoresTheShiftedFormula) {
  // "vchao92?shift=s" must be exactly VChao92Score(log, s, skew) over the
  // pipeline's log, after every vote — and the fingerprint the score reads
  // must be the rebuild from the per-item dirty-vote counts.
  core::Scenario scenario = core::SimulationScenario(0.02, 0.12, 10);
  core::SimulatedRun run = core::SimulateScenario(scenario, 120, 11);
  for (uint32_t shift : {0u, 1u, 3u}) {
    SCOPED_TRACE(shift);
    core::DataQualityMetric by_spec =
        OneRow("vchao92?shift=" + std::to_string(shift), scenario.num_items);
    FStatistics f;
    for (const VoteEvent& e : run.log.events()) {
      Add(by_spec, e);
      f.RebuildFromCounts(by_spec.log().positive_counts());
      std::span<const uint64_t> kept = by_spec.log().positive_fingerprint();
      for (uint32_t j = 1; j < std::max(kept.size(), f.fingerprint().size());
           ++j) {
        ASSERT_EQ(FingerprintAt(kept, j), f.f(j)) << "f_" << j;
      }
      ASSERT_EQ(by_spec.EstimatedTotalErrors(),
                VChao92Score(by_spec.log(), shift, /*skew_correction=*/true));
    }
  }
}

}  // namespace
}  // namespace dqm::estimators
