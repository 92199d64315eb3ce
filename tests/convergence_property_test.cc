// Property-style sweeps over worker-error regimes: the estimator contracts
// that must hold across the whole configuration space the paper explores.

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "estimators/registry.h"

namespace dqm {
namespace {

// (false positive rate, false negative rate, seed, switch tolerance)
// The tolerance is the allowed |estimate - 100| for the SWITCH estimator at
// the end of the run; it widens with crowd noise, mirroring the paper's
// Figure 6(a) precision sweep where all estimators degrade together.
using Regime = std::tuple<double, double, uint64_t, double>;

class ConvergenceTest : public testing::TestWithParam<Regime> {};

TEST_P(ConvergenceTest, MajorityConsensusReachesTruth) {
  // The paper's foundational assumption: workers better than random ->
  // the majority converges to the truth with enough votes.
  auto [fp, fn, seed, tolerance] = GetParam();
  (void)tolerance;
  core::Scenario scenario = core::SimulationScenario(fp, fn, 20);
  scenario.num_items = 300;
  scenario.num_candidates = 300;
  scenario.dirty_in_candidates = 30;
  core::SimulatedRun run = core::SimulateScenario(scenario, 600, seed);
  // ~40 votes per item by the end.
  size_t wrong = 0;
  for (size_t i = 0; i < scenario.num_items; ++i) {
    bool majority_dirty =
        run.log.positive_votes(i) * 2 > run.log.total_votes(i);
    if (majority_dirty != run.truth[i]) ++wrong;
  }
  EXPECT_LE(wrong, 3u) << "fp=" << fp << " fn=" << fn;
}

TEST_P(ConvergenceTest, SwitchEstimateWithinToleranceAtScale) {
  auto [fp, fn, seed, tolerance] = GetParam();
  core::Scenario scenario = core::SimulationScenario(fp, fn, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 700, seed);
  core::DataQualityMetric metric(scenario.num_items);
  for (const crowd::VoteEvent& event : run.log.events()) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
  }
  // Truth is 100.
  EXPECT_NEAR(metric.EstimatedTotalErrors(), 100.0, tolerance)
      << "fp=" << fp << " fn=" << fn;
}

TEST_P(ConvergenceTest, EstimatesAlwaysFiniteAndNonNegative) {
  auto [fp, fn, seed, tolerance] = GetParam();
  (void)tolerance;
  core::Scenario scenario = core::SimulationScenario(fp, fn, 15);
  scenario.num_items = 200;
  scenario.num_candidates = 200;
  scenario.dirty_in_candidates = 20;
  core::SimulatedRun run = core::SimulateScenario(scenario, 150, seed);
  for (const char* spec : {"switch", "chao92", "vchao92", "good-turing"}) {
    core::DataQualityMetric metric =
        core::DataQualityMetric::Create(scenario.num_items, {spec}).value();
    EXPECT_EQ(metric.method_name(),
              estimators::EstimatorRegistry::Global().Find(spec).value()
                  ->display_name);
    for (const crowd::VoteEvent& event : run.log.events()) {
      metric.AddVote(event.task, event.worker, event.item,
                     event.vote == crowd::Vote::kDirty);
      double estimate = metric.EstimatedTotalErrors();
      ASSERT_TRUE(std::isfinite(estimate))
          << spec << " fp=" << fp << " fn=" << fn;
      ASSERT_GE(estimate, 0.0) << spec;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkerRegimes, ConvergenceTest,
    testing::Values(Regime{0.0, 0.0, 1, 5.0},     // perfect workers
                    Regime{0.0, 0.1, 2, 25.0},    // FN only (paper Fig 7a)
                    Regime{0.01, 0.0, 3, 25.0},   // FP only (paper Fig 7b)
                    Regime{0.01, 0.1, 4, 30.0},   // both (paper Fig 7c)
                    Regime{0.05, 0.25, 5, 50.0},  // sloppy crowd
                    Regime{0.02, 0.4, 6, 60.0})); // far FN-heavier than the
                                                  // paper's setting

// VOTING improves monotonically in expectation: its error (vs truth) at the
// end is no worse than at one third of the run, across regimes.
TEST_P(ConvergenceTest, VotingErrorShrinksOverTime) {
  auto [fp, fn, seed, tolerance] = GetParam();
  (void)tolerance;
  core::Scenario scenario = core::SimulationScenario(fp, fn, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 600, seed + 100);
  core::ExperimentRunner runner({.permutations = 3, .seed = seed});
  std::vector<core::SeriesResult> results =
      runner.Run(run.log, std::vector<std::string>{"voting"}).value();
  const std::vector<double>& mean = results[0].mean;
  double early_error = std::abs(mean[mean.size() / 3] - 100.0);
  double final_error = std::abs(mean.back() - 100.0);
  EXPECT_LE(final_error, early_error + 2.0);
}

}  // namespace
}  // namespace dqm
