#include "estimators/switch_total.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"

namespace dqm::estimators {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

TEST(SwitchTotalTest, EmptyEstimateIsZero) {
  SwitchTotalErrorEstimator estimator(10);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
  EXPECT_EQ(estimator.name(), "SWITCH");
}

TEST(SwitchTotalTest, EstimateNeverNegative) {
  SwitchTotalErrorEstimator estimator(5);
  // Feed many clean votes plus one retracted dirty vote.
  uint32_t task = 0;
  estimator.Observe({task, task, 0, Vote::kDirty});
  for (uint32_t t = 1; t < 30; ++t) {
    estimator.Observe({t, t, 0, Vote::kClean});
    estimator.Observe({t, t, 1, Vote::kClean});
    EXPECT_GE(estimator.Estimate(), 0.0);
  }
}

TEST(SwitchTotalTest, InitialDirectionIsPositive) {
  SwitchTotalErrorEstimator estimator(5);
  EXPECT_EQ(estimator.direction(), 1);
}

TEST(SwitchTotalTest, DirectionFlipsWhenVotingFalls) {
  SwitchTotalErrorEstimator::Config config;
  config.smooth_window = 1;
  config.flip_threshold_abs = 2.0;
  SwitchTotalErrorEstimator estimator(20, config);
  // Tasks 0..9: one fresh dirty vote each -> VOTING rises to 10.
  for (uint32_t t = 0; t < 10; ++t) {
    estimator.Observe({t, t, t, Vote::kDirty});
  }
  // Tasks 10..29: two clean votes per item -> VOTING falls toward 0.
  uint32_t task = 10;
  for (uint32_t round = 0; round < 2; ++round) {
    for (uint32_t i = 0; i < 10; ++i) {
      estimator.Observe({task, task, i, Vote::kClean});
      ++task;
    }
  }
  EXPECT_EQ(estimator.direction(), -1);
}

TEST(SwitchTotalTest, TwoSidedModeAppliesBothCorrections) {
  SwitchTotalErrorEstimator::Config two_sided;
  two_sided.two_sided = true;
  SwitchTotalErrorEstimator both(10, two_sided);
  SwitchTotalErrorEstimator one_sided(10);
  core::Scenario scenario = core::SimulationScenario(0.05, 0.2, 5);
  scenario.num_items = 10;
  scenario.dirty_in_candidates = 3;
  scenario.num_candidates = 10;
  core::SimulatedRun run = core::SimulateScenario(scenario, 40, 3);
  for (const VoteEvent& event : run.log.events()) {
    both.Observe(event);
    one_sided.Observe(event);
  }
  // two-sided = majority + xi+ - xi-; one-sided uses only one branch.
  double majority = both.MajorityCount();
  EXPECT_NEAR(both.Estimate(),
              std::max(0.0, majority + both.RemainingPositive() -
                                both.RemainingNegative()),
              1e-9);
  double expected_one =
      (one_sided.direction() >= 0)
          ? majority + one_sided.RemainingPositive()
          : majority - one_sided.RemainingNegative();
  EXPECT_NEAR(one_sided.Estimate(), std::max(0.0, expected_one), 1e-9);
}

TEST(SwitchTotalTest, ConvergesOnCleanCrowd) {
  // With near-perfect workers and full coverage, SWITCH converges to the
  // true error count.
  core::Scenario scenario = core::SimulationScenario(0.0, 0.02, 20);
  core::SimulatedRun run = core::SimulateScenario(scenario, 600, 5);
  SwitchTotalErrorEstimator estimator(scenario.num_items);
  for (const VoteEvent& event : run.log.events()) estimator.Observe(event);
  EXPECT_NEAR(estimator.Estimate(), 100.0, 8.0);
}

TEST(SwitchTotalTest, RobustToFalsePositivesAtScale) {
  // The paper's headline claim (Figure 7(b)/(c)): with FP noise, SWITCH
  // stays near the truth where Chao92 overestimates severely.
  core::Scenario scenario = core::SimulationScenario(0.01, 0.1, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 800, 17);
  core::DataQualityMetric panel =
      core::DataQualityMetric::Create(scenario.num_items, {"switch", "chao92"})
          .value();
  for (const VoteEvent& event : run.log.events()) {
    panel.AddVote(event.task, event.worker, event.item,
                  event.vote == Vote::kDirty);
  }
  core::DataQualityMetric::QualityReport report = panel.Report();
  double switch_error = std::abs(report.estimators[0].total_errors - 100.0);
  double chao_error = std::abs(report.estimators[1].total_errors - 100.0);
  EXPECT_LT(switch_error, 25.0);
  EXPECT_GT(chao_error, switch_error);
}

TEST(SwitchTotalTest, VotingTrendReflectsHistory) {
  SwitchTotalErrorEstimator estimator(50);
  for (uint32_t t = 0; t < 20; ++t) {
    estimator.Observe({t, t, t, Vote::kDirty});  // VOTING rises by 1/task
  }
  EXPECT_GT(estimator.VotingTrend(), 0.5);
}

TEST(SwitchTotalTest, SpecParamsMatchConfigStruct) {
  // Every Config field spelled as spec params must reproduce the
  // struct-configured estimator bit-identically at every prefix.
  core::Scenario scenario = core::SimulationScenario(0.02, 0.12, 10);
  scenario.workers.variation = 0.02;
  core::SimulatedRun run = core::SimulateScenario(scenario, 120, 37);
  size_t num_items = run.truth.size();

  SwitchTotalErrorEstimator::Config config;
  config.trend_window = 30;
  config.flip_threshold_abs = 5.0;
  config.flip_threshold_rel = 0.08;
  config.up_flip_factor = 1.5;
  config.smooth_window = 4;
  config.two_sided = true;
  config.tracker.skew_correction = false;
  config.tracker.tie_policy = TiePolicy::kStrictMajority;
  config.tracker.n_mode = SwitchNMode::kSpeciesSum;
  config.tracker.counting = SwitchCountingMode::kPerRecord;
  config.tracker.memory = SwitchMemory::kAllSwitches;
  SwitchTotalErrorEstimator direct(num_items, config);

  const std::string spec =
      "switch?tau=30&flip_abs=5&flip_rel=0.08&up_flip_factor=1.5"
      "&smooth_window=4&two_sided=1&skew=0&tie_policy=strict"
      "&n_mode=species&counting=per-record&memory=all";
  core::DataQualityMetric by_spec =
      core::DataQualityMetric::Create(num_items, {spec}).value();

  for (const VoteEvent& event : run.log.events()) {
    direct.Observe(event);
    by_spec.AddVote(event.task, event.worker, event.item,
                    event.vote == Vote::kDirty);
    ASSERT_EQ(direct.Estimate(), by_spec.EstimatedTotalErrors());
  }
}

/// The direction detector and trend slope recomputed from a full,
/// never-trimmed VOTING history — the reference for the estimator's
/// bounded ring.
class FullHistoryReference {
 public:
  explicit FullHistoryReference(const SwitchTotalErrorEstimator::Config& config)
      : config_(config) {}

  /// A task boundary: `majority` is VOTING just before the new task.
  void OnBoundary(double majority) {
    history_.push_back(majority);
    size_t window = std::max<size_t>(config_.smooth_window, 1);
    double sum = majority;
    size_t count = 1;
    for (size_t i = history_.size(); i > 0 && count < window; --i, ++count) {
      sum += history_[i - 1];
    }
    double smoothed = sum / static_cast<double>(count);
    double threshold = std::max(config_.flip_threshold_abs,
                                config_.flip_threshold_rel * extreme_);
    if (direction_ >= 0) {
      extreme_ = std::max(extreme_, smoothed);
      if (smoothed <= extreme_ - threshold) {
        direction_ = -1;
        extreme_ = smoothed;
      }
    } else {
      extreme_ = std::min(extreme_, smoothed);
      if (smoothed >= extreme_ + threshold * config_.up_flip_factor) {
        direction_ = 1;
        extreme_ = smoothed;
      }
    }
  }

  double Trend(double live) const {
    size_t start = history_.size() > config_.trend_window
                       ? history_.size() - config_.trend_window
                       : 0;
    std::vector<double> window(history_.begin() + start, history_.end());
    window.push_back(live);
    return Slope(window);
  }

  int direction() const { return direction_; }

 private:
  SwitchTotalErrorEstimator::Config config_;
  std::vector<double> history_;
  int direction_ = 1;
  double extreme_ = 0.0;
};

TEST(SwitchTotalTest, BoundedHistoryMatchesFullHistoryOverLongStream) {
  // A noisy crowd on a small universe, so VOTING keeps moving and the
  // detector flips both ways; 20k+ tasks wrap the small ring thousands of
  // times.
  core::Scenario scenario = core::SimulationScenario(0.1, 0.2, 2);
  scenario.num_items = 60;
  scenario.num_candidates = 60;
  scenario.dirty_in_candidates = 20;
  core::SimulatedRun run = core::SimulateScenario(scenario, 20500, 29);
  ASSERT_GE(run.log.num_tasks(), 20000u);

  for (auto [trend_window, smooth_window] :
       {std::pair<size_t, size_t>{7, 4}, {3, 9}, {5, 0}}) {
    SCOPED_TRACE(testing::Message() << "trend_window=" << trend_window
                                    << " smooth_window=" << smooth_window);
    SwitchTotalErrorEstimator::Config config;
    config.trend_window = trend_window;
    config.smooth_window = smooth_window;
    config.flip_threshold_abs = 0.5;
    config.flip_threshold_rel = 0.0;
    config.up_flip_factor = 1.0;
    SwitchTotalErrorEstimator estimator(scenario.num_items, config);
    FullHistoryReference reference(config);

    bool any_event = false;
    uint32_t task = 0;
    int flips = 0;
    for (const VoteEvent& event : run.log.events()) {
      bool boundary = any_event && event.task != task;
      if (boundary) {
        int before = reference.direction();
        reference.OnBoundary(estimator.MajorityCount());
        if (reference.direction() != before) ++flips;
      }
      estimator.Observe(event);
      any_event = true;
      task = event.task;
      if (!boundary) continue;
      ASSERT_EQ(estimator.direction(), reference.direction());
      ASSERT_EQ(estimator.VotingTrend(),
                reference.Trend(estimator.MajorityCount()));
      double majority = estimator.MajorityCount();
      double expected =
          reference.direction() >= 0
              ? majority + estimator.RemainingPositive()
              : majority - estimator.RemainingNegative();
      ASSERT_EQ(estimator.Estimate(), std::max(expected, 0.0));
    }
    // Starting at +1, two flips mean both branches were taken.
    EXPECT_GE(flips, 2);
  }
}

}  // namespace
}  // namespace dqm::estimators
