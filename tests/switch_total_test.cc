#include "estimators/switch_total.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "estimators/registry.h"
#include "lockstep_feed.h"
#include "workload/workload.h"

namespace dqm::estimators {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

/// A SWITCH estimator over its own tally log, fed in lockstep.
using Switch = test::LockstepFeed<SwitchTotalErrorEstimator>;

TEST(SwitchTotalTest, EmptyEstimateIsZero) {
  Switch estimator(10);
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
  EXPECT_EQ(estimator.name(), "SWITCH");
}

TEST(SwitchTotalTest, EstimateNeverNegative) {
  Switch estimator(5);
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
  Switch estimator(5);
  EXPECT_EQ(estimator.direction(), 1);
}

TEST(SwitchTotalTest, DirectionFlipsWhenVotingFalls) {
  SwitchTotalErrorEstimator::Config config;
  config.smooth_window = 1;
  config.flip_threshold_abs = 2.0;
  Switch estimator(20, config);
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
  Switch both(10, two_sided);
  Switch one_sided(10);
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
  Switch estimator(scenario.num_items);
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
  Switch estimator(50);
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
  Switch direct(num_items, config);

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
    Switch estimator(scenario.num_items, config);
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

/// SWITCH's served numbers after every vote of the first `tasks` tasks.
struct RecordedSample {
  uint32_t tasks;
  double estimate;
  double remaining_positive;
  double remaining_negative;
  int direction;
};

/// Replays seed 1 of `family` into the registry-built `spec`, feeding a
/// tally log in lockstep (each vote is observed, then appended), and samples
/// the estimator every 50 tasks and at the end of the stream.
std::vector<RecordedSample> ReplaySwitch(const std::string& family,
                                         const std::string& spec) {
  workload::GeneratedWorkload run = workload::WorkloadRegistry::Global()
                                        .Create(family)
                                        .value()
                                        ->Generate(1);
  crowd::ResponseLog log(run.truth.size(), crowd::RetentionPolicy::kTallies);
  std::unique_ptr<TotalErrorEstimator> built =
      EstimatorRegistry::Global()
          .Create(ParseEstimatorSpec(spec).value(), log)
          .value();
  const auto& estimator =
      dynamic_cast<const SwitchTotalErrorEstimator&>(*built);
  std::vector<RecordedSample> samples;
  auto sample = [&](uint32_t tasks) {
    samples.push_back({tasks, estimator.Estimate(),
                       estimator.RemainingPositive(),
                       estimator.RemainingNegative(), estimator.direction()});
  };
  uint32_t next_sample = 50;
  uint32_t last_task = 0;
  for (const VoteEvent& event : run.log.events()) {
    if (event.task >= next_sample) {
      sample(next_sample);
      next_sample += 50;
    }
    built->Observe(event);
    log.Append(event);
    last_task = event.task;
  }
  sample(last_task + 1);
  return samples;
}

struct RecordedRun {
  const char* family;
  const char* spec;
  std::vector<RecordedSample> samples;
};

TEST(SwitchTotalTest, ServesRecordedEstimates) {
  // Recorded bit-exact (hex-float literals) from SWITCH as it stood when its
  // tracker kept a private copy of every item's tallies and of the VOTING
  // count: reading those statistics from the pipeline's log instead must not
  // move one bit. One seed per workload family, the default spec and each
  // ablation spec.
  const std::vector<RecordedRun> recorded = {
      {"benign", "switch", {
        {50, 0x1.dc7df8a87a1b8p+6, 0x1.387df8a87a1b8p+6, 0x0p+0, 1},
        {100, 0x1.58becd7315547p+6, 0x1.e2fb35cc5551cp+4, 0x0p+0, 1},
        {150, 0x1.834d0c6d5bf61p+6, 0x1.9d3431b56fd84p+4, 0x1.b800000000004p+5, 1},
        {200, 0x1.8847b39e5350ep+6, 0x1.511ece794d438p+4, 0x1p+4, 1},
        {250, 0x1.82e83f5717c0ap+6, 0x1.7741fab8be05p+3, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.832044d72044ep+6, 0x1.190226b90227p+3, 0x1.a31f8a0902de4p+2, 1},
        {350, 0x1.8a79e79e79e7ap+6, 0x1.279e79e79e7ap+2, 0x1.fdd604c2c253p+0, 1},
        {400, 0x1.87b39503d2263p+6, 0x1.7672a07a44c6p+1, 0x1.888aaf89dfdd8p+1, 1},
      }},
      {"benign", "switch?tie_policy=strict", {
        {50, 0x1.f392c5f92c5f9p+6, 0x1.4f92c5f92c5f9p+6, 0x0p+0, 1},
        {100, 0x1.875c17b242d3dp+6, 0x1.4eb82f6485a7ap+5, 0x0p+0, 1},
        {150, 0x1.84e7dbefbb22ap+6, 0x1.a39f6fbeec8a8p+4, 0x0p+0, 1},
        {200, 0x1.802af2f496034p+6, 0x1.30abcbd2580dp+4, 0x1.9aaaaaaaaaaacp+4, 1},
        {250, 0x1.85e9e2961d84p+6, 0x1.8f4f14b0ec2p+3, 0x1.5555555555556p+3, 1},
        {300, 0x1.7f91cb315cfc9p+6, 0x1.f91cb315cfc9p+2, 0x1.7511a17fa5bacp+3, 1},
        {350, 0x1.952cba432cd0ap+6, 0x1.d2cba432cd0ap+2, 0x1.c3c3c3c3c3c4p+0, 1},
        {400, 0x1.8c5c22b94af4p+6, 0x1.05c22b94af4p+2, 0x1.5261707f8e9dcp+1, 1},
      }},
      {"benign", "switch?memory=all", {
        {50, 0x1.00d43f4d43f4ep+7, 0x1.5da87e9a87e9cp+6, 0x0p+0, 1},
        {100, 0x1.a14ab92c7c58bp+6, 0x1.82957258f8b16p+5, 0x0p+0, 1},
        {150, 0x1.c1b82d1009a1ap+6, 0x1.4b705a2013434p+5, 0x1.b800000000004p+5, 1},
        {200, 0x1.e05e0326ab3bcp+6, 0x1.58bc064d56778p+5, 0x1p+4, 1},
        {250, 0x1.ba816a75efa9ap+6, 0x1.9a05a9d7bea68p+4, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.bd73a7fd67dap+6, 0x1.75ce9ff59f68p+4, 0x1.7c5fee270a98cp+2, 1},
        {350, 0x1.b654aba91a464p+6, 0x1.f2a55d48d232p+3, 0x1.e6ff27cd9b13p+0, 1},
        {400, 0x1.ac806d2b580fcp+6, 0x1.8403695ac07ep+3, 0x1.7d89602eee0cp+1, 1},
      }},
      {"benign", "switch?counting=per-record", {
        {50, 0x1.dc7df8a87a1b8p+6, 0x1.387df8a87a1b8p+6, 0x0p+0, 1},
        {100, 0x1.58becd7315547p+6, 0x1.e2fb35cc5551cp+4, 0x0p+0, 1},
        {150, 0x1.834d0c6d5bf61p+6, 0x1.9d3431b56fd84p+4, 0x1.b800000000004p+5, 1},
        {200, 0x1.8847b39e5350ep+6, 0x1.511ece794d438p+4, 0x1p+4, 1},
        {250, 0x1.82e83f5717c0ap+6, 0x1.7741fab8be05p+3, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.832044d72044ep+6, 0x1.190226b90227p+3, 0x1.a31f8a0902de4p+2, 1},
        {350, 0x1.8a79e79e79e7ap+6, 0x1.279e79e79e7ap+2, 0x1.fdd604c2c253p+0, 1},
        {400, 0x1.87b39503d2263p+6, 0x1.7672a07a44c6p+1, 0x1.888aaf89dfdd8p+1, 1},
      }},
      {"benign", "switch?n_mode=species", {
        {50, 0x1.04ba8b5cdbbaap+9, 0x1.e07516b9b7754p+8, 0x0p+0, 1},
        {100, 0x1.7ead9f0dd10a6p+8, 0x1.46ad9f0dd10a6p+8, 0x0p+0, 1},
        {150, 0x1.6ad5ce30e0024p+8, 0x1.23d5ce30e0024p+8, 0x1.e3ffffffffffap+7, 1},
        {200, 0x1.81799f8adbf58p+8, 0x1.34799f8adbf58p+8, 0x1.a485cd7b900afp+6, 1},
        {250, 0x1.42a1cadf52fb8p+8, 0x1.db4395bea5f7p+7, 0x1.999999999999ap+5, 1},
        {300, 0x1.54e1a79808016p+8, 0x1.f9c34f301002cp+7, 0x1.730fcd6e9e064p+6, 1},
        {350, 0x1.120edbab52bb6p+8, 0x1.681db756a576cp+7, 0x1.247e9df6c7c29p+5, 1},
        {400, 0x1.def356a81411p+7, 0x1.20f356a81411p+7, 0x1.32f908b51d9aep+6, 1},
      }},
      {"benign", "switch?two_sided=1", {
        {50, 0x1.dc7df8a87a1b8p+6, 0x1.387df8a87a1b8p+6, 0x0p+0, 1},
        {100, 0x1.58becd7315547p+6, 0x1.e2fb35cc5551cp+4, 0x0p+0, 1},
        {150, 0x1.4e9a18dab7ebep+5, 0x1.9d3431b56fd84p+4, 0x1.b800000000004p+5, 1},
        {200, 0x1.4847b39e5350ep+6, 0x1.511ece794d438p+4, 0x1p+4, 1},
        {250, 0x1.6676783aa5f98p+6, 0x1.7741fab8be05p+3, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.68ee4c369017p+6, 0x1.190226b90227p+3, 0x1.a31f8a0902de4p+2, 1},
        {350, 0x1.82828f8b6ede5p+6, 0x1.279e79e79e7ap+2, 0x1.fdd604c2c253p+0, 1},
        {400, 0x1.7b6f3f8783274p+6, 0x1.7672a07a44c6p+1, 0x1.888aaf89dfdd8p+1, 1},
      }},
      {"benign", "switch?skew=0", {
        {50, 0x1.c866666666667p+6, 0x1.2466666666667p+6, 0x0p+0, 1},
        {100, 0x1.4d7303b5cc0eep+6, 0x1.b5cc0ed7303b8p+4, 0x0p+0, 1},
        {150, 0x1.834d0c6d5bf61p+6, 0x1.9d3431b56fd84p+4, 0x1.b800000000002p+5, 1},
        {200, 0x1.84590b21642c8p+6, 0x1.41642c8590b2p+4, 0x1p+4, 1},
        {250, 0x1.82e83f5717c0ap+6, 0x1.7741fab8be05p+3, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.832044d72044ep+6, 0x1.190226b90227p+3, 0x1.5c28f5c28f5c4p+2, 1},
        {350, 0x1.8a79e79e79e7ap+6, 0x1.279e79e79e7ap+2, 0x1.d89d89d89d89p+0, 1},
        {400, 0x1.87b39503d2263p+6, 0x1.7672a07a44c6p+1, 0x1.02b931057262p+1, 1},
      }},
      {"drift", "switch", {
        {50, 0x1.6cp+7, 0x1.1cp+7, 0x1.ffffffffffffcp+0, 1},
        {100, 0x1.23fbe960b09ep+7, 0x1.4ff7d2c1613cp+6, 0x1.5555555555556p+3, 1},
        {150, 0x1.36b86819d7bd3p+7, 0x1.4570d033af7a6p+6, 0x1.055e2455e2456p+4, 1},
        {200, 0x1.13aaabd25d9d5p+7, 0x1.9eaaaf4976754p+5, 0x1.0c5d1745d1742p+4, 1},
        {250, 0x1.cc2baf3f03a7ep+6, 0x1.08575e7e074fcp+5, 0x1.fe8b2e2a42754p+3, 1},
        {300, 0x1.26603dafad036p+6, 0x1.3c58767e6a4a4p+5, 0x1.ccfe128297e4cp+3, -1},
        {350, 0x1.1f853a94a35afp+6, 0x1.c4cb3f9f52b3p+4, 0x1.11eb15ad72944p+4, -1},
        {400, 0x1.c26be6dea5e0ap+6, 0x1.39af9b7a97828p+4, 0x1.78b18b18b18bp+3, 1},
      }},
      {"drift", "switch?tie_policy=strict", {
        {50, 0x1.1279ffffffffep+7, 0x1.84f3ffffffffcp+6, 0x1.ffffffffffffcp+0, 1},
        {100, 0x1.0579cd64e7845p+7, 0x1.12f39ac9cf08ap+6, 0x1.5555555555556p+3, 1},
        {150, 0x1.0f262fa49aae7p+7, 0x1.ec98be926ab9cp+5, 0x1.09d89d89d89d8p+4, 1},
        {200, 0x1.029d5bfcac548p+7, 0x1.5a756ff2b152p+5, 0x1.213b13b13b13cp+4, 1},
        {250, 0x1.9e51e0f93dbb2p+6, 0x1.594783e4f6ec8p+4, 0x1.e6a4c2e0ff1d4p+3, 1},
        {300, 0x1.2084508a11422p+6, 0x1.44b2b2e980b14p+4, 0x1.fbdd7baf75eecp+3, -1},
        {350, 0x1.20c3403254e9cp+6, 0x1.ca7305220fe2p+3, 0x1.0cf2ff36ac58ep+4, -1},
        {400, 0x1.a4b7891ca7759p+6, 0x1.85bc48e53bac8p+3, 0x1.bfb9c389615bcp+3, 1},
      }},
      {"drift", "switch?memory=all", {
        {50, 0x1.a6b97dd49c33fp+7, 0x1.56b97dd49c33fp+7, 0x1.ffffffffffffcp+0, 1},
        {100, 0x1.754369d6e2d44p+7, 0x1.f286d3adc5a88p+6, 0x1.5555555555556p+3, 1},
        {150, 0x1.a882b365a76cep+7, 0x1.1482b365a76cep+7, 0x1.055e2455e2456p+4, 1},
        {200, 0x1.7bea0bd002cfep+7, 0x1.9fd417a0059fcp+6, 0x1.eccc8590b2164p+3, 1},
        {250, 0x1.64574c502b368p+7, 0x1.80ae98a0566dp+6, 0x1.d666666666668p+3, 1},
        {300, 0x1.29260d6686c36p+6, 0x1.af34127d814acp+6, 0x1.b6cf94cbc9e4cp+3, -1},
        {350, 0x1.21f1cc6d20839p+6, 0x1.6371f99d13a64p+6, 0x1.0838ce4b7df1cp+4, -1},
        {400, 0x1.60b86784c8422p+7, 0x1.4d70cf0990844p+6, 0x1.6ead8f44525c8p+3, 1},
      }},
      {"drift", "switch?counting=per-record", {
        {50, 0x1.6cp+7, 0x1.1cp+7, 0x1.ffffffffffffcp+0, 1},
        {100, 0x1.23fbe960b09ep+7, 0x1.4ff7d2c1613cp+6, 0x1.5555555555556p+3, 1},
        {150, 0x1.36b86819d7bd3p+7, 0x1.4570d033af7a6p+6, 0x1.055e2455e2456p+4, 1},
        {200, 0x1.13aaabd25d9d5p+7, 0x1.9eaaaf4976754p+5, 0x1.0c5d1745d1742p+4, 1},
        {250, 0x1.cc2baf3f03a7ep+6, 0x1.08575e7e074fcp+5, 0x1.fe8b2e2a42754p+3, 1},
        {300, 0x1.26603dafad036p+6, 0x1.3c58767e6a4a4p+5, 0x1.ccfe128297e4cp+3, -1},
        {350, 0x1.1f853a94a35afp+6, 0x1.c4cb3f9f52b3p+4, 0x1.11eb15ad72944p+4, -1},
        {400, 0x1.c26be6dea5e0ap+6, 0x1.39af9b7a97828p+4, 0x1.78b18b18b18bp+3, 1},
      }},
      {"drift", "switch?n_mode=species", {
        {50, 0x1.c33732a7a3528p+9, 0x1.af3732a7a3528p+9, 0x1.5555555555555p+3, 1},
        {100, 0x1.54538726accf8p+9, 0x1.35538726accf8p+9, 0x1.3a2e8ba2e8ba1p+6, 1},
        {150, 0x1.d3ef5657dba52p+9, 0x1.aeef5657dba52p+9, 0x1.2cp+7, 1},
        {200, 0x1.9140b1c7d1e21p+9, 0x1.6640b1c7d1e21p+9, 0x1.471d89d89d89dp+7, 1},
        {250, 0x1.5a6714dd7b72ep+9, 0x1.316714dd7b72ep+9, 0x1.8cb1b810ecf56p+7, 1},
        {300, 0x0p+0, 0x1.bb4dbc30e3232p+9, 0x1.19e01539dd462p+8, -1},
        {350, 0x0p+0, 0x1.8d130b025afp+9, 0x1.7c8a429528becp+8, -1},
        {400, 0x1.8cfd26aac9fdbp+9, 0x1.5e7d26aac9fdbp+9, 0x1.3b922c3f35ba8p+8, 1},
      }},
      {"drift", "switch?two_sided=1", {
        {50, 0x1.68p+7, 0x1.1cp+7, 0x1.ffffffffffffcp+0, 1},
        {100, 0x1.0ea6940b5b48bp+7, 0x1.4ff7d2c1613cp+6, 0x1.5555555555556p+3, 1},
        {150, 0x1.160ca38f1b748p+7, 0x1.4570d033af7a6p+6, 0x1.055e2455e2456p+4, 1},
        {200, 0x1.e43e11d346ddap+6, 0x1.9eaaaf4976754p+5, 0x1.0c5d1745d1742p+4, 1},
        {250, 0x1.8c5a4979bb594p+6, 0x1.08575e7e074fcp+5, 0x1.fe8b2e2a42754p+3, 1},
        {300, 0x1.c48c78eee2288p+6, 0x1.3c58767e6a4a4p+5, 0x1.ccfe128297e4cp+3, -1},
        {350, 0x1.90b80a7c7807bp+6, 0x1.c4cb3f9f52b3p+4, 0x1.11eb15ad72944p+4, -1},
        {400, 0x1.9355b57b8faf4p+6, 0x1.39af9b7a97828p+4, 0x1.78b18b18b18bp+3, 1},
      }},
      {"drift", "switch?skew=0", {
        {50, 0x1.3bp+7, 0x1.d6p+6, 0x1.ffffffffffffcp+0, 1},
        {100, 0x1.1cf0f0f0f0f0ep+7, 0x1.41e1e1e1e1e1cp+6, 0x1.5555555555556p+3, 1},
        {150, 0x1.0f93b13b13b13p+7, 0x1.ee4ec4ec4ec4cp+5, 0x1.8p+3, 1},
        {200, 0x1.fb14e5e0a72f2p+6, 0x1.4629cbc14e5e4p+5, 0x1.afffffffffffcp+3, 1},
        {250, 0x1.b1f9e167030f4p+6, 0x1.a7e7859c0c3dp+4, 0x1.86822b63cbee8p+3, 1},
        {300, 0x1.37594d653594ep+6, 0x1.a97588daf7f3p+4, 0x1.453594d653594p+3, -1},
        {350, 0x1.3595e8efdb196p+6, 0x1.35edce9e89bfp+4, 0x1.7350b8812735p+3, -1},
        {400, 0x1.a9dc6df1fcc42p+6, 0x1.aee36f8fe621p+3, 0x1.0aaaaaaaaaaa8p+3, 1},
      }},
      {"adversarial", "switch", {
        {50, 0x1.f58019dfa18fap+8, 0x1.7e8019dfa18fap+8, 0x1.3d55555555554p+5, 1},
        {100, 0x1.b0e4103c2c88bp+8, 0x1.21e4103c2c88bp+8, 0x1.d071c71c71c7p+5, 1},
        {150, 0x1.51d095936755fp+8, 0x1.81a12b26ceabep+7, 0x1.e4bcd9e00e0c4p+5, 1},
        {200, 0x1.275d9749b2dbp+8, 0x1.00bb2e9365b6p+7, 0x1.4a14ccab3edd6p+6, 1},
        {250, 0x1.fdb87e7d75e54p+7, 0x1.6f70fcfaebca8p+6, 0x1.c78b8e20a05bcp+5, 1},
        {300, 0x1.aa4e42092c91ep+6, 0x1.9199ef454cab4p+6, 0x1.bb637beda6dc4p+5, -1},
        {350, 0x1.b3f7f71661ab6p+6, 0x1.a993ac065c64p+5, 0x1.681011d33ca94p+5, -1},
        {400, 0x1.ea7221972834ep+6, 0x1.7950702861adp+5, 0x1.131bbcd1af964p+5, -1},
      }},
      {"adversarial", "switch?tie_policy=strict", {
        {50, 0x1.0383e1c4e999fp+9, 0x1.9007c389d333ep+8, 0x1.a4p+6, 1},
        {100, 0x1.d82cbc14e5e08p+8, 0x1.492cbc14e5e08p+8, 0x1.2f976fc64f52ep+6, 1},
        {150, 0x1.768ceb94b3fabp+8, 0x1.cb19d72967f56p+7, 0x1.0f48af2be8f1ap+6, 1},
        {200, 0x1.506bb47c13486p+8, 0x1.52d768f82690cp+7, 0x1.4d1c6fda4215cp+6, 1},
        {250, 0x1.15734d61503d6p+8, 0x1.c9cd358540f58p+6, 0x1.d4cb4bd1181c8p+5, 1},
        {300, 0x1.7c16952ec64a2p+6, 0x1.7ef5d4834cfb8p+6, 0x1.0be96ad139b5ep+6, -1},
        {350, 0x1.932cdaa9aa172p+6, 0x1.1ed7e17e9cc0ep+6, 0x1.a9a64aacabd1cp+5, -1},
        {400, 0x1.de9691e4284f6p+6, 0x1.cad529073cb0cp+5, 0x1.2ad2dc37af614p+5, -1},
      }},
      {"adversarial", "switch?memory=all", {
        {50, 0x1.2a5947aa79dccp+9, 0x1.ddb28f54f3b98p+8, 0x1.f8p+4, 1},
        {100, 0x1.56a95a3413b88p+9, 0x1.0f295a3413b88p+9, 0x1.97a2e8ba2e8bap+5, 1},
        {150, 0x1.21a2e049974c6p+9, 0x1.b245c0932e98cp+8, 0x1.9ca2e8ba2e8b8p+5, 1},
        {200, 0x1.057a934267c5fp+9, 0x1.63f52684cf8bep+8, 0x1.0f2be261af56p+6, 1},
        {250, 0x1.e4aa7e3cd438ep+8, 0x1.41aa7e3cd438ep+8, 0x1.81cc4451ab30cp+5, 1},
        {300, 0x1.d96e44204ea96p+6, 0x1.62ccf917404ap+8, 0x1.5d2377bf62ad4p+5, -1},
        {350, 0x1.d4ebae43035c4p+6, 0x1.123955f108b18p+8, 0x1.2628a379f9478p+5, -1},
        {400, 0x1.01039a07c8642p+7, 0x1.0b84c1802241ep+8, 0x1.c7e32fc1bcdfp+4, -1},
      }},
      {"adversarial", "switch?counting=per-record", {
        {50, 0x1.f58019dfa18fap+8, 0x1.7e8019dfa18fap+8, 0x1.3d55555555554p+5, 1},
        {100, 0x1.b0e4103c2c88bp+8, 0x1.21e4103c2c88bp+8, 0x1.d071c71c71c7p+5, 1},
        {150, 0x1.51d095936755fp+8, 0x1.81a12b26ceabep+7, 0x1.e4bcd9e00e0c4p+5, 1},
        {200, 0x1.275d9749b2dbp+8, 0x1.00bb2e9365b6p+7, 0x1.4a14ccab3edd6p+6, 1},
        {250, 0x1.fdb87e7d75e54p+7, 0x1.6f70fcfaebca8p+6, 0x1.c78b8e20a05bcp+5, 1},
        {300, 0x1.aa4e42092c91ep+6, 0x1.9199ef454cab4p+6, 0x1.bb637beda6dc4p+5, -1},
        {350, 0x1.b3f7f71661ab6p+6, 0x1.a993ac065c64p+5, 0x1.681011d33ca94p+5, -1},
        {400, 0x1.ea7221972834ep+6, 0x1.7950702861adp+5, 0x1.131bbcd1af964p+5, -1},
      }},
      {"adversarial", "switch?n_mode=species", {
        {50, 0x1.1c370a3d70a3fp+11, 0x1.0d570a3d70a3fp+11, 0x1.512aaaaaaaaa8p+7, 1},
        {100, 0x1.1c170f785fc9ap+11, 0x1.0a370f785fc9ap+11, 0x1.4417e2577741bp+8, 1},
        {150, 0x1.09bbfd833cdadp+11, 0x1.ef37fb0679b5ap+10, 0x1.fe78f831f3832p+8, 1},
        {200, 0x1.b9949cb120e17p+10, 0x1.8fd49cb120e17p+10, 0x1.946785d90173fp+9, 1},
        {250, 0x1.98a3b8cae8d77p+10, 0x1.6fe3b8cae8d77p+10, 0x1.5fc8083b37b34p+9, 1},
        {300, 0x0p+0, 0x1.ec32674f61788p+10, 0x1.9c428d5c3a9cep+9, -1},
        {350, 0x0p+0, 0x1.3dad772c39394p+10, 0x1.a9ec770cd3908p+9, -1},
        {400, 0x0p+0, 0x1.5b65084b262e8p+10, 0x1.a3dc83443e582p+9, -1},
      }},
      {"adversarial", "switch?two_sided=1", {
        {50, 0x1.cdd56f34f6e5p+8, 0x1.7e8019dfa18fap+8, 0x1.3d55555555554p+5, 1},
        {100, 0x1.76d5d7589e4fdp+8, 0x1.21e4103c2c88bp+8, 0x1.d071c71c71c7p+5, 1},
        {150, 0x1.1538fa5765946p+8, 0x1.81a12b26ceabep+7, 0x1.e4bcd9e00e0c4p+5, 1},
        {200, 0x1.a9b0c83dc6475p+7, 0x1.00bb2e9365b6p+7, 0x1.4a14ccab3edd6p+6, 1},
        {250, 0x1.8bd59af54dce5p+7, 0x1.6f70fcfaebca8p+6, 0x1.c78b8e20a05bcp+5, 1},
        {300, 0x1.9df418a73c9e9p+7, 0x1.9199ef454cab4p+6, 0x1.bb637beda6dc4p+5, -1},
        {350, 0x1.4460e68cc7eebp+7, 0x1.a993ac065c64p+5, 0x1.681011d33ca94p+5, -1},
        {400, 0x1.538d2cd5ac85bp+7, 0x1.7950702861adp+5, 0x1.131bbcd1af964p+5, -1},
      }},
      {"adversarial", "switch?skew=0", {
        {50, 0x1.d22e8ba2e8ba2p+8, 0x1.5b2e8ba2e8ba2p+8, 0x1.3d55555555554p+5, 1},
        {100, 0x1.7eb3333333332p+8, 0x1.df66666666664p+7, 0x1.d071c71c71c7p+5, 1},
        {150, 0x1.21bb512bb512cp+8, 0x1.2176a2576a258p+7, 0x1.bd9435e50d794p+5, 1},
        {200, 0x1.0ea9249249249p+8, 0x1.9ea4924924924p+6, 0x1.fd2f1a9fbe768p+5, 1},
        {250, 0x1.d37a04c8f8d28p+7, 0x1.1af40991f1a5p+6, 0x1.8b9249249249p+5, 1},
        {300, 0x1.de5d6e3f8868ap+6, 0x1.067c1f07c1f08p+6, 0x1.53452380ef2ecp+5, -1},
        {350, 0x1.e960581605816p+6, 0x1.3c3b2303e3fdp+5, 0x1.fa7e9fa7e9fa8p+4, -1},
        {400, 0x1.0acp+7, 0x1.fcf44df833fbp+4, 0x1.7ap+4, -1},
      }},
      {"burst", "switch", {
        {50, 0x1.dc7df8a87a1b8p+6, 0x1.387df8a87a1b8p+6, 0x0p+0, 1},
        {100, 0x1.58becd7315547p+6, 0x1.e2fb35cc5551cp+4, 0x0p+0, 1},
        {150, 0x1.834d0c6d5bf61p+6, 0x1.9d3431b56fd84p+4, 0x1.b800000000004p+5, 1},
        {200, 0x1.8847b39e5350ep+6, 0x1.511ece794d438p+4, 0x1p+4, 1},
        {250, 0x1.82e83f5717c0ap+6, 0x1.7741fab8be05p+3, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.832044d72044ep+6, 0x1.190226b90227p+3, 0x1.a31f8a0902de4p+2, 1},
        {350, 0x1.8a79e79e79e7ap+6, 0x1.279e79e79e7ap+2, 0x1.fdd604c2c253p+0, 1},
        {400, 0x1.87b39503d2263p+6, 0x1.7672a07a44c6p+1, 0x1.888aaf89dfdd8p+1, 1},
      }},
      {"burst", "switch?tie_policy=strict", {
        {50, 0x1.f392c5f92c5f9p+6, 0x1.4f92c5f92c5f9p+6, 0x0p+0, 1},
        {100, 0x1.875c17b242d3dp+6, 0x1.4eb82f6485a7ap+5, 0x0p+0, 1},
        {150, 0x1.84e7dbefbb22ap+6, 0x1.a39f6fbeec8a8p+4, 0x0p+0, 1},
        {200, 0x1.802af2f496034p+6, 0x1.30abcbd2580dp+4, 0x1.9aaaaaaaaaaacp+4, 1},
        {250, 0x1.85e9e2961d84p+6, 0x1.8f4f14b0ec2p+3, 0x1.5555555555556p+3, 1},
        {300, 0x1.7f91cb315cfc9p+6, 0x1.f91cb315cfc9p+2, 0x1.7511a17fa5bacp+3, 1},
        {350, 0x1.952cba432cd0ap+6, 0x1.d2cba432cd0ap+2, 0x1.c3c3c3c3c3c4p+0, 1},
        {400, 0x1.8c5c22b94af4p+6, 0x1.05c22b94af4p+2, 0x1.5261707f8e9dcp+1, 1},
      }},
      {"burst", "switch?memory=all", {
        {50, 0x1.00d43f4d43f4ep+7, 0x1.5da87e9a87e9cp+6, 0x0p+0, 1},
        {100, 0x1.a14ab92c7c58bp+6, 0x1.82957258f8b16p+5, 0x0p+0, 1},
        {150, 0x1.c1b82d1009a1ap+6, 0x1.4b705a2013434p+5, 0x1.b800000000004p+5, 1},
        {200, 0x1.e05e0326ab3bcp+6, 0x1.58bc064d56778p+5, 0x1p+4, 1},
        {250, 0x1.ba816a75efa9ap+6, 0x1.9a05a9d7bea68p+4, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.bd73a7fd67dap+6, 0x1.75ce9ff59f68p+4, 0x1.7c5fee270a98cp+2, 1},
        {350, 0x1.b654aba91a464p+6, 0x1.f2a55d48d232p+3, 0x1.e6ff27cd9b13p+0, 1},
        {400, 0x1.ac806d2b580fcp+6, 0x1.8403695ac07ep+3, 0x1.7d89602eee0cp+1, 1},
      }},
      {"burst", "switch?counting=per-record", {
        {50, 0x1.dc7df8a87a1b8p+6, 0x1.387df8a87a1b8p+6, 0x0p+0, 1},
        {100, 0x1.58becd7315547p+6, 0x1.e2fb35cc5551cp+4, 0x0p+0, 1},
        {150, 0x1.834d0c6d5bf61p+6, 0x1.9d3431b56fd84p+4, 0x1.b800000000004p+5, 1},
        {200, 0x1.8847b39e5350ep+6, 0x1.511ece794d438p+4, 0x1p+4, 1},
        {250, 0x1.82e83f5717c0ap+6, 0x1.7741fab8be05p+3, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.832044d72044ep+6, 0x1.190226b90227p+3, 0x1.a31f8a0902de4p+2, 1},
        {350, 0x1.8a79e79e79e7ap+6, 0x1.279e79e79e7ap+2, 0x1.fdd604c2c253p+0, 1},
        {400, 0x1.87b39503d2263p+6, 0x1.7672a07a44c6p+1, 0x1.888aaf89dfdd8p+1, 1},
      }},
      {"burst", "switch?n_mode=species", {
        {50, 0x1.04ba8b5cdbbaap+9, 0x1.e07516b9b7754p+8, 0x0p+0, 1},
        {100, 0x1.7ead9f0dd10a6p+8, 0x1.46ad9f0dd10a6p+8, 0x0p+0, 1},
        {150, 0x1.6ad5ce30e0024p+8, 0x1.23d5ce30e0024p+8, 0x1.e3ffffffffffap+7, 1},
        {200, 0x1.81799f8adbf58p+8, 0x1.34799f8adbf58p+8, 0x1.a485cd7b900afp+6, 1},
        {250, 0x1.42a1cadf52fb8p+8, 0x1.db4395bea5f7p+7, 0x1.999999999999ap+5, 1},
        {300, 0x1.54e1a79808016p+8, 0x1.f9c34f301002cp+7, 0x1.730fcd6e9e064p+6, 1},
        {350, 0x1.120edbab52bb6p+8, 0x1.681db756a576cp+7, 0x1.247e9df6c7c29p+5, 1},
        {400, 0x1.def356a81411p+7, 0x1.20f356a81411p+7, 0x1.32f908b51d9aep+6, 1},
      }},
      {"burst", "switch?two_sided=1", {
        {50, 0x1.dc7df8a87a1b8p+6, 0x1.387df8a87a1b8p+6, 0x0p+0, 1},
        {100, 0x1.58becd7315547p+6, 0x1.e2fb35cc5551cp+4, 0x0p+0, 1},
        {150, 0x1.4e9a18dab7ebep+5, 0x1.9d3431b56fd84p+4, 0x1.b800000000004p+5, 1},
        {200, 0x1.4847b39e5350ep+6, 0x1.511ece794d438p+4, 0x1p+4, 1},
        {250, 0x1.6676783aa5f98p+6, 0x1.7741fab8be05p+3, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.68ee4c369017p+6, 0x1.190226b90227p+3, 0x1.a31f8a0902de4p+2, 1},
        {350, 0x1.82828f8b6ede5p+6, 0x1.279e79e79e7ap+2, 0x1.fdd604c2c253p+0, 1},
        {400, 0x1.7b6f3f8783274p+6, 0x1.7672a07a44c6p+1, 0x1.888aaf89dfdd8p+1, 1},
      }},
      {"burst", "switch?skew=0", {
        {50, 0x1.c866666666667p+6, 0x1.2466666666667p+6, 0x0p+0, 1},
        {100, 0x1.4d7303b5cc0eep+6, 0x1.b5cc0ed7303b8p+4, 0x0p+0, 1},
        {150, 0x1.834d0c6d5bf61p+6, 0x1.9d3431b56fd84p+4, 0x1.b800000000002p+5, 1},
        {200, 0x1.84590b21642c8p+6, 0x1.41642c8590b2p+4, 0x1p+4, 1},
        {250, 0x1.82e83f5717c0ap+6, 0x1.7741fab8be05p+3, 0x1.c71c71c71c71cp+2, 1},
        {300, 0x1.832044d72044ep+6, 0x1.190226b90227p+3, 0x1.5c28f5c28f5c4p+2, 1},
        {350, 0x1.8a79e79e79e7ap+6, 0x1.279e79e79e7ap+2, 0x1.d89d89d89d89p+0, 1},
        {400, 0x1.87b39503d2263p+6, 0x1.7672a07a44c6p+1, 0x1.02b931057262p+1, 1},
      }},
      {"heavytail", "switch", {
        {50, 0x1.98a5e353f7cecp+6, 0x1.04a5e353f7cecp+6, 0x1.3ffffffffffffp+3, 1},
        {100, 0x1.e1bf6c0755b47p+6, 0x1.eb7ed80eab68ep+5, 0x1.5aaaaaaaaaaaap+4, 1},
        {150, 0x1.0f1088b5243ap+7, 0x1.cc4222d490e8p+5, 0x1.0fffffffffffep+3, 1},
        {200, 0x1.0b28a9af53b7bp+7, 0x1.64a2a6bd4edecp+5, 0x1.42052bf5a814cp+3, 1},
        {250, 0x1.ab1252f2d446bp+6, 0x1.f8929796a2358p+3, 0x1.7ae5a271f77ecp+2, 1},
        {300, 0x1.9d44ade45e6ecp+6, 0x1.2a256f22f376p+3, 0x1.677d46cefa8d8p+1, 1},
        {350, 0x1.99c383fb2017dp+6, 0x1.9c383fb2017dp+2, 0x1.71ec371f6478p+2, 1},
        {400, 0x1.a54a59d7d6679p+6, 0x1.14a59d7d6679p+2, 0x1.dad634080361p+1, 1},
      }},
      {"heavytail", "switch?tie_policy=strict", {
        {50, 0x1.d68aaaaaaaaabp+6, 0x1.428aaaaaaaaabp+6, 0x0p+0, 1},
        {100, 0x1.e1f9add3c0ca4p+6, 0x1.ebf35ba781948p+5, 0x1.b800000000004p+5, 1},
        {150, 0x1.05672a07a44c6p+7, 0x1.a59ca81e91318p+5, 0x1.5555555555556p+3, 1},
        {200, 0x1.01346358501c2p+7, 0x1.3cd18d6140708p+5, 0x1.c9aaaaaaaaaacp+4, 1},
        {250, 0x1.9d2da1895a35dp+6, 0x1.896d0c4ad1ae8p+3, 0x1.70c30c30c30c2p+3, 1},
        {300, 0x1.9302ed01ccc69p+6, 0x1.b02ed01ccc69p+2, 0x1.cbbcad9e8f808p+1, 1},
        {350, 0x1.9b79afa4320b9p+6, 0x1.b79afa4320b9p+2, 0x1.2f8dc1063435p+3, 1},
        {400, 0x1.ac83d7889c45dp+6, 0x1.883d7889c45dp+2, 0x1.7d10e91abeb9p+2, 1},
      }},
      {"heavytail", "switch?memory=all", {
        {50, 0x1.f1a87e9a87e9cp+6, 0x1.5da87e9a87e9cp+6, 0x1.3ffffffffffffp+3, 1},
        {100, 0x1.32ab6aa13eea4p+7, 0x1.7956d5427dd48p+6, 0x1.5aaaaaaaaaaaap+4, 1},
        {150, 0x1.4edb6e24779dep+7, 0x1.65b6dc48ef3bcp+6, 0x1.0fffffffffffep+3, 1},
        {200, 0x1.452d7fc5cde3ep+7, 0x1.265aff8b9bc7cp+6, 0x1.21f9820e4847p+3, 1},
        {250, 0x1.fb9a8998a7b6cp+6, 0x1.1f3513314f6d8p+5, 0x1.6276276276278p+2, 1},
        {300, 0x1.e41bc7cb737e8p+6, 0x1.b06f1f2dcdfap+4, 0x1.6a439f656f18p+1, 1},
        {350, 0x1.e601298e69d3ap+6, 0x1.9804a639a74e8p+4, 0x1.5cp+2, 1},
        {400, 0x1.f7cdcf2e3977p+6, 0x1.8f373cb8e5dcp+4, 0x1.cbf13a16db5bp+1, 1},
      }},
      {"heavytail", "switch?counting=per-record", {
        {50, 0x1.98a5e353f7cecp+6, 0x1.04a5e353f7cecp+6, 0x1.3ffffffffffffp+3, 1},
        {100, 0x1.e1bf6c0755b47p+6, 0x1.eb7ed80eab68ep+5, 0x1.5aaaaaaaaaaaap+4, 1},
        {150, 0x1.0f1088b5243ap+7, 0x1.cc4222d490e8p+5, 0x1.0fffffffffffep+3, 1},
        {200, 0x1.0b28a9af53b7bp+7, 0x1.64a2a6bd4edecp+5, 0x1.42052bf5a814cp+3, 1},
        {250, 0x1.ab1252f2d446bp+6, 0x1.f8929796a2358p+3, 0x1.7ae5a271f77ecp+2, 1},
        {300, 0x1.9d44ade45e6ecp+6, 0x1.2a256f22f376p+3, 0x1.677d46cefa8d8p+1, 1},
        {350, 0x1.99c383fb2017dp+6, 0x1.9c383fb2017dp+2, 0x1.71ec371f6478p+2, 1},
        {400, 0x1.a54a59d7d6679p+6, 0x1.14a59d7d6679p+2, 0x1.dad634080361p+1, 1},
      }},
      {"heavytail", "switch?n_mode=species", {
        {50, 0x1.bd3afef24df5ap+8, 0x1.983afef24df5ap+8, 0x1.9000000000004p+5, 1},
        {100, 0x1.11313b13b13bp+9, 0x1.e76276276276p+8, 0x1.778e38e38e39p+6, 1},
        {150, 0x1.76f3597d88c88p+9, 0x1.4ff3597d88c88p+9, 0x1.e7bp+5, 1},
        {200, 0x1.7f34385ae8ebcp+9, 0x1.52b4385ae8ebcp+9, 0x1.db641511e8d2ap+6, 1},
        {250, 0x1.af5c8dc8dc8ddp+8, 0x1.545c8dc8dc8ddp+8, 0x1.57ab2bedd28e8p+6, 1},
        {300, 0x1.7a990a9419636p+8, 0x1.1c990a9419636p+8, 0x1.db5b6db6db6dcp+5, 1},
        {350, 0x1.67572c773c4fap+8, 0x1.07572c773c4fap+8, 0x1.5393b13b13b12p+7, 1},
        {400, 0x1.5305be1f7c9aap+8, 0x1.dc0b7c3ef9354p+7, 0x1.eccc0d6aa609ep+6, 1},
      }},
      {"heavytail", "switch?two_sided=1", {
        {50, 0x1.70a5e353f7cecp+6, 0x1.04a5e353f7cecp+6, 0x1.3ffffffffffffp+3, 1},
        {100, 0x1.8b14c15cab09cp+6, 0x1.eb7ed80eab68ep+5, 0x1.5aaaaaaaaaaaap+4, 1},
        {150, 0x1.fc21116a4874p+6, 0x1.cc4222d490e8p+5, 0x1.0fffffffffffep+3, 1},
        {200, 0x1.ee10addff26ccp+6, 0x1.64a2a6bd4edecp+5, 0x1.42052bf5a814cp+3, 1},
        {250, 0x1.9363f8cbb4cecp+6, 0x1.f8929796a2358p+3, 0x1.7ae5a271f77ecp+2, 1},
        {300, 0x1.9208c3ade69a5p+6, 0x1.2a256f22f376p+3, 0x1.677d46cefa8d8p+1, 1},
        {350, 0x1.82a4c08929d05p+6, 0x1.9c383fb2017dp+2, 0x1.71ec371f6478p+2, 1},
        {400, 0x1.9673a837964c8p+6, 0x1.14a59d7d6679p+2, 0x1.dad634080361p+1, 1},
      }},
      {"heavytail", "switch?skew=0", {
        {50, 0x1.8bfffffffffffp+6, 0x1.efffffffffffep+5, 0x1.3ffffffffffffp+3, 1},
        {100, 0x1.cb62762762761p+6, 0x1.bec4ec4ec4ec2p+5, 0x1.5aaaaaaaaaaaap+4, 1},
        {150, 0x1.e13b13b13b13cp+6, 0x1.5276276276278p+5, 0x1.0fffffffffffep+3, 1},
        {200, 0x1.d9f01970e4f8p+6, 0x1.d7c065c393ep+4, 0x1.faaaaaaaaaaacp+2, 1},
        {250, 0x1.a2c8590b21643p+6, 0x1.b642c8590b218p+3, 0x1.6a0ea0ea0ea1p+2, 1},
        {300, 0x1.966b29aca6b29p+6, 0x1.e6b29aca6b29p+2, 0x1.677d46cefa8d8p+1, 1},
        {350, 0x1.9590d2a6c405ep+6, 0x1.590d2a6c405ep+2, 0x1.d745d1745d178p+1, 1},
        {400, 0x1.a25a7fb0a899cp+6, 0x1.cb4ff6151338p+1, 0x1.3c3c3c3c3c3cp+1, 1},
      }},
  };
  for (const RecordedRun& want : recorded) {
    SCOPED_TRACE(testing::Message() << want.family << " " << want.spec);
    std::vector<RecordedSample> got = ReplaySwitch(want.family, want.spec);
    ASSERT_EQ(got.size(), want.samples.size());
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "tasks=" << want.samples[i].tasks);
      EXPECT_EQ(got[i].tasks, want.samples[i].tasks);
      EXPECT_EQ(got[i].estimate, want.samples[i].estimate);
      EXPECT_EQ(got[i].remaining_positive,
                want.samples[i].remaining_positive);
      EXPECT_EQ(got[i].remaining_negative,
                want.samples[i].remaining_negative);
      EXPECT_EQ(got[i].direction, want.samples[i].direction);
    }
  }
}

}  // namespace
}  // namespace dqm::estimators
