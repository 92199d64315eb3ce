// Regression coverage for the parallel ExperimentRunner and the explicit
// per-permutation seeding contract it depends on.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "estimators/switch_total.h"
#include "lockstep_feed.h"

namespace dqm::core {
namespace {

const std::vector<std::string> kSpecs = {"voting", "chao92", "switch"};

TEST(PermutationSeedTest, PinnedValues) {
  // The seed schedule is a compatibility contract: serial and pool-parallel
  // replays, and any external tool re-deriving a permutation, must all agree.
  // These constants were produced by PermutationSeed itself and pin the
  // base ^ splitmix64(index) formula.
  EXPECT_EQ(PermutationSeed(42, 0), 16294208416658607493ULL);
  EXPECT_EQ(PermutationSeed(42, 1), 10451216379200822507ULL);
  EXPECT_EQ(PermutationSeed(42, 2), 10905525725756348132ULL);
  EXPECT_EQ(PermutationSeed(7, 0), 16294208416658607528ULL);
  EXPECT_EQ(PermutationSeed(7, 1), 10451216379200822470ULL);
  EXPECT_EQ(PermutationSeed(7, 2), 10905525725756348105ULL);
}

TEST(PermutationSeedTest, DependsOnlyOnBaseAndIndex) {
  EXPECT_EQ(PermutationSeed(42, 5), PermutationSeed(42, 5));
  EXPECT_NE(PermutationSeed(42, 5), PermutationSeed(42, 6));
  EXPECT_NE(PermutationSeed(42, 5), PermutationSeed(43, 5));
}

TEST(ExperimentRunnerParallelTest, RunnerUsesThePermutationSeedSchedule) {
  // Pins the runner to the documented schedule: permutation p replays
  // PermuteTasks(log, PermutationSeed(seed, p)). If the runner's internal
  // seeding drifts, this known series stops matching.
  Scenario s = SimulationScenario(0.01, 0.1, 10);
  SimulatedRun run = SimulateScenario(s, 25, 5);
  const uint64_t kSeed = 11;
  const size_t kPermutations = 3;

  ExperimentRunner runner({.permutations = kPermutations, .seed = kSeed});
  std::vector<SeriesResult> results =
      runner.Run(run.log, std::vector<std::string>{"switch"}).value();

  // Reference: a directly constructed SWITCH estimator over each permuted
  // log, sampled after every task.
  std::vector<std::vector<double>> expected_rows;
  for (size_t p = 0; p < kPermutations; ++p) {
    crowd::ResponseLog permuted =
        PermuteTasks(run.log, PermutationSeed(kSeed, p));
    test::LockstepFeed<estimators::SwitchTotalErrorEstimator> estimator(
        s.num_items);
    std::vector<double> series;
    const std::vector<crowd::VoteEvent>& events = permuted.events();
    for (size_t e = 0; e < events.size(); ++e) {
      if (e > 0 && events[e].task != events[e - 1].task) {
        series.push_back(estimator.Estimate());
      }
      estimator.Observe(events[e]);
    }
    series.push_back(estimator.Estimate());
    expected_rows.push_back(std::move(series));
  }
  SeriesBand expected = AggregateSeries(expected_rows);
  EXPECT_EQ(results[0].mean, expected.mean);
  EXPECT_EQ(results[0].std_dev, expected.std_dev);
}

TEST(ExperimentRunnerParallelTest, ParallelRunBitIdenticalToSerial) {
  Scenario s = SimulationScenario(0.01, 0.1, 10);
  SimulatedRun run = SimulateScenario(s, 40, 9);
  ExperimentRunner serial({.permutations = 6, .seed = 17, .threads = 1});
  std::vector<SeriesResult> serial_results =
      serial.Run(run.log, kSpecs).value();
  for (size_t threads : {2u, 4u, 8u}) {
    ExperimentRunner parallel(
        {.permutations = 6, .seed = 17, .threads = threads});
    std::vector<SeriesResult> parallel_results =
        parallel.Run(run.log, kSpecs).value();
    ASSERT_EQ(parallel_results.size(), serial_results.size());
    for (size_t f = 0; f < serial_results.size(); ++f) {
      EXPECT_EQ(parallel_results[f].name, serial_results[f].name);
      // Element-wise double equality: bit-identical, not approximately equal.
      EXPECT_EQ(parallel_results[f].mean, serial_results[f].mean)
          << "threads=" << threads << " spec=" << serial_results[f].name;
      EXPECT_EQ(parallel_results[f].std_dev, serial_results[f].std_dev)
          << "threads=" << threads << " spec=" << serial_results[f].name;
    }
  }
}

TEST(ExperimentRunnerParallelTest, HardwareThreadsModeMatchesSerial) {
  Scenario s = SimulationScenario(0.02, 0.15, 8);
  SimulatedRun run = SimulateScenario(s, 20, 13);
  ExperimentRunner serial({.permutations = 4, .seed = 3, .threads = 1});
  ExperimentRunner hardware({.permutations = 4, .seed = 3, .threads = 0});
  std::vector<SeriesResult> a = serial.Run(run.log, kSpecs).value();
  std::vector<SeriesResult> b = hardware.Run(run.log, kSpecs).value();
  for (size_t f = 0; f < a.size(); ++f) {
    EXPECT_EQ(a[f].mean, b[f].mean);
    EXPECT_EQ(a[f].std_dev, b[f].std_dev);
  }
}

TEST(ExperimentRunnerParallelTest, SwitchDiagnosticsBitIdenticalToSerial) {
  Scenario s = SimulationScenario(0.02, 0.1, 10);
  SimulatedRun run = SimulateScenario(s, 20, 7);
  estimators::SwitchTotalErrorEstimator::Config config;

  ExperimentRunner serial({.permutations = 3, .seed = 1, .threads = 1});
  ExperimentRunner parallel({.permutations = 3, .seed = 1, .threads = 4});
  auto a = serial.RunSwitchDiagnostics(run.log, s.num_items, run.truth, config);
  auto b =
      parallel.RunSwitchDiagnostics(run.log, s.num_items, run.truth, config);

  EXPECT_EQ(a.remaining_positive_estimate.mean,
            b.remaining_positive_estimate.mean);
  EXPECT_EQ(a.remaining_negative_estimate.mean,
            b.remaining_negative_estimate.mean);
  EXPECT_EQ(a.needed_positive_truth.mean, b.needed_positive_truth.mean);
  EXPECT_EQ(a.needed_negative_truth.mean, b.needed_negative_truth.mean);
  EXPECT_EQ(a.remaining_positive_estimate.std_dev,
            b.remaining_positive_estimate.std_dev);
  EXPECT_EQ(a.needed_negative_truth.std_dev, b.needed_negative_truth.std_dev);
}

}  // namespace
}  // namespace dqm::core
