#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/switch_total.h"

namespace dqm::core {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

crowd::ResponseLog MakeLog() {
  crowd::ResponseLog log(6);
  // Three tasks with distinct contents.
  log.Append({0, 0, 0, Vote::kDirty});
  log.Append({0, 0, 1, Vote::kClean});
  log.Append({1, 1, 2, Vote::kDirty});
  log.Append({1, 1, 3, Vote::kDirty});
  log.Append({2, 2, 4, Vote::kClean});
  log.Append({2, 2, 5, Vote::kDirty});
  return log;
}

TEST(PermuteTasksTest, PreservesEventsUpToTaskRenumbering) {
  crowd::ResponseLog log = MakeLog();
  crowd::ResponseLog permuted = PermuteTasks(log, 99);
  EXPECT_EQ(permuted.num_events(), log.num_events());
  EXPECT_EQ(permuted.num_tasks(), log.num_tasks());
  EXPECT_EQ(permuted.num_items(), log.num_items());
  // Per-item tallies unchanged.
  for (size_t i = 0; i < log.num_items(); ++i) {
    EXPECT_EQ(permuted.positive_votes(i), log.positive_votes(i));
    EXPECT_EQ(permuted.total_votes(i), log.total_votes(i));
  }
  // Task contents move together: group events by task and compare the
  // multiset of task signatures (item, vote sequences).
  auto signatures = [](const crowd::ResponseLog& l) {
    std::map<uint32_t, std::vector<std::pair<uint32_t, Vote>>> groups;
    for (const VoteEvent& e : l.events()) {
      groups[e.task].push_back({e.item, e.vote});
    }
    std::vector<std::vector<std::pair<uint32_t, Vote>>> sigs;
    for (auto& [task, sig] : groups) sigs.push_back(sig);
    std::sort(sigs.begin(), sigs.end());
    return sigs;
  };
  EXPECT_EQ(signatures(log), signatures(permuted));
}

TEST(PermuteTasksTest, TaskIdsAreDense) {
  crowd::ResponseLog permuted = PermuteTasks(MakeLog(), 7);
  std::vector<bool> seen(permuted.num_tasks(), false);
  for (const VoteEvent& e : permuted.events()) {
    ASSERT_LT(e.task, permuted.num_tasks());
    seen[e.task] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(PermuteTasksTest, DifferentSeedsGiveDifferentOrders) {
  crowd::ResponseLog log = MakeLog();
  bool any_different = false;
  crowd::ResponseLog base = PermuteTasks(log, 1);
  for (uint64_t seed = 2; seed < 10; ++seed) {
    crowd::ResponseLog other = PermuteTasks(log, seed);
    for (size_t i = 0; i < base.num_events(); ++i) {
      if (!(base.events()[i] == other.events()[i])) {
        any_different = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(SimulateScenarioTest, ProducesExpectedShape) {
  Scenario s = SimulationScenario(0.0, 0.1, 12);
  SimulatedRun run = SimulateScenario(s, 25, 5);
  EXPECT_EQ(run.truth.size(), s.num_items);
  EXPECT_EQ(run.log.num_tasks(), 25u);
  EXPECT_EQ(run.log.num_events(), 25u * 12u);
}

TEST(ExperimentRunnerTest, SeriesShapeAndDeterminism) {
  Scenario s = SimulationScenario(0.01, 0.1, 10);
  SimulatedRun run = SimulateScenario(s, 30, 5);
  ExperimentRunner runner({.permutations = 4, .seed = 11});
  const std::vector<std::string> specs = {"voting", "switch"};
  std::vector<SeriesResult> results_a = runner.Run(run.log, specs).value();
  std::vector<SeriesResult> results_b = runner.Run(run.log, specs).value();
  ASSERT_EQ(results_a.size(), 2u);
  EXPECT_EQ(results_a[0].name, "voting");
  EXPECT_EQ(results_a[0].mean.size(), 30u);
  EXPECT_EQ(results_a[0].std_dev.size(), 30u);
  // Deterministic for a fixed config.
  EXPECT_EQ(results_a[1].mean, results_b[1].mean);
}

TEST(ExperimentRunnerTest, VotingMeanMatchesUnpermutedFinal) {
  // The final VOTING count is permutation-invariant (it only depends on
  // the tallies), so the mean at the last task equals the direct count and
  // its std-dev is zero.
  Scenario s = SimulationScenario(0.02, 0.2, 10);
  SimulatedRun run = SimulateScenario(s, 40, 9);
  ExperimentRunner runner({.permutations = 5, .seed = 3});
  std::vector<SeriesResult> results =
      runner.Run(run.log, std::vector<std::string>{"voting"}).value();
  EXPECT_DOUBLE_EQ(results[0].mean.back(),
                   static_cast<double>(run.log.MajorityCount()));
  EXPECT_DOUBLE_EQ(results[0].std_dev.back(), 0.0);
}

TEST(ExperimentRunnerTest, BadSpecFailsBeforeAnyReplay) {
  SimulatedRun run = SimulateScenario(SimulationScenario(0.0, 0.1, 10), 5, 1);
  ExperimentRunner runner({.permutations = 2, .seed = 3});
  EXPECT_EQ(runner.Run(run.log, std::vector<std::string>{"voting", "chao93"})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(runner.Run(run.log, std::vector<std::string>{"switch?winow=9"})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ExperimentRunnerTest, SwitchDiagnosticsShapes) {
  Scenario s = SimulationScenario(0.02, 0.1, 10);
  SimulatedRun run = SimulateScenario(s, 20, 7);
  ExperimentRunner runner({.permutations = 3, .seed = 1});
  estimators::SwitchTotalErrorEstimator::Config config;
  auto diag = runner.RunSwitchDiagnostics(run.log, s.num_items, run.truth,
                                          config);
  EXPECT_EQ(diag.remaining_positive_estimate.mean.size(), 20u);
  EXPECT_EQ(diag.remaining_negative_estimate.mean.size(), 20u);
  EXPECT_EQ(diag.needed_positive_truth.mean.size(), 20u);
  EXPECT_EQ(diag.needed_negative_truth.mean.size(), 20u);
  // Ground-truth needed-positive starts near the full error count (nothing
  // found yet) and declines as coverage grows.
  EXPECT_GT(diag.needed_positive_truth.mean.front(), 90.0);
  EXPECT_LT(diag.needed_positive_truth.mean.back(),
            diag.needed_positive_truth.mean.front());
}

TEST(ExperimentRunnerTest, RunWorkloadScoresEverySpecAgainstTruth) {
  ExperimentRunner::Config config;
  config.seed = 5;
  ExperimentRunner runner(config);
  std::vector<std::string> specs = {"switch", "chao92", "voting"};
  Result<ExperimentRunner::WorkloadReport> report = runner.RunWorkload(
      "adversarial?n=120&dirty=25&tasks=80&fraction=0.3", specs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_items, 120u);
  EXPECT_EQ(report->num_dirty, 25u);
  EXPECT_GT(report->num_votes, 0u);
  EXPECT_GT(report->num_batches, 0u);
  ASSERT_EQ(report->cells.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report->cells[i].spec, specs[i]);
    EXPECT_EQ(report->cells[i].abs_error,
              std::abs(report->cells[i].total_errors - 25.0));
  }
  EXPECT_EQ(report->cells[0].name, "SWITCH");

  // Deterministic per runner seed.
  Result<ExperimentRunner::WorkloadReport> again = runner.RunWorkload(
      "adversarial?n=120&dirty=25&tasks=80&fraction=0.3", specs);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report->cells[i].total_errors, again->cells[i].total_errors);
  }
}

TEST(ExperimentRunnerTest, RunWorkloadReportsBadSpecsAsErrors) {
  ExperimentRunner runner(ExperimentRunner::Config{});
  std::vector<std::string> specs = {"switch"};
  EXPECT_EQ(runner.RunWorkload("tsunami", specs).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      runner.RunWorkload("drift?walk=-1", specs).status().code(),
      StatusCode::kInvalidArgument);
  std::vector<std::string> bad_estimators = {"chao93"};
  EXPECT_EQ(runner.RunWorkload("benign", bad_estimators).status().code(),
            StatusCode::kNotFound);
}

TEST(SampleCleanMinimumTest, PaperFormula) {
  // 3 workers x S records / (p records per task): S=100, p=10 -> 30 tasks.
  EXPECT_DOUBLE_EQ(SampleCleanMinimumTasks(100, 10), 30.0);
  EXPECT_DOUBLE_EQ(SampleCleanMinimumTasks(1264, 10), 379.2);
  EXPECT_DOUBLE_EQ(SampleCleanMinimumTasks(100, 10, 5), 50.0);
}

}  // namespace
}  // namespace dqm::core
