// Integration tests: the full pipeline from dataset generation through
// blocking, crowd simulation, and estimation — the library working the way
// the paper's deployments did.

#include <memory>

#include <gtest/gtest.h>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "crowd/simulator.h"
#include "dataset/address.h"
#include "dataset/restaurant_generator.h"
#include "er/crowder.h"

namespace dqm {
namespace {

TEST(EndToEndTest, RestaurantPipelineEstimatesCandidateErrors) {
  // 1. Generate a restaurant dataset with known duplicates.
  dataset::RestaurantConfig config;
  config.num_entities = 400;
  config.num_duplicates = 50;
  config.seed = 31;
  auto generated = dataset::GenerateRestaurantDataset(config);
  ASSERT_TRUE(generated.ok());

  // 2. Stage one of CrowdER: similarity partition of the pair space.
  er::GroundTruth ground_truth(generated->duplicate_pairs);
  er::CandidateGenerator generator(0.45, 0.95, "name");
  auto problem =
      er::BuildCrowdErProblem(generated->table, ground_truth, generator,
                              er::BlockingStrategy::kTokenBlocking);
  ASSERT_TRUE(problem.ok());
  ASSERT_GT(problem->candidates.size(), 50u);
  ASSERT_GT(problem->num_dirty_candidates, 10u);

  // 3. Stage two: crowd votes on the candidates.
  crowd::WorkerPool::Config pool_config;
  pool_config.base = {0.02, 0.15};
  crowd::CrowdSimulator::Config sim_config;
  sim_config.seed = 77;
  size_t num_candidates = problem->candidates.size();
  crowd::CrowdSimulator simulator(
      std::vector<bool>(problem->truth),
      std::make_unique<crowd::UniformAssignment>(num_candidates, 10),
      crowd::WorkerPool(pool_config, Rng(5)), sim_config);
  crowd::ResponseLog log(num_candidates);
  size_t num_tasks = num_candidates;  // ~10 votes per item
  simulator.RunTasks(log, num_tasks);

  // 4. The DQM estimate over the candidate set approaches the true number
  // of dirty candidates.
  core::DataQualityMetric metric(num_candidates);
  for (const crowd::VoteEvent& event : log.events()) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
  }
  double truth = static_cast<double>(problem->num_dirty_candidates);
  EXPECT_NEAR(metric.EstimatedTotalErrors(), truth, truth * 0.5 + 5.0);
}

TEST(EndToEndTest, AddressPipelineWithRuleValidatorAsPrefilter) {
  // Generate addresses, validate with the rule engine, and confirm the
  // rule engine's blind spot (fake-but-well-formed) is the long tail the
  // crowd+DQM machinery is needed for.
  auto generated = dataset::GenerateAddressDataset({});
  ASSERT_TRUE(generated.ok());
  dataset::AddressValidator validator;
  size_t rule_detected = 0;
  size_t undetectable = 0;
  for (size_t row : generated->data.dirty_rows) {
    if (validator.Validate(generated->data.table.cell(row, 1)).valid) {
      ++undetectable;
    } else {
      ++rule_detected;
    }
  }
  EXPECT_EQ(rule_detected + undetectable, 90u);
  EXPECT_GT(undetectable, 0u);   // the long tail exists
  EXPECT_GT(rule_detected, 45u);  // but rules catch most classes

  // The crowd can see what the rules cannot: simulate and estimate. The
  // address crowd has both error types (fp 0.05 / fn 0.25), the paper's
  // hardest real-data regime; SWITCH overestimates before converging
  // (Figure 5), so give it the full run before asserting.
  core::Scenario scenario = core::AddressScenario();
  core::SimulatedRun run = core::SimulateScenario(scenario, 1600, 13);
  core::DataQualityMetric metric(scenario.num_items);
  for (const crowd::VoteEvent& event : run.log.events()) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
  }
  EXPECT_NEAR(metric.EstimatedTotalErrors(), 90.0, 35.0);
}

TEST(EndToEndTest, SwitchBeatsChaoUnderFalsePositives) {
  // The paper's central comparison as one assertion: run the same noisy
  // log through SWITCH and CHAO92; SWITCH must have lower absolute error.
  core::Scenario scenario = core::SimulationScenario(0.01, 0.1, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 600, 19);
  core::ExperimentRunner runner({.permutations = 5, .seed = 23});
  std::vector<core::SeriesResult> results =
      runner.Run(run.log, std::vector<std::string>{"switch", "chao92"})
          .value();
  double switch_final = results[0].mean.back();
  double chao_final = results[1].mean.back();
  EXPECT_LT(std::abs(switch_final - 100.0), std::abs(chao_final - 100.0));
}

TEST(EndToEndTest, PrioritizedCrowdCoversComplementErrors) {
  // Imperfect heuristic: 20% of errors live outside R_H. With epsilon
  // sampling the estimator sees them; with epsilon = 0 it cannot
  // (Section 5.3's argument for randomization).
  auto estimate_with_epsilon = [](double epsilon) {
    core::Scenario scenario = core::PrioritizationScenario(0.2, epsilon);
    core::SimulatedRun run = core::SimulateScenario(scenario, 3000, 3);
    core::DataQualityMetric metric(scenario.num_items);
    for (const crowd::VoteEvent& event : run.log.events()) {
      metric.AddVote(event.task, event.worker, event.item,
                     event.vote == crowd::Vote::kDirty);
    }
    return metric.EstimatedTotalErrors();
  };

  core::Scenario scenario = core::PrioritizationScenario(0.2, 0.1);
  core::SimulatedRun run = core::SimulateScenario(scenario, 3000, 3);
  size_t complement_votes = 0;
  for (const crowd::VoteEvent& event : run.log.events()) {
    if (event.item >= scenario.num_candidates) ++complement_votes;
  }
  // Roughly epsilon of the votes land on complement items.
  EXPECT_GT(complement_votes, run.log.num_events() / 20);

  double with_sampling = estimate_with_epsilon(0.1);
  double without_sampling = estimate_with_epsilon(0.0);
  // epsilon = 0 caps the estimate at R_H's errors (~80); epsilon = 0.1
  // surfaces the complement's 20 as well. Sparse complement coverage makes
  // the full-R estimate noisier, hence the loose upper band.
  EXPECT_LT(without_sampling, 100.0);
  EXPECT_GT(with_sampling, without_sampling);
  EXPECT_NEAR(with_sampling, 100.0, 75.0);
}

}  // namespace
}  // namespace dqm
