// Tests for per-item difficulty (CrowdSimulator::SetItemNoise) and the
// Chao1 extra baseline.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "crowd/assignment.h"
#include "crowd/simulator.h"

namespace dqm {
namespace {

using crowd::CrowdSimulator;
using crowd::ItemNoise;
using crowd::ResponseLog;
using crowd::UniformAssignment;
using crowd::Vote;
using crowd::WorkerPool;

CrowdSimulator MakePerfectWorkerSim(size_t num_items, size_t dirty_prefix,
                                    uint64_t seed) {
  std::vector<bool> truth(num_items, false);
  for (size_t i = 0; i < dirty_prefix; ++i) truth[i] = true;
  WorkerPool::Config pool;  // perfect workers; only item noise causes errors
  CrowdSimulator::Config config;
  config.seed = seed;
  return CrowdSimulator(
      std::move(truth),
      std::make_unique<UniformAssignment>(num_items, num_items),
      WorkerPool(pool, Rng(seed)), config);
}

TEST(ItemNoiseTest, HardDirtyItemsGetMissed) {
  const size_t num_items = 400;
  CrowdSimulator sim = MakePerfectWorkerSim(num_items, 200, 9);
  std::vector<ItemNoise> noise(num_items);
  for (size_t i = 0; i < 100; ++i) {
    noise[i].extra_false_negative = 0.5f;  // items 0..99 are hard
  }
  sim.SetItemNoise(std::move(noise));
  ResponseLog log(num_items);
  sim.RunTasks(log, 30);  // every task covers all items

  size_t hard_missed = 0, easy_missed = 0;
  for (const crowd::VoteEvent& event : log.events()) {
    if (event.item < 100 && event.vote == Vote::kClean) ++hard_missed;
    if (event.item >= 100 && event.item < 200 &&
        event.vote == Vote::kClean) {
      ++easy_missed;
    }
  }
  // Hard items are missed ~50% of the time; easy dirty items never
  // (workers themselves are perfect).
  EXPECT_EQ(easy_missed, 0u);
  EXPECT_NEAR(static_cast<double>(hard_missed) / (100.0 * 30.0), 0.5, 0.05);
}

TEST(ItemNoiseTest, ConfusingCleanItemsGetFlagged) {
  const size_t num_items = 300;
  CrowdSimulator sim = MakePerfectWorkerSim(num_items, 0, 11);
  std::vector<ItemNoise> noise(num_items);
  for (size_t i = 0; i < 50; ++i) {
    noise[i].extra_false_positive = 0.3f;
  }
  sim.SetItemNoise(std::move(noise));
  ResponseLog log(num_items);
  sim.RunTasks(log, 40);
  size_t confusing_fp = 0, plain_fp = 0;
  for (const crowd::VoteEvent& event : log.events()) {
    if (event.vote != Vote::kDirty) continue;
    if (event.item < 50) {
      ++confusing_fp;
    } else {
      ++plain_fp;
    }
  }
  EXPECT_EQ(plain_fp, 0u);
  EXPECT_NEAR(static_cast<double>(confusing_fp) / (50.0 * 40.0), 0.3, 0.05);
}

TEST(ItemNoiseTest, EmptyNoiseIsNoOp) {
  CrowdSimulator a = MakePerfectWorkerSim(50, 10, 13);
  CrowdSimulator b = MakePerfectWorkerSim(50, 10, 13);
  b.SetItemNoise({});
  ResponseLog log_a(50), log_b(50);
  a.RunTasks(log_a, 5);
  b.RunTasks(log_b, 5);
  ASSERT_EQ(log_a.num_events(), log_b.num_events());
  for (size_t i = 0; i < log_a.num_events(); ++i) {
    EXPECT_EQ(log_a.events()[i], log_b.events()[i]);
  }
}

TEST(ItemNoiseDeathTest, MisalignedNoiseAborts) {
  CrowdSimulator sim = MakePerfectWorkerSim(50, 10, 13);
  EXPECT_DEATH(sim.SetItemNoise(std::vector<ItemNoise>(7)), "align");
}

TEST(ItemNoiseTest, ScenarioBuildsNoiseDeterministically) {
  core::Scenario scenario = core::ProductScenario();
  scenario.num_items = 500;
  scenario.num_candidates = 500;
  scenario.dirty_in_candidates = 50;
  core::SimulatedRun a = core::SimulateScenario(scenario, 20, 21);
  core::SimulatedRun b = core::SimulateScenario(scenario, 20, 21);
  ASSERT_EQ(a.log.num_events(), b.log.num_events());
  for (size_t i = 0; i < a.log.num_events(); ++i) {
    EXPECT_EQ(a.log.events()[i], b.log.events()[i]);
  }
}

/// Feeds `events` into a fresh one-row "chao1" metric.
core::DataQualityMetric Chao1After(size_t num_items,
                                   const std::vector<crowd::VoteEvent>& events) {
  core::DataQualityMetric chao1 =
      core::DataQualityMetric::Create(num_items, {"chao1"}).value();
  for (const crowd::VoteEvent& event : events) {
    chao1.AddVote(event.task, event.worker, event.item,
                  event.vote == Vote::kDirty);
  }
  return chao1;
}

TEST(Chao1ScoreTest, HandComputedValue) {
  EXPECT_DOUBLE_EQ(Chao1After(10, {}).EstimatedTotalErrors(), 0.0);
  // 3 singletons, 1 doubleton: c=4, f1=3, f2=1.
  // D = 4 + 3*2 / (2*(1+1)) = 5.5.
  core::DataQualityMetric chao1 = Chao1After(
      10, {{0, 0, 0, Vote::kDirty}, {0, 0, 1, Vote::kDirty},
           {0, 0, 2, Vote::kDirty}, {1, 1, 5, Vote::kDirty},
           {2, 2, 5, Vote::kDirty}});
  EXPECT_DOUBLE_EQ(chao1.EstimatedTotalErrors(), 5.5);
  EXPECT_EQ(chao1.method_name(), "CHAO1");
}

TEST(Chao1ScoreTest, NoSingletonsGivesObservedCount) {
  std::vector<crowd::VoteEvent> events;
  for (uint32_t round = 0; round < 2; ++round) {
    for (uint32_t i = 0; i < 5; ++i) {
      events.push_back({round, round, i, Vote::kDirty});
    }
  }
  EXPECT_DOUBLE_EQ(Chao1After(5, events).EstimatedTotalErrors(), 5.0);
}

TEST(Chao1ScoreTest, SharesChao92FalsePositiveFragility) {
  // Under FP noise Chao1, like Chao92, overestimates — the reason the
  // paper needed a different estimator.
  core::Scenario scenario = core::SimulationScenario(0.01, 0.1, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 400, 5);
  EXPECT_GT(Chao1After(scenario.num_items, run.log.events())
                .EstimatedTotalErrors(),
            130.0);  // truth is 100
}

}  // namespace
}  // namespace dqm
