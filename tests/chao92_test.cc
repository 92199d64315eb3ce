#include "estimators/chao92.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/scenario.h"
#include "crowd/simulator.h"
#include "estimators/registry.h"

namespace dqm::estimators {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

TEST(Chao92EstimatorTest, EmptyGivesZero) {
  Chao92Estimator chao(10);
  EXPECT_DOUBLE_EQ(chao.Estimate(), 0.0);
}

TEST(Chao92EstimatorTest, CleanVotesAreNoOps) {
  Chao92Estimator chao(10);
  for (uint32_t i = 0; i < 10; ++i) {
    chao.Observe({0, 0, i, Vote::kClean});
  }
  EXPECT_DOUBLE_EQ(chao.Estimate(), 0.0);
}

TEST(Chao92EstimatorTest, FullCoverageConverges) {
  // Every item marked dirty twice: no singletons, D = c exactly.
  Chao92Estimator chao(5);
  for (uint32_t round = 0; round < 2; ++round) {
    for (uint32_t i = 0; i < 5; ++i) {
      chao.Observe({round, round, i, Vote::kDirty});
    }
  }
  EXPECT_DOUBLE_EQ(chao.Estimate(), 5.0);
}

TEST(Chao92EstimatorTest, SingletonsInflateEstimate) {
  // 4 doubletons + 2 singletons: estimate must exceed c = 6.
  Chao92Estimator chao(10, /*skew_correction=*/false);
  for (uint32_t i = 0; i < 4; ++i) {
    chao.Observe({0, 0, i, Vote::kDirty});
    chao.Observe({1, 1, i, Vote::kDirty});
  }
  chao.Observe({2, 2, 8, Vote::kDirty});
  chao.Observe({2, 2, 9, Vote::kDirty});
  EXPECT_GT(chao.Estimate(), 6.0);
}

TEST(Chao92EstimatorTest, PaperExampleOneRegression) {
  // Section 3.2.1 Example 1 regenerated end-to-end: 1000 pairs / 100 dups,
  // 20 items per task, 0.9 detection rate, no false positives, 100 tasks.
  // The remaining-error estimate should be small and nearly unbiased
  // (paper: ~16.6 with cnominal ~83; exact values depend on the stream).
  core::Scenario scenario = core::SimulationScenario(0.0, 0.1, 20);
  core::SimulatedRun run = core::SimulateScenario(scenario, 100, 7);
  Chao92Estimator chao(scenario.num_items, /*skew_correction=*/false);
  for (const VoteEvent& event : run.log.events()) chao.Observe(event);
  double nominal = static_cast<double>(run.log.NominalCount());
  EXPECT_GT(nominal, 70.0);
  EXPECT_LT(nominal, 100.0);
  // Total estimate lands near the true 100 (within 15%).
  EXPECT_NEAR(chao.Estimate(), 100.0, 15.0);
}

TEST(Chao92EstimatorTest, FalsePositivesCauseOverestimate) {
  // The singleton-error entanglement (Section 3.2.2): with 1% FP the
  // estimate overshoots the true 100 markedly.
  core::Scenario clean = core::SimulationScenario(0.0, 0.1, 20);
  core::Scenario noisy = core::SimulationScenario(0.01, 0.1, 20);
  core::SimulatedRun run_clean = core::SimulateScenario(clean, 100, 7);
  core::SimulatedRun run_noisy = core::SimulateScenario(noisy, 100, 7);
  Chao92Estimator chao_clean(clean.num_items, false);
  Chao92Estimator chao_noisy(noisy.num_items, false);
  for (const VoteEvent& e : run_clean.log.events()) chao_clean.Observe(e);
  for (const VoteEvent& e : run_noisy.log.events()) chao_noisy.Observe(e);
  EXPECT_GT(chao_noisy.Estimate(), chao_clean.Estimate() + 20.0);
}

TEST(Chao92EstimatorTest, SkewCorrectionAtLeastNoskew) {
  core::Scenario scenario = core::SimulationScenario(0.01, 0.1, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 60, 11);
  Chao92Estimator skew(scenario.num_items, true);
  Chao92Estimator noskew(scenario.num_items, false);
  for (const VoteEvent& e : run.log.events()) {
    skew.Observe(e);
    noskew.Observe(e);
  }
  EXPECT_GE(skew.Estimate(), noskew.Estimate());
}

TEST(JackknifeEstimatorTest, BasicBehavior) {
  JackknifeEstimator jk(10);
  EXPECT_DOUBLE_EQ(jk.Estimate(), 0.0);
  // 3 species, 1 singleton, n = 5: D = 3 + 1 * 4/5.
  jk.Observe({0, 0, 0, Vote::kDirty});
  jk.Observe({0, 0, 1, Vote::kDirty});
  jk.Observe({1, 1, 0, Vote::kDirty});
  jk.Observe({1, 1, 1, Vote::kDirty});
  jk.Observe({2, 2, 2, Vote::kDirty});
  EXPECT_NEAR(jk.Estimate(), 3.0 + 0.8, 1e-12);
  EXPECT_EQ(jk.name(), "JACKKNIFE1");
}

TEST(VChao92EstimatorTest, UsesMajorityNotNominal) {
  // One item: 1 dirty vote then 2 clean votes -> majority clean.
  // Plain Chao92 would report ~1+ species; vChao92's c is 0.
  VChao92Estimator vchao(5, /*shift=*/1);
  vchao.Observe({0, 0, 0, Vote::kDirty});
  vchao.Observe({1, 1, 0, Vote::kClean});
  vchao.Observe({2, 2, 0, Vote::kClean});
  // c_majority = 0, and the shifted f-stats have no f_2 either.
  EXPECT_DOUBLE_EQ(vchao.Estimate(), 0.0);
}

TEST(VChao92EstimatorTest, ShiftSuppressesSingletonNoise) {
  // The false-positive regime vChao92 was designed for: 8 true errors each
  // confirmed by four workers, and 6 false-positive singletons that other
  // workers voted clean (majority clean). Chao92's c_nominal counts the
  // FPs and its f1 is inflated; vChao92 suppresses both.
  auto feed = [](TotalErrorEstimator& estimator) {
    for (uint32_t round = 0; round < 4; ++round) {
      for (uint32_t i = 0; i < 8; ++i) {
        estimator.Observe({round, round, i, Vote::kDirty});
      }
    }
    for (uint32_t i = 8; i < 14; ++i) {
      estimator.Observe({4, 4, i, Vote::kDirty});
      estimator.Observe({5, 5, i, Vote::kClean});
      estimator.Observe({6, 6, i, Vote::kClean});
    }
  };
  Chao92Estimator chao(20, false);
  VChao92Estimator vchao(20, 1, false);
  feed(chao);
  feed(vchao);
  EXPECT_LT(vchao.Estimate(), chao.Estimate());
  // vChao92 lands on the true count (8); Chao92 overestimates it.
  EXPECT_DOUBLE_EQ(vchao.Estimate(), 8.0);
  EXPECT_GT(chao.Estimate(), 14.0);
}

TEST(VChao92EstimatorTest, LargerShiftIsMoreConservative) {
  core::Scenario scenario = core::SimulationScenario(0.02, 0.1, 15);
  core::SimulatedRun run = core::SimulateScenario(scenario, 80, 13);
  VChao92Estimator shift1(scenario.num_items, 1);
  VChao92Estimator shift2(scenario.num_items, 2);
  for (const VoteEvent& e : run.log.events()) {
    shift1.Observe(e);
    shift2.Observe(e);
  }
  EXPECT_LE(shift2.Estimate(), shift1.Estimate() * 1.2);
  EXPECT_EQ(shift1.name(), "V-CHAO");
}

TEST(VChao92EstimatorTest, ShiftSpecMatchesDirectConstruction) {
  core::Scenario scenario = core::SimulationScenario(0.02, 0.12, 10);
  core::SimulatedRun run = core::SimulateScenario(scenario, 120, 11);
  for (uint32_t shift : {0u, 1u, 3u}) {
    SCOPED_TRACE(shift);
    VChao92Estimator direct(scenario.num_items, shift);
    std::unique_ptr<TotalErrorEstimator> by_spec =
        EstimatorRegistry::Global()
            .Create("vchao92?shift=" + std::to_string(shift),
                    scenario.num_items)
            .value();
    for (const VoteEvent& e : run.log.events()) {
      direct.Observe(e);
      by_spec->Observe(e);
      ASSERT_EQ(direct.Estimate(), by_spec->Estimate());
    }
  }
}

}  // namespace
}  // namespace dqm::estimators
