// Warm-start Dawid-Skene regression suite: over a long session of ingest
// batches, (a) the warm-started estimate must track the cold fit of the
// same log state within the tolerance the registry entry declares, and
// (b) the per-batch sweep count must be bounded by the configured constant
// — never by how much history accumulated — which is what makes per-batch
// ingest cost O(#pairs), not O(history x max_iterations).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "crowd/dawid_skene.h"
#include "crowd/response_log.h"
#include "estimators/em_voting.h"
#include "estimators/registry.h"

namespace dqm::crowd {
namespace {

estimators::ConformanceTraits EmTraits() {
  auto entry = estimators::EstimatorRegistry::Global().Find("em-voting");
  EXPECT_TRUE(entry.ok()) << entry.status().ToString();
  return (*entry)->traits;
}

double DeclaredBound(double a, double b) {
  estimators::ConformanceTraits traits = EmTraits();
  EXPECT_GT(traits.estimate_tolerance_abs + traits.estimate_tolerance_rel, 0.0)
      << "em-voting must declare its warm-start tolerance";
  return traits.estimate_tolerance_abs +
         traits.estimate_tolerance_rel * std::max(std::abs(a), std::abs(b));
}

TEST(WarmStartEmTest, IncrementalFromEmptyStateIsExactlyTheColdFit) {
  core::SimulatedRun run =
      core::SimulateScenario(core::SimulationScenario(0.02, 0.1, 10), 120, 5);
  // EM reads the pair matrix a kCounts log keeps; the simulator's log keeps
  // the events, so copy them over.
  ResponseLog log(run.log.num_items(), RetentionPolicy::kCounts);
  for (const VoteEvent& event : run.log.events()) log.Append(event);
  DawidSkene em;
  DawidSkene::Result cold = em.Fit(log);
  DawidSkene::Result incremental;
  DawidSkene::Workspace workspace;
  em.FitIncremental(log, incremental, workspace);
  ASSERT_EQ(incremental.posterior_dirty.size(), cold.posterior_dirty.size());
  for (size_t i = 0; i < cold.posterior_dirty.size(); ++i) {
    ASSERT_EQ(incremental.posterior_dirty[i], cold.posterior_dirty[i]) << i;
  }
  EXPECT_EQ(incremental.prior_dirty, cold.prior_dirty);
  EXPECT_EQ(incremental.iterations, cold.iterations);
  EXPECT_EQ(DawidSkene::DirtyCount(incremental), DawidSkene::DirtyCount(cold));
}

TEST(WarmStartEmTest, LongSessionTracksColdFitWithinDeclaredTolerance) {
  // 400 tasks ingested in 50-vote batches with an estimate after every
  // batch (the serving cadence). At spaced checkpoints the warm estimate is
  // compared against a from-scratch fit of the identical log state.
  core::SimulatedRun run =
      core::SimulateScenario(core::SimulationScenario(0.02, 0.15, 12), 400, 9);
  const std::vector<VoteEvent>& events = run.log.events();
  size_t num_items = run.log.num_items();

  ResponseLog log(num_items, RetentionPolicy::kCounts);
  estimators::EmVotingEstimator warm(log, DawidSkene::Options());
  DawidSkene em;
  size_t checkpoints = 0;
  for (size_t begin = 0; begin < events.size(); begin += 50) {
    size_t end = std::min(begin + 50, events.size());
    for (size_t e = begin; e < end; ++e) log.Append(events[e]);
    double warm_estimate = warm.Estimate();
    if ((begin / 50) % 16 == 0 || end == events.size()) {
      double cold_estimate =
          static_cast<double>(DawidSkene::DirtyCount(em.Fit(log)));
      EXPECT_LE(std::abs(warm_estimate - cold_estimate),
                DeclaredBound(warm_estimate, cold_estimate))
          << "at " << end << " votes";
      ++checkpoints;
    }
  }
  EXPECT_GE(checkpoints, 4u);
}

TEST(WarmStartEmTest, SweepsPerBatchBoundedByConstantNotHistory) {
  core::SimulatedRun run =
      core::SimulateScenario(core::SimulationScenario(0.02, 0.1, 12), 600, 21);
  const std::vector<VoteEvent>& events = run.log.events();

  DawidSkene::Options options;
  ResponseLog log(run.log.num_items(), RetentionPolicy::kCounts);
  estimators::EmVotingEstimator warm(log, options);
  size_t max_warm_sweeps = 0;
  size_t batches = 0;
  for (size_t begin = 0; begin < events.size(); begin += 64) {
    size_t end = std::min(begin + 64, events.size());
    for (size_t e = begin; e < end; ++e) log.Append(events[e]);
    warm.Estimate();
    ++batches;
    if (batches > 1) {
      // Every warm refit obeys the constant cap regardless of how much
      // history the session accumulated.
      EXPECT_LE(warm.last_fit_sweeps(), options.max_incremental_sweeps)
          << "batch " << batches;
      max_warm_sweeps = std::max(max_warm_sweeps, warm.last_fit_sweeps());
    }
  }
  EXPECT_GE(batches, 50u);
  EXPECT_LE(max_warm_sweeps, options.max_incremental_sweeps);
  // And warm refits genuinely undercut the cold budget — the speedup claim.
  EXPECT_LT(max_warm_sweeps, options.max_iterations / 2);
}

TEST(WarmStartEmTest, ColdRefitSpecDisablesWarmState) {
  // "em-voting?warm=0" must reproduce the historical refit-from-scratch
  // behavior: every estimate equals a fresh Fit of the same log, exactly.
  core::SimulatedRun run =
      core::SimulateScenario(core::SimulationScenario(0.02, 0.1, 8), 80, 3);
  const std::vector<VoteEvent>& events = run.log.events();
  size_t num_items = run.log.num_items();

  core::DataQualityMetric cold =
      core::DataQualityMetric::Create(num_items, {"em-voting?warm=0"}).value();
  DawidSkene em;
  for (size_t begin = 0; begin < events.size(); begin += 40) {
    size_t end = std::min(begin + 40, events.size());
    for (size_t e = begin; e < end; ++e) {
      cold.AddVote(events[e].task, events[e].worker, events[e].item,
                   events[e].vote == Vote::kDirty);
    }
    EXPECT_EQ(cold.EstimatedTotalErrors(),
              static_cast<double>(DawidSkene::DirtyCount(em.Fit(cold.log()))))
        << "at " << end << " votes";
  }
}

TEST(WarmStartEmTest, NewWorkersMidStreamEnterAtNeutralRates) {
  ResponseLog log(6, RetentionPolicy::kCounts);
  estimators::EmVotingEstimator warm(log, DawidSkene::Options());
  auto observe = [&](const VoteEvent& event) { log.Append(event); };
  for (uint32_t w = 0; w < 3; ++w) {
    for (uint32_t i = 0; i < 6; ++i) {
      observe({w, w, i, i < 2 ? Vote::kDirty : Vote::kClean});
    }
  }
  EXPECT_DOUBLE_EQ(warm.Estimate(), 2.0);
  // A burst of brand-new workers piles dirty votes on item 2: the warm
  // state must absorb the worker-universe growth (rates resized, fit
  // finite) and stay within the declared tolerance of a cold fit of the
  // same log — whichever basin EM prefers for the contested item.
  for (uint32_t w = 3; w < 10; ++w) {
    observe({w, w, 2, Vote::kDirty});
  }
  double warm_estimate = warm.Estimate();
  DawidSkene em;
  double cold_estimate =
      static_cast<double>(DawidSkene::DirtyCount(em.Fit(log)));
  EXPECT_LE(std::abs(warm_estimate - cold_estimate),
            DeclaredBound(warm_estimate, cold_estimate));
  const DawidSkene::Result& state = warm.FitResult();
  EXPECT_EQ(state.sensitivity.size(), 10u);
  for (double rate : state.sensitivity) {
    EXPECT_TRUE(std::isfinite(rate));
  }
}

}  // namespace
}  // namespace dqm::crowd
