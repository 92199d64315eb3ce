// Metamorphic conformance suite: every registered estimator is checked
// against the properties it declares (estimators::ConformanceTraits) under
// every registered workload family. Registering a new estimator — or a new
// workload — automatically enrolls it here; nothing in this file names a
// specific estimator or family.

#include "conformance/conformance_utils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "crowd/response_log.h"

namespace dqm::conformance {
namespace {

constexpr uint64_t kSeed = 20260728;

std::vector<std::string> EstimatorNames() {
  return estimators::EstimatorRegistry::Global().Names();
}

/// Replays `events` into a fresh log so core::PermuteTasks can be used on
/// inputs that only exist as event vectors.
crowd::ResponseLog ToLog(size_t num_items,
                         const std::vector<crowd::VoteEvent>& events) {
  crowd::ResponseLog log(num_items);
  for (const crowd::VoteEvent& event : events) log.Append(event);
  return log;
}

TEST(EstimatorConformanceTest, EstimatesAreFiniteAndNonNegativeEverywhere) {
  // Universal property: no registered estimator may produce NaN, infinity,
  // or a negative total on any workload family.
  for (const std::string& workload_spec : ConformanceWorkloadSpecs()) {
    workload::GeneratedWorkload run = MustGenerate(workload_spec, kSeed);
    for (const std::string& name : EstimatorNames()) {
      double estimate =
          OneRowEstimate(name, run.log.num_items(), run.log.events());
      EXPECT_TRUE(std::isfinite(estimate))
          << name << " on " << workload_spec;
      EXPECT_GE(estimate, 0.0) << name << " on " << workload_spec;
    }
  }
}

TEST(EstimatorConformanceTest, PermutationInvariantEstimatorsSurviveShuffles) {
  // Estimators declaring permutation_invariant must be bit-identical under
  // any task-order permutation of the vote stream.
  for (const std::string& workload_spec : ConformanceWorkloadSpecs()) {
    workload::GeneratedWorkload run = MustGenerate(workload_spec, kSeed);
    for (const std::string& name : EstimatorNames()) {
      if (!TraitsFor(name).permutation_invariant) continue;
      double baseline =
          OneRowEstimate(name, run.log.num_items(), run.log.events());
      for (uint64_t permutation = 0; permutation < 3; ++permutation) {
        crowd::ResponseLog permuted =
            core::PermuteTasks(run.log, kSeed + permutation);
        double shuffled = OneRowEstimate(name, permuted.num_items(),
                                         permuted.events());
        EXPECT_EQ(baseline, shuffled)
            << name << " on " << workload_spec << ", permutation "
            << permutation;
      }
    }
  }
}

TEST(EstimatorConformanceTest, WithinTaskReorderIsInvisible) {
  // Items are distinct within a task, so reordering inside a task preserves
  // every per-item vote sequence; estimators declaring
  // within_task_invariant (including order-sensitive SWITCH) must not move.
  for (const std::string& workload_spec : ConformanceWorkloadSpecs()) {
    workload::GeneratedWorkload run = MustGenerate(workload_spec, kSeed);
    std::vector<crowd::VoteEvent> shuffled =
        ShuffleWithinTasks(run.log.events(), kSeed ^ 0xabcd);
    for (const std::string& name : EstimatorNames()) {
      if (!TraitsFor(name).within_task_invariant) continue;
      EXPECT_EQ(OneRowEstimate(name, run.log.num_items(), run.log.events()),
                OneRowEstimate(name, run.log.num_items(), shuffled))
          << name << " on " << workload_spec;
    }
  }
}

TEST(EstimatorConformanceTest, DuplicationInvariantsAndMonotonicity) {
  for (const std::string& workload_spec : ConformanceWorkloadSpecs()) {
    workload::GeneratedWorkload run = MustGenerate(workload_spec, kSeed);
    std::vector<crowd::VoteEvent> doubled = DuplicateLog(run.log.events());

    // Ingesting the log twice doubles every tally, which preserves the
    // majority labels and the at-least-one-dirty-vote set.
    crowd::ResponseLog doubled_log = ToLog(run.log.num_items(), doubled);
    EXPECT_EQ(run.log.MajorityCount(), doubled_log.MajorityCount())
        << workload_spec;
    EXPECT_EQ(run.log.NominalCount(), doubled_log.NominalCount())
        << workload_spec;

    for (const std::string& name : EstimatorNames()) {
      if (!TraitsFor(name).duplication_invariant) continue;
      EXPECT_EQ(
          OneRowEstimate(name, run.log.num_items(), run.log.events()),
          OneRowEstimate(name, run.log.num_items(), doubled))
          << name << " on " << workload_spec;
    }
  }
}

TEST(EstimatorConformanceTest, DirtyVotesOnlyGrowMonotoneEstimators) {
  // Estimators declaring monotone_in_dirty_votes must never shrink as
  // additional dirty votes arrive, one at a time, on arbitrary items.
  const std::string workload_spec = ConformanceWorkloadSpecs().front();
  workload::GeneratedWorkload run = MustGenerate(workload_spec, kSeed);
  size_t num_items = run.log.num_items();
  Rng rng(kSeed ^ 0x5a5a);

  for (const std::string& name : EstimatorNames()) {
    if (!TraitsFor(name).monotone_in_dirty_votes) continue;
    core::DataQualityMetric metric =
        ReplayPipeline(num_items, {name}, run.log.events());
    double last = metric.EstimatedTotalErrors();
    uint32_t task = static_cast<uint32_t>(run.log.num_tasks());
    uint32_t worker = static_cast<uint32_t>(run.log.num_workers());
    for (int extra = 0; extra < 200; ++extra) {
      auto item = static_cast<uint32_t>(rng.UniformIndex(num_items));
      metric.AddVote(task + static_cast<uint32_t>(extra),
                     worker + static_cast<uint32_t>(extra), item,
                     /*is_dirty=*/true);
      double now = metric.EstimatedTotalErrors();
      EXPECT_GE(now, last) << name << " shrank after extra dirty vote "
                           << extra;
      last = now;
    }
  }
}

TEST(EstimatorConformanceTest, NRowPanelMatchesEachOneRowPanel) {
  // N-row vs one-row bit-identity on randomized panels: every registered
  // estimator plus randomized param variants of the parameterized ones,
  // shuffled into one panel over one vote stream, must reproduce each row's
  // one-row panel exactly — no row may see another row's state.
  Rng rng(kSeed ^ 0xfeed);
  std::vector<std::string> workload_specs = ConformanceWorkloadSpecs();
  for (int round = 0; round < 4; ++round) {
    const std::string& workload_spec =
        workload_specs[rng.UniformIndex(workload_specs.size())];
    workload::GeneratedWorkload run =
        MustGenerate(workload_spec, kSeed + static_cast<uint64_t>(round));

    std::vector<std::string> panel = EstimatorNames();
    panel.push_back(StrFormat("vchao92?shift=%llu",
                              static_cast<unsigned long long>(
                                  rng.UniformIndex(4))));
    panel.push_back(StrFormat("switch?tau=%llu&two_sided=%d",
                              static_cast<unsigned long long>(
                                  10 + rng.UniformIndex(40)),
                              rng.Bernoulli(0.5) ? 1 : 0));
    panel.push_back(StrFormat("em-voting?max_iters=%llu",
                              static_cast<unsigned long long>(
                                  5 + rng.UniformIndex(30))));
    rng.Shuffle(panel);

    core::DataQualityMetric pipeline =
        ReplayPipeline(run.log.num_items(), panel, run.log.events());
    core::DataQualityMetric::QualityReport report = pipeline.Report();
    ASSERT_EQ(report.estimators.size(), panel.size());
    for (size_t i = 0; i < panel.size(); ++i) {
      // Bit-identity for bit-stable estimators; estimators that declare a
      // re-estimation tolerance (warm-started EM) are held to that bound.
      ExpectEstimatesAgree(TraitsFor(panel[i]),
                           OneRowEstimate(panel[i], run.log.num_items(),
                                          run.log.events()),
                           report.estimators[i].total_errors,
                           panel[i] + " on " + workload_spec + ", round " +
                               std::to_string(round));
    }
  }
}

}  // namespace
}  // namespace dqm::conformance
