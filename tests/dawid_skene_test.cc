#include "crowd/dawid_skene.h"

#include <memory>

#include <gtest/gtest.h>

#include "crowd/assignment.h"
#include "crowd/simulator.h"
#include "estimators/em_voting.h"

namespace dqm::crowd {
namespace {

TEST(DawidSkeneTest, EmptyLogGivesPrior) {
  DawidSkene em;
  ResponseLog log(5, RetentionPolicy::kCounts);
  DawidSkene::Result result = em.Fit(log);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.posterior_dirty.size(), 5u);
  for (double p : result.posterior_dirty) {
    EXPECT_DOUBLE_EQ(p, 0.5);
  }
}

TEST(DawidSkeneTest, UnanimousVotesGiveConfidentPosteriors) {
  ResponseLog log(2, RetentionPolicy::kCounts);
  for (uint32_t w = 0; w < 5; ++w) {
    log.Append({w, w, 0, Vote::kDirty});
    log.Append({w, w, 1, Vote::kClean});
  }
  DawidSkene em;
  DawidSkene::Result result = em.Fit(log);
  EXPECT_GT(result.posterior_dirty[0], 0.9);
  EXPECT_LT(result.posterior_dirty[1], 0.1);
  EXPECT_EQ(DawidSkene::DirtyCount(result), 1u);
}

TEST(DawidSkeneTest, RecoversWorkerQualities) {
  // Simulate a crowd with one sloppy worker among good ones; EM should
  // assign the sloppy worker visibly lower sensitivity/specificity.
  const size_t num_items = 200;
  std::vector<bool> truth(num_items, false);
  for (size_t i = 0; i < 50; ++i) truth[i] = true;
  ResponseLog log(num_items, RetentionPolicy::kCounts);
  Rng rng(3);
  WorkerProfile good{0.02, 0.05};
  WorkerProfile sloppy{0.30, 0.40};
  uint32_t task = 0;
  for (uint32_t worker = 0; worker < 6; ++worker) {
    const WorkerProfile& profile = (worker == 5) ? sloppy : good;
    for (uint32_t item = 0; item < num_items; ++item) {
      log.Append({task, worker, item, profile.Answer(truth[item], rng)});
    }
    ++task;
  }
  DawidSkene em;
  DawidSkene::Result result = em.Fit(log);
  // The sloppy worker's estimated rates are clearly worse.
  for (size_t w = 0; w < 5; ++w) {
    EXPECT_GT(result.sensitivity[w], result.sensitivity[5] + 0.1);
    EXPECT_GT(result.specificity[w], result.specificity[5] + 0.1);
  }
  // And the aggregated labels are near-perfect.
  size_t wrong = 0;
  for (size_t i = 0; i < num_items; ++i) {
    if ((result.posterior_dirty[i] > 0.5) != truth[i]) ++wrong;
  }
  EXPECT_LE(wrong, 2u);
  // The prior lands near the true dirty fraction.
  EXPECT_NEAR(result.prior_dirty, 0.25, 0.05);
}

TEST(DawidSkeneTest, BeatsMajorityWithSkewedWorkerQuality) {
  // Three good workers + four random-ish workers: plain majority gets
  // confused, EM downweights the noise.
  const size_t num_items = 300;
  std::vector<bool> truth(num_items, false);
  for (size_t i = 0; i < 60; ++i) truth[i * 5] = true;
  ResponseLog log(num_items, RetentionPolicy::kCounts);
  Rng rng(17);
  uint32_t task = 0;
  for (uint32_t worker = 0; worker < 7; ++worker) {
    WorkerProfile profile =
        (worker < 3) ? WorkerProfile{0.02, 0.02} : WorkerProfile{0.42, 0.42};
    for (uint32_t item = 0; item < num_items; ++item) {
      log.Append({task, worker, item, profile.Answer(truth[item], rng)});
    }
    ++task;
  }
  DawidSkene em;
  DawidSkene::Result result = em.Fit(log);
  size_t em_wrong = 0, majority_wrong = 0;
  for (size_t i = 0; i < num_items; ++i) {
    if ((result.posterior_dirty[i] > 0.5) != truth[i]) ++em_wrong;
    if (log.MajorityDirty(i) != truth[i]) ++majority_wrong;
  }
  EXPECT_LT(em_wrong, majority_wrong);
}

TEST(DawidSkeneTest, ConvergesWithinIterationBudget) {
  ResponseLog log(10, RetentionPolicy::kCounts);
  Rng rng(5);
  for (uint32_t e = 0; e < 200; ++e) {
    log.Append({e / 10, e / 10, static_cast<uint32_t>(rng.UniformIndex(10)),
                rng.Bernoulli(0.4) ? Vote::kDirty : Vote::kClean});
  }
  DawidSkene::Options options;
  options.max_iterations = 200;
  DawidSkene em(options);
  DawidSkene::Result result = em.Fit(log);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 200u);
}

TEST(DawidSkeneTest, StripedLogFitTracksSerialFit) {
  // The same votes through a concurrently ingested (striped) log: the count
  // matrix is sharded across stripe blocks, so EM visits pairs in a
  // different slot order — float summation order changes, the fixpoint does
  // not. The posteriors must agree to numerical precision.
  constexpr size_t kItems = 60;
  ResponseLog serial(kItems, RetentionPolicy::kCounts);
  ResponseLog striped(kItems, RetentionPolicy::kCounts);
  striped.EnableConcurrentIngest(4);
  Rng rng(23);
  std::vector<VoteEvent> events;
  for (uint32_t e = 0; e < 1500; ++e) {
    events.push_back({e / 15, static_cast<uint32_t>(rng.UniformIndex(9)),
                      static_cast<uint32_t>(rng.UniformIndex(kItems)),
                      rng.Bernoulli(0.35) ? Vote::kDirty : Vote::kClean});
  }
  for (const VoteEvent& event : events) serial.Append(event);
  striped.AppendConcurrent(events);
  { auto pause = striped.PauseAndReconcile(); }

  DawidSkene em;
  DawidSkene::Result serial_fit = em.Fit(serial);
  DawidSkene::Result striped_fit = em.Fit(striped);
  ASSERT_EQ(striped_fit.posterior_dirty.size(),
            serial_fit.posterior_dirty.size());
  for (size_t i = 0; i < kItems; ++i) {
    EXPECT_NEAR(striped_fit.posterior_dirty[i], serial_fit.posterior_dirty[i],
                1e-6)
        << "item " << i;
  }
  EXPECT_EQ(DawidSkene::DirtyCount(striped_fit),
            DawidSkene::DirtyCount(serial_fit));
}

TEST(DawidSkeneDeathTest, FitRequiresThePairCountMatrix) {
  // EM reads the matrix the log keeps; a log without one is a wiring error,
  // not a reason to rebuild the matrix from events.
  DawidSkene em;
  for (RetentionPolicy retention :
       {RetentionPolicy::kFullEvents, RetentionPolicy::kTallies}) {
    ResponseLog log(2, retention);
    log.Append({0, 0, 0, Vote::kDirty});
    EXPECT_DEATH(em.Fit(log), "pair-count");
  }
}

TEST(EmVotingEstimatorTest, MatchesDirectFit) {
  // The estimator fits the log it was given; no copy of the votes.
  ResponseLog log(4, RetentionPolicy::kCounts);
  estimators::EmVotingEstimator estimator(log, DawidSkene::Options());
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint32_t item = 0; item < 4; ++item) {
      Vote vote = (item < 2) ? Vote::kDirty : Vote::kClean;
      log.Append(VoteEvent{w, w, item, vote});
    }
  }
  DawidSkene em;
  EXPECT_DOUBLE_EQ(estimator.Estimate(),
                   static_cast<double>(DawidSkene::DirtyCount(em.Fit(log))));
  EXPECT_EQ(estimator.name(), "EM-VOTING");
  EXPECT_FALSE(estimator.needs_observe());
}

TEST(EmVotingEstimatorTest, CacheInvalidatesOnNewVotes) {
  ResponseLog log(2, RetentionPolicy::kCounts);
  estimators::EmVotingEstimator estimator(log, DawidSkene::Options());
  log.Append({0, 0, 0, Vote::kDirty});
  log.Append({0, 0, 1, Vote::kClean});
  double first = estimator.Estimate();
  EXPECT_DOUBLE_EQ(first, 1.0);
  // Outvote item 0 with clean votes; the estimate must drop.
  for (uint32_t w = 1; w < 6; ++w) {
    log.Append({w, w, 0, Vote::kClean});
    log.Append({w, w, 1, Vote::kClean});
  }
  EXPECT_DOUBLE_EQ(estimator.Estimate(), 0.0);
}

}  // namespace
}  // namespace dqm::crowd
