#include "estimators/switch_tracker.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lockstep_feed.h"

namespace dqm::estimators {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

/// A tracker over its own tally log, fed in lockstep.
using Tracker = test::LockstepFeed<SwitchTracker>;

// Feeds a vote sequence for a single item (item 0).
void Feed(Tracker& tracker, const std::vector<Vote>& votes,
          uint32_t item = 0) {
  for (uint32_t j = 0; j < votes.size(); ++j) {
    tracker.Observe({j, j, item, votes[j]});
  }
}

constexpr Vote D = Vote::kDirty;
constexpr Vote C = Vote::kClean;

TEST(SwitchTrackerTest, FirstPositiveVoteIsASwitch) {
  Tracker tracker(1);
  Feed(tracker, {D});
  EXPECT_EQ(tracker.TotalSwitches(), 1u);
  EXPECT_EQ(tracker.PositiveSwitches(), 1u);
  EXPECT_TRUE(tracker.ConsensusDirty(0));
  SwitchStatistics stats = tracker.Statistics();
  EXPECT_EQ(stats.c, 1u);
  EXPECT_EQ(stats.f1, 1u);
  EXPECT_EQ(stats.n, 1u);
}

TEST(SwitchTrackerTest, FirstNegativeVoteIsANoOp) {
  Tracker tracker(1);
  Feed(tracker, {C});
  EXPECT_EQ(tracker.TotalSwitches(), 0u);
  EXPECT_FALSE(tracker.ConsensusDirty(0));
  SwitchStatistics stats = tracker.Statistics();
  EXPECT_EQ(stats.c, 0u);
  EXPECT_EQ(stats.n, 0u);  // votes before the first switch do not count
}

TEST(SwitchTrackerTest, ConfirmationRediscoversSwitch) {
  Tracker tracker(1);
  Feed(tracker, {D, D});
  SwitchStatistics stats = tracker.Statistics();
  EXPECT_EQ(tracker.TotalSwitches(), 1u);
  EXPECT_EQ(stats.c, 1u);
  EXPECT_EQ(stats.f1, 0u);  // promoted to a doubleton
  EXPECT_EQ(stats.n, 2u);
}

TEST(SwitchTrackerTest, TieCreatesNewSwitch) {
  Tracker tracker(1);
  Feed(tracker, {D, C});  // 1-1 tie flips dirty -> clean
  EXPECT_EQ(tracker.TotalSwitches(), 2u);
  EXPECT_EQ(tracker.PositiveSwitches(), 1u);
  EXPECT_EQ(tracker.NegativeSwitches(), 1u);
  EXPECT_FALSE(tracker.ConsensusDirty(0));
  // Live-only memory (default): the superseded positive switch left the
  // fingerprint; only the live negative singleton remains.
  SwitchStatistics stats = tracker.Statistics();
  EXPECT_EQ(stats.c, 1u);
  EXPECT_EQ(stats.f1, 1u);
  EXPECT_EQ(stats.n, 1u);
  EXPECT_EQ(tracker.PositiveStatistics().c, 0u);
  EXPECT_EQ(tracker.NegativeStatistics().c, 1u);
}

TEST(SwitchTrackerTest, TieCreatesNewSwitchAllSwitchesMemory) {
  SwitchTracker::Config config;
  config.memory = SwitchMemory::kAllSwitches;
  Tracker tracker(1, config);
  Feed(tracker, {D, C});
  // Frozen-history ablation variant: both switches remain singletons.
  SwitchStatistics stats = tracker.Statistics();
  EXPECT_EQ(stats.c, 2u);
  EXPECT_EQ(stats.f1, 2u);
  EXPECT_EQ(stats.n, 2u);
}

TEST(SwitchTrackerTest, LateTieAfterCleanStart) {
  Tracker tracker(1);
  Feed(tracker, {C, D});  // no-op, then 1-1 tie -> positive switch
  EXPECT_EQ(tracker.TotalSwitches(), 1u);
  EXPECT_EQ(tracker.PositiveSwitches(), 1u);
  EXPECT_TRUE(tracker.ConsensusDirty(0));
  SwitchStatistics stats = tracker.Statistics();
  EXPECT_EQ(stats.n, 1u);  // the initial clean vote stays a no-op
}

TEST(SwitchTrackerTest, AlternatingVotesHandComputed) {
  // [D, C, D, C]: switch(+), tie switch(-), rediscovery, tie switch(+).
  Tracker tracker(1);
  Feed(tracker, {D, C, D, C});
  // All-time counters (Eq. 7) are memory-independent.
  EXPECT_EQ(tracker.TotalSwitches(), 3u);
  EXPECT_EQ(tracker.PositiveSwitches(), 2u);
  EXPECT_EQ(tracker.NegativeSwitches(), 1u);
  // Live-only fingerprint: just the final positive singleton.
  SwitchStatistics stats = tracker.Statistics();
  EXPECT_EQ(stats.c, 1u);
  EXPECT_EQ(stats.f1, 1u);
  EXPECT_EQ(stats.n, 1u);
  EXPECT_EQ(tracker.NegativeStatistics().c, 0u);
}

TEST(SwitchTrackerTest, AlternatingVotesAllSwitchesMemory) {
  SwitchTracker::Config config;
  config.memory = SwitchMemory::kAllSwitches;
  Tracker tracker(1, config);
  Feed(tracker, {D, C, D, C});
  SwitchStatistics stats = tracker.Statistics();
  EXPECT_EQ(stats.c, 3u);
  EXPECT_EQ(stats.f1, 2u);       // the two positive switches are singletons
  EXPECT_EQ(stats.n, 4u);        // every vote counted (first was a switch)
  SwitchStatistics neg = tracker.NegativeStatistics();
  EXPECT_EQ(neg.c, 1u);
  EXPECT_EQ(neg.f1, 0u);         // the negative switch was rediscovered once
  EXPECT_EQ(neg.n, 2u);
}

TEST(SwitchTrackerTest, ItemsWithSwitchesVsTotalSwitches) {
  Tracker tracker(2);
  Feed(tracker, {D, C, D, C}, 0);  // 3 switches on item 0
  Feed(tracker, {D}, 1);           // 1 switch on item 1
  EXPECT_EQ(tracker.TotalSwitches(), 4u);
  EXPECT_EQ(tracker.ItemsWithSwitches(), 2u);
}

TEST(SwitchTrackerTest, PerRecordCountingUsesItemCount) {
  SwitchTracker::Config config;
  config.counting = SwitchCountingMode::kPerRecord;
  Tracker tracker(2, config);
  Feed(tracker, {D, C, D, C}, 0);
  Feed(tracker, {D}, 1);
  EXPECT_EQ(tracker.Statistics().c, 2u);  // records, not switches
}

TEST(SwitchTrackerTest, SpeciesSumNMode) {
  SwitchTracker::Config config;
  config.n_mode = SwitchNMode::kSpeciesSum;
  Tracker tracker(1, config);
  Feed(tracker, {D, D, D});
  // One switch rediscovered twice; n = species count = 1 under this mode.
  EXPECT_EQ(tracker.Statistics().n, 1u);
}

TEST(SwitchTrackerStrictMajorityTest, TieKeepsLabel) {
  SwitchTracker::Config config;
  config.tie_policy = TiePolicy::kStrictMajority;
  Tracker tracker(1, config);
  Feed(tracker, {C, D});  // 1-1 tie: label stays clean, no switch
  EXPECT_EQ(tracker.TotalSwitches(), 0u);
  EXPECT_FALSE(tracker.ConsensusDirty(0));
}

TEST(SwitchTrackerStrictMajorityTest, MajorityChangeSwitches) {
  SwitchTracker::Config config;
  config.tie_policy = TiePolicy::kStrictMajority;
  Tracker tracker(1, config);
  Feed(tracker, {C, D, D});  // no-op, no-op, 2-1 -> positive switch
  EXPECT_EQ(tracker.TotalSwitches(), 1u);
  EXPECT_EQ(tracker.PositiveSwitches(), 1u);
  EXPECT_TRUE(tracker.ConsensusDirty(0));
  EXPECT_EQ(tracker.Statistics().n, 1u);
}

TEST(SwitchTrackerStrictMajorityTest, AlternatingVotes) {
  SwitchTracker::Config config;
  config.tie_policy = TiePolicy::kStrictMajority;
  Tracker tracker(1, config);
  // [D, C, D, C]: 1-0 dirty, 1-1 clean, 2-1 dirty, 2-2 clean: 4 switches.
  Feed(tracker, {D, C, D, C});
  EXPECT_EQ(tracker.TotalSwitches(), 4u);
  EXPECT_EQ(tracker.PositiveSwitches(), 2u);
  EXPECT_EQ(tracker.NegativeSwitches(), 2u);
}

// Differential test: TotalSwitches under kTieAsSwitch equals a direct
// evaluation of Eq. (7), and n equals the paper's no-op-adjusted count.
class SwitchEquationPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SwitchEquationPropertyTest, MatchesEquationSeven) {
  Rng rng(GetParam());
  const size_t num_items = 12;
  // The no-op-adjusted n of Section 4.2 counts every vote from the first
  // switch onward, which is the kAllSwitches accounting.
  SwitchTracker::Config config;
  config.memory = SwitchMemory::kAllSwitches;
  Tracker tracker(num_items, config);
  std::vector<std::vector<Vote>> votes(num_items);
  for (uint32_t step = 0; step < 300; ++step) {
    auto item = static_cast<uint32_t>(rng.UniformIndex(num_items));
    Vote vote = rng.Bernoulli(0.45) ? D : C;
    votes[item].push_back(vote);
    tracker.Observe({step, step, item, vote});
  }

  // Eq. (7): switch(I) = sum_i [ sum_{j>=2} 1[n+_{1:j} == n-_{1:j}]
  //                              + 1[n+_{i,1} == 1] ].
  uint64_t expected_switches = 0;
  uint64_t expected_n = 0;
  for (const auto& item_votes : votes) {
    uint32_t pos = 0, neg = 0;
    size_t first_switch_at = 0;  // 1-based; 0 = never
    for (size_t j = 1; j <= item_votes.size(); ++j) {
      if (item_votes[j - 1] == D) {
        ++pos;
      } else {
        ++neg;
      }
      if (j == 1) {
        if (pos == 1) ++expected_switches;
      } else if (pos == neg) {
        ++expected_switches;
      }
      if (first_switch_at == 0 && pos >= neg) first_switch_at = j;
    }
    // n_switch: all votes except the no-ops before the first switch.
    if (first_switch_at > 0) {
      expected_n += item_votes.size() - (first_switch_at - 1);
    }
  }
  EXPECT_EQ(tracker.TotalSwitches(), expected_switches);
  EXPECT_EQ(tracker.Statistics().n, expected_n);
  // n is also the sum of all switch frequencies (every counted vote
  // (re)discovers exactly one switch).
  SwitchStatistics pos_stats = tracker.PositiveStatistics();
  SwitchStatistics neg_stats = tracker.NegativeStatistics();
  EXPECT_EQ(pos_stats.n + neg_stats.n, expected_n);
  EXPECT_EQ(pos_stats.c + neg_stats.c, expected_switches);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchEquationPropertyTest,
                         testing::Values(101, 202, 303, 404, 505, 606));

// Live-only memory invariants: one species per switched item, and n equals
// the mass attached to live switches.
TEST_P(SwitchEquationPropertyTest, LiveOnlyInvariants) {
  Rng rng(GetParam() ^ 0x5555);
  const size_t num_items = 12;
  Tracker tracker(num_items);
  for (uint32_t step = 0; step < 300; ++step) {
    tracker.Observe({step, step,
                     static_cast<uint32_t>(rng.UniformIndex(num_items)),
                     rng.Bernoulli(0.45) ? D : C});
    SwitchStatistics stats = tracker.Statistics();
    // Exactly one live switch per item that ever switched.
    ASSERT_EQ(stats.c, tracker.ItemsWithSwitches());
    SwitchStatistics pos = tracker.PositiveStatistics();
    SwitchStatistics neg = tracker.NegativeStatistics();
    ASSERT_EQ(pos.c + neg.c, stats.c);
    ASSERT_EQ(pos.n + neg.n, stats.n);
    // Live mass never exceeds total votes.
    ASSERT_LE(stats.n, step + 1);
  }
}

TEST(SwitchTrackerDeathTest, ObservingOutOfLockstepWithTheLogAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the lockstep check is a DQM_DCHECK, compiled out of "
                  "Release builds";
#else
  // The log appended the vote before the tracker observed it, so the
  // tallies the tracker would read already include it.
  crowd::ResponseLog log(1, crowd::RetentionPolicy::kTallies);
  SwitchTracker tracker(log);
  const VoteEvent event{0, 0, 0, D};
  log.Append(event);
  EXPECT_DEATH(tracker.Observe(event), "out of lockstep");
#endif
}

TEST(SwitchTrackerEstimateTest, RemainingNonNegative) {
  Rng rng(77);
  Tracker tracker(20);
  for (uint32_t step = 0; step < 500; ++step) {
    tracker.Observe({step / 5, step / 5,
                     static_cast<uint32_t>(rng.UniformIndex(20)),
                     rng.Bernoulli(0.3) ? D : C});
    EXPECT_GE(tracker.EstimateRemainingSwitches(), 0.0);
    EXPECT_GE(tracker.EstimateRemainingPositive(), 0.0);
    EXPECT_GE(tracker.EstimateRemainingNegative(), 0.0);
  }
}

TEST(SwitchTrackerEstimateTest, StableConsensusShrinksRemaining) {
  // One strong dirty item repeatedly confirmed: the lone switch gets
  // promoted far beyond singleton status, so remaining -> 0.
  Tracker tracker(1);
  Feed(tracker, {D, D, D, D, D, D, D, D});
  EXPECT_DOUBLE_EQ(tracker.EstimateRemainingSwitches(), 0.0);
  EXPECT_NEAR(tracker.EstimateTotalSwitches(), 1.0, 1e-9);
}

TEST(ComputeSwitchesNeededTest, CountsDirections) {
  // items: 0 truth dirty/consensus clean (+1 pos), 1 truth clean/consensus
  // dirty (+1 neg), 2 agreeing.
  std::vector<uint32_t> positive = {0, 3, 2};
  std::vector<uint32_t> total = {2, 4, 3};
  std::vector<bool> truth = {true, false, true};
  SwitchesNeeded needed = ComputeSwitchesNeeded(positive, total, truth);
  EXPECT_EQ(needed.positive, 1u);
  EXPECT_EQ(needed.negative, 1u);
}

TEST(ComputeSwitchesNeededTest, TieCountsAsClean) {
  std::vector<uint32_t> positive = {1};
  std::vector<uint32_t> total = {2};
  std::vector<bool> truth = {true};
  SwitchesNeeded needed = ComputeSwitchesNeeded(positive, total, truth);
  EXPECT_EQ(needed.positive, 1u);  // tie -> consensus clean -> needs a flip
  EXPECT_EQ(needed.negative, 0u);
}

TEST(ComputeSwitchesNeededTest, PerfectConsensusNeedsNothing) {
  std::vector<uint32_t> positive = {3, 0};
  std::vector<uint32_t> total = {4, 4};
  std::vector<bool> truth = {true, false};
  SwitchesNeeded needed = ComputeSwitchesNeeded(positive, total, truth);
  EXPECT_EQ(needed.positive, 0u);
  EXPECT_EQ(needed.negative, 0u);
}

}  // namespace
}  // namespace dqm::estimators
