#include "estimators/baselines.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "crowd/response_log.h"

namespace dqm::estimators {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

/// A one-row metric for `spec`: the one way a descriptive count runs.
core::DataQualityMetric OneRow(const std::string& spec, size_t num_items) {
  return core::DataQualityMetric::Create(num_items, {spec}).value();
}

void Add(core::DataQualityMetric& metric, const VoteEvent& event) {
  metric.AddVote(event.task, event.worker, event.item,
                 event.vote == Vote::kDirty);
}

TEST(NominalScoreTest, CountsItemsWithAnyDirtyVote) {
  core::DataQualityMetric nominal = OneRow("nominal", 4);
  EXPECT_DOUBLE_EQ(nominal.EstimatedTotalErrors(), 0.0);
  Add(nominal, {0, 0, 0, Vote::kDirty});
  Add(nominal, {0, 0, 1, Vote::kClean});
  EXPECT_DOUBLE_EQ(nominal.EstimatedTotalErrors(), 1.0);
  // Repeat votes on the same item do not double count.
  Add(nominal, {1, 1, 0, Vote::kDirty});
  EXPECT_DOUBLE_EQ(nominal.EstimatedTotalErrors(), 1.0);
  Add(nominal, {1, 1, 2, Vote::kDirty});
  EXPECT_DOUBLE_EQ(nominal.EstimatedTotalErrors(), 2.0);
  // Clean votes never reduce the nominal count.
  Add(nominal, {2, 2, 0, Vote::kClean});
  Add(nominal, {2, 2, 2, Vote::kClean});
  EXPECT_DOUBLE_EQ(nominal.EstimatedTotalErrors(), 2.0);
  EXPECT_EQ(nominal.method_name(), "NOMINAL");
}

TEST(VotingScoreTest, TracksStrictMajority) {
  core::DataQualityMetric voting = OneRow("voting", 2);
  Add(voting, {0, 0, 0, Vote::kDirty});
  EXPECT_DOUBLE_EQ(voting.EstimatedTotalErrors(), 1.0);  // 1-0
  Add(voting, {1, 1, 0, Vote::kClean});
  EXPECT_DOUBLE_EQ(voting.EstimatedTotalErrors(), 0.0);  // tie -> clean
  Add(voting, {2, 2, 0, Vote::kDirty});
  EXPECT_DOUBLE_EQ(voting.EstimatedTotalErrors(), 1.0);  // 2-1
  EXPECT_EQ(voting.method_name(), "VOTING");
}

TEST(VotingScoreTest, ScoresAreTheLogCounts) {
  Rng rng(42);
  const size_t num_items = 15;
  crowd::ResponseLog log(num_items);
  for (uint32_t i = 0; i < 600; ++i) {
    log.Append(VoteEvent{i / 10, i / 10,
                         static_cast<uint32_t>(rng.UniformIndex(num_items)),
                         rng.Bernoulli(0.4) ? Vote::kDirty : Vote::kClean});
    ASSERT_DOUBLE_EQ(VotingScore(log),
                     static_cast<double>(log.MajorityCount()));
    ASSERT_DOUBLE_EQ(NominalScore(log),
                     static_cast<double>(log.NominalCount()));
  }
}

TEST(BaselinesDeathTest, OutOfRangeItemAborts) {
  core::DataQualityMetric nominal = OneRow("nominal", 2);
  EXPECT_DEATH(Add(nominal, {0, 0, 5, Vote::kDirty}), "");
  core::DataQualityMetric voting = OneRow("voting", 2);
  EXPECT_DEATH(Add(voting, {0, 0, 5, Vote::kDirty}), "");
}

TEST(PanelSeriesByTaskTest, EmptyLogGivesEmptySeries) {
  crowd::ResponseLog log(3);
  std::vector<std::vector<double>> series =
      core::PanelSeriesByTask(log, std::vector<std::string>{"voting"}).value();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_TRUE(series[0].empty());
}

TEST(PanelSeriesByTaskTest, OneEntryPerTask) {
  crowd::ResponseLog log(3);
  log.Append({0, 0, 0, Vote::kDirty});
  log.Append({0, 0, 1, Vote::kClean});
  log.Append({1, 1, 2, Vote::kDirty});
  log.Append({2, 2, 0, Vote::kClean});
  std::vector<std::vector<double>> series =
      core::PanelSeriesByTask(log, std::vector<std::string>{"voting"}).value();
  ASSERT_EQ(series[0].size(), 3u);
  EXPECT_DOUBLE_EQ(series[0][0], 1.0);  // after task 0: item 0 dirty
  EXPECT_DOUBLE_EQ(series[0][1], 2.0);  // after task 1: items 0, 2
  EXPECT_DOUBLE_EQ(series[0][2], 1.0);  // after task 2: item 0 tied -> clean
}

TEST(PanelSeriesByTaskTest, SingleTaskLog) {
  crowd::ResponseLog log(2);
  log.Append({0, 0, 0, Vote::kDirty});
  std::vector<std::vector<double>> series =
      core::PanelSeriesByTask(log, std::vector<std::string>{"nominal"})
          .value();
  ASSERT_EQ(series[0].size(), 1u);
  EXPECT_DOUBLE_EQ(series[0][0], 1.0);
}

TEST(PanelSeriesByTaskTest, BadSpecIsAnError) {
  crowd::ResponseLog log(2);
  EXPECT_EQ(core::PanelSeriesByTask(log, std::vector<std::string>{"chao93"})
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace dqm::estimators
