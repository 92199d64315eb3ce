// Retention-policy parity: kCounts and kTallies logs must be
// observationally identical to a kFullEvents log fed the same vote stream
// everywhere except what they deliberately drop — same tallies, same
// NOMINAL / VOTING counts and the same positive-vote fingerprint — and a
// pipeline's rows must not depend on which of them its panel selects,
// across every registered workload family and randomized seeds. This is the
// contract that lets a pipeline drop O(#votes) event storage, and the pair
// matrix when no estimator reads it, without changing a single served
// number.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/dqm.h"
#include "crowd/response_log.h"
#include "workload/workload.h"

namespace dqm::crowd {
namespace {

/// Small-universe spec per registered family (mirrors the conformance
/// harness sizes).
std::vector<std::string> FamilySpecs() {
  std::vector<std::string> specs;
  for (const std::string& name :
       workload::WorkloadRegistry::Global().Names()) {
    specs.push_back(name + "?n=80&dirty=12&tasks=50&ipt=8&batch=37");
  }
  return specs;
}

workload::GeneratedWorkload Generate(const std::string& spec, uint64_t seed) {
  auto generator = workload::WorkloadRegistry::Global().Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  return (*generator)->Generate(seed);
}

class RetentionParityTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RetentionParityTest, TalliesAndCountsMatchOnEveryFamily) {
  for (const std::string& spec : FamilySpecs()) {
    workload::GeneratedWorkload run = Generate(spec, GetParam());
    size_t num_items = run.log.num_items();

    ResponseLog full(num_items, RetentionPolicy::kFullEvents);
    ResponseLog counts(num_items, RetentionPolicy::kCounts);
    ResponseLog tallies(num_items, RetentionPolicy::kTallies);
    for (const VoteEvent& event : run.log.events()) {
      full.Append(event);
      counts.Append(event);
      tallies.Append(event);
    }

    for (const ResponseLog* log : {&counts, &tallies}) {
      SCOPED_TRACE(log == &counts ? "kCounts" : "kTallies");
      EXPECT_EQ(full.num_events(), log->num_events()) << spec;
      EXPECT_EQ(full.num_tasks(), log->num_tasks()) << spec;
      EXPECT_EQ(full.num_workers(), log->num_workers()) << spec;
      EXPECT_EQ(full.total_positive_votes(), log->total_positive_votes())
          << spec;
      EXPECT_EQ(full.MajorityCount(), log->MajorityCount()) << spec;
      EXPECT_EQ(full.NominalCount(), log->NominalCount()) << spec;
      EXPECT_TRUE(std::ranges::equal(full.positive_fingerprint(),
                                     log->positive_fingerprint()))
          << spec;
      for (size_t i = 0; i < num_items; ++i) {
        ASSERT_EQ(full.positive_votes(i), log->positive_votes(i))
            << spec << ", item " << i;
        ASSERT_EQ(full.total_votes(i), log->total_votes(i))
            << spec << ", item " << i;
        ASSERT_EQ(full.MajorityDirty(i), log->MajorityDirty(i))
            << spec << ", item " << i;
      }
    }
    EXPECT_EQ(tallies.compacted(), nullptr);
    EXPECT_LT(tallies.RetainedBytes(), counts.RetainedBytes()) << spec;

    // The compacted matrix the kCounts log maintained incrementally must
    // be slot-for-slot what a one-shot replay of the events builds — the
    // property that makes count-based fits bit-identical across policies.
    ASSERT_NE(counts.compacted(), nullptr);
    EXPECT_EQ(full.compacted(), nullptr);
    CompactedVoteStore replayed;
    for (const VoteEvent& event : full.events()) {
      replayed.Add(event.worker, event.item, event.vote);
    }
    const CompactedVoteStore& incremental = *counts.compacted();
    ASSERT_EQ(incremental.num_pairs(), replayed.num_pairs()) << spec;
    EXPECT_EQ(incremental.workers(), replayed.workers()) << spec;
    EXPECT_EQ(incremental.items(), replayed.items()) << spec;
    EXPECT_EQ(incremental.dirty_counts(), replayed.dirty_counts()) << spec;
    EXPECT_EQ(incremental.clean_counts(), replayed.clean_counts()) << spec;
  }
}

TEST_P(RetentionParityTest, PipelineRowsMatchAcrossRetainedStateOnEveryFamily) {
  // The pipeline picks its log's retention from the panel: with EM-VOTING
  // in it the log keeps the pair matrix (kCounts), without it only the
  // tallies (kTallies). Every other row — the descriptive counts, the whole
  // fingerprint family and SWITCH — must not notice the difference.
  const std::vector<std::string> tally_panel = {
      "switch", "chao92",     "good-turing", "vchao92?shift=2",
      "chao1",  "jackknife1", "voting",      "nominal"};
  std::vector<std::string> matrix_panel = tally_panel;
  matrix_panel.push_back("em-voting");
  for (const std::string& spec : FamilySpecs()) {
    workload::GeneratedWorkload run = Generate(spec, GetParam() ^ 0x9e3779b9);
    size_t num_items = run.log.num_items();

    auto tallies = core::DataQualityMetric::Create(
        num_items, std::span<const std::string>(tally_panel));
    auto counts = core::DataQualityMetric::Create(
        num_items, std::span<const std::string>(matrix_panel));
    ASSERT_TRUE(tallies.ok()) << tallies.status().ToString();
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    ASSERT_EQ(tallies->log().retention(), RetentionPolicy::kTallies);
    ASSERT_EQ(counts->log().retention(), RetentionPolicy::kCounts);
    for (const VoteEvent& event : run.log.events()) {
      tallies->AddVote(event.task, event.worker, event.item,
                       event.vote == Vote::kDirty);
      counts->AddVote(event.task, event.worker, event.item,
                      event.vote == Vote::kDirty);
    }

    core::DataQualityMetric::QualityReport tally_report = tallies->Report();
    core::DataQualityMetric::QualityReport counts_report = counts->Report();
    EXPECT_EQ(tally_report.majority_count, counts_report.majority_count);
    EXPECT_EQ(tally_report.nominal_count, counts_report.nominal_count);
    ASSERT_EQ(tally_report.estimators.size() + 1,
              counts_report.estimators.size());
    for (size_t i = 0; i < tally_report.estimators.size(); ++i) {
      EXPECT_EQ(tally_report.estimators[i].total_errors,
                counts_report.estimators[i].total_errors)
          << spec << ", " << tally_panel[i];
      EXPECT_EQ(tally_report.estimators[i].quality_score,
                counts_report.estimators[i].quality_score)
          << spec << ", " << tally_panel[i];
    }
  }
}

TEST(RetentionParityTest, RandomizedStoreParityAgainstShadowModel) {
  // Brute-force shadow check of the open-addressed store across growth
  // boundaries: random (worker, item, vote) streams with enough distinct
  // pairs to force several index rehashes.
  Rng rng(20260729);
  CompactedVoteStore store;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> shadow;  // [w][i]
  auto shadow_count = [&](uint32_t w, uint32_t i) -> std::pair<uint32_t, uint32_t>& {
    if (shadow.size() <= w) shadow.resize(w + 1);
    for (size_t s = 0; s < shadow[w].size(); ++s) {
      if (shadow[w][s].first == i) return shadow[w][s];
    }
    shadow[w].emplace_back(i, 0);
    return shadow[w].back();
  };
  size_t expected_dirty_total = 0;
  for (int op = 0; op < 5000; ++op) {
    uint32_t worker = static_cast<uint32_t>(rng.UniformIndex(40));
    uint32_t item = static_cast<uint32_t>(rng.UniformIndex(60));
    bool dirty = rng.Bernoulli(0.4);
    store.Add(worker, item, dirty ? Vote::kDirty : Vote::kClean);
    auto& cell = shadow_count(worker, item);
    if (dirty) {
      ++cell.second;
      ++expected_dirty_total;
    }
  }
  // Every shadow pair exists exactly once with the right dirty count.
  size_t shadow_pairs = 0;
  size_t store_dirty_total = 0;
  for (size_t slot = 0; slot < store.num_pairs(); ++slot) {
    store_dirty_total += store.dirty_counts()[slot];
  }
  for (uint32_t w = 0; w < shadow.size(); ++w) {
    for (const auto& [item, dirty_count] : shadow[w]) {
      ++shadow_pairs;
      bool found = false;
      for (size_t slot = 0; slot < store.num_pairs(); ++slot) {
        if (store.workers()[slot] == w && store.items()[slot] == item) {
          EXPECT_FALSE(found) << "duplicate slot for (" << w << "," << item
                              << ")";
          found = true;
          EXPECT_EQ(store.dirty_counts()[slot], dirty_count);
        }
      }
      EXPECT_TRUE(found) << "missing slot for (" << w << "," << item << ")";
    }
  }
  EXPECT_EQ(store.num_pairs(), shadow_pairs);
  EXPECT_EQ(store_dirty_total, expected_dirty_total);
}

TEST(RetentionParityTest, StripedRetainedBytesCountsFixedOverhead) {
  // Regression: RetainedBytes used to drop the striped-mode fixed overhead
  // (control block, stripe array, per-stripe metric table), reporting a
  // freshly striped log as no larger than a serialized one. The roll-up
  // gauge the engine exports was under-reporting every striped session.
  ResponseLog serial(256, RetentionPolicy::kCounts);
  ResponseLog striped(256, RetentionPolicy::kCounts);
  striped.EnableConcurrentIngest(4);
  EXPECT_GT(striped.RetainedBytes(), serial.RetainedBytes());

  // And the gap persists (shards counted too) once votes flow.
  std::vector<VoteEvent> votes;
  for (uint32_t i = 0; i < 500; ++i) {
    votes.push_back({0, i % 9, i % 256, i % 4 ? Vote::kClean : Vote::kDirty});
  }
  for (const VoteEvent& event : votes) serial.Append(event);
  striped.AppendConcurrent(votes);
  EXPECT_GT(striped.RetainedBytes(), serial.RetainedBytes());
}

TEST(RetentionParityDeathTest, EventsUnavailableUnderCounts) {
  for (RetentionPolicy retention :
       {RetentionPolicy::kCounts, RetentionPolicy::kTallies}) {
    ResponseLog log(4, retention);
    log.Append({0, 0, 1, Vote::kDirty});
    EXPECT_DEATH(log.events(), "kFullEvents");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetentionParityTest,
                         testing::Values(11, 12, 13));

}  // namespace
}  // namespace dqm::crowd
