#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"

namespace dqm::engine {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

core::SimulatedRun MakeRun(uint64_t seed, size_t tasks = 60) {
  core::Scenario scenario = core::SimulationScenario(0.01, 0.1, 10);
  return core::SimulateScenario(scenario, tasks, seed);
}

/// The single-estimator panel the engine tests default to.
const std::vector<std::string> kSwitch = {"switch"};

/// Replays `events` through a plain single-threaded facade.
core::DataQualityMetric SerialReplay(size_t num_items,
                                     const std::vector<VoteEvent>& events,
                                     const std::string& spec = "switch") {
  core::DataQualityMetric metric =
      core::DataQualityMetric::Create(num_items, {spec}).value();
  for (const VoteEvent& event : events) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == Vote::kDirty);
  }
  return metric;
}

TEST(EstimationSessionTest, BatchedIngestMatchesSerialFacadeExactly) {
  core::SimulatedRun run = MakeRun(3);
  size_t num_items = run.truth.size();

  EstimationSession session("s", core::DataQualityMetric(num_items));
  const std::vector<VoteEvent>& events = run.log.events();
  for (size_t begin = 0; begin < events.size(); begin += 37) {
    size_t size = std::min<size_t>(37, events.size() - begin);
    ASSERT_TRUE(
        session.AddVotes(std::span<const VoteEvent>(&events[begin], size))
            .ok());
  }

  core::DataQualityMetric serial = SerialReplay(num_items, events);
  Snapshot snapshot = session.snapshot();
  EXPECT_EQ(snapshot.num_votes, serial.num_votes());
  EXPECT_EQ(snapshot.majority_count, serial.MajorityCount());
  EXPECT_EQ(snapshot.nominal_count, serial.NominalCount());
  EXPECT_DOUBLE_EQ(snapshot.estimated_total_errors,
                   serial.EstimatedTotalErrors());
  EXPECT_DOUBLE_EQ(snapshot.estimated_undetected_errors,
                   serial.EstimatedUndetectedErrors());
  EXPECT_DOUBLE_EQ(snapshot.quality_score, serial.QualityScore());
}

TEST(EstimationSessionTest, OutOfRangeItemRejectsWholeBatchAtomically) {
  EstimationSession session("s", core::DataQualityMetric(10));
  std::vector<VoteEvent> batch = {
      {0, 0, 3, Vote::kDirty},
      {0, 0, 10, Vote::kDirty},  // out of range
  };
  Status status = session.AddVotes(batch);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Not even the valid first vote was applied.
  EXPECT_EQ(session.snapshot().num_votes, 0u);
  EXPECT_EQ(session.snapshot().version, 0u);
}

TEST(EstimationSessionTest, EmptyBatchIsOkAndDoesNotBumpVersion) {
  EstimationSession session("s", core::DataQualityMetric(10));
  EXPECT_TRUE(session.AddVotes({}).ok());
  EXPECT_EQ(session.snapshot().version, 0u);
}

TEST(EngineTest, ConcurrentPerSessionIngestMatchesSerialExactly) {
  // Eight datasets ingested from eight threads at once, one producer per
  // session (the supported pattern for the order-sensitive SWITCH default).
  // Every session must end bit-identical to its serial facade replay.
  constexpr size_t kSessions = 8;
  std::vector<core::SimulatedRun> runs;
  for (size_t s = 0; s < kSessions; ++s) runs.push_back(MakeRun(100 + s));
  size_t num_items = runs[0].truth.size();

  DqmEngine engine;
  for (size_t s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(
        engine.OpenSession("dataset-" + std::to_string(s), num_items, kSwitch)
            .ok());
  }

  ThreadPool pool(kSessions);
  ParallelFor(&pool, kSessions, [&](size_t s) {
    const std::vector<VoteEvent>& events = runs[s].log.events();
    std::string name = "dataset-" + std::to_string(s);
    for (size_t begin = 0; begin < events.size(); begin += 53) {
      size_t size = std::min<size_t>(53, events.size() - begin);
      Status status =
          engine.Ingest(name, std::span<const VoteEvent>(&events[begin], size));
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  });

  for (size_t s = 0; s < kSessions; ++s) {
    core::DataQualityMetric serial =
        SerialReplay(num_items, runs[s].log.events());
    Result<Snapshot> snapshot = engine.Query("dataset-" + std::to_string(s));
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ(snapshot->num_votes, serial.num_votes());
    EXPECT_DOUBLE_EQ(snapshot->estimated_total_errors,
                     serial.EstimatedTotalErrors());
    EXPECT_DOUBLE_EQ(snapshot->estimated_undetected_errors,
                     serial.EstimatedUndetectedErrors());
    EXPECT_DOUBLE_EQ(snapshot->quality_score, serial.QualityScore());
  }
}

TEST(EngineTest, InterleavedMultiProducerIngestMatchesSerialForTallyMethod) {
  // Four threads interleave batches into ONE session. With a tally-based
  // method (CHAO92) the final estimate depends only on the vote multiset,
  // so the concurrent result must equal the serial replay exactly.
  core::SimulatedRun run = MakeRun(9, /*tasks=*/100);
  size_t num_items = run.truth.size();
  const std::vector<VoteEvent>& events = run.log.events();

  const std::vector<std::string> chao92 = {"chao92"};
  DqmEngine engine;
  ASSERT_TRUE(engine.OpenSession("shared", num_items, chao92).ok());

  constexpr size_t kThreads = 4;
  ThreadPool pool(kThreads);
  ParallelFor(&pool, kThreads, [&](size_t t) {
    // Thread t ingests batches t, t+kThreads, t+2*kThreads, ...
    constexpr size_t kBatch = 41;
    for (size_t begin = t * kBatch; begin < events.size();
         begin += kThreads * kBatch) {
      size_t size = std::min(kBatch, events.size() - begin);
      Status status = engine.Ingest(
          "shared", std::span<const VoteEvent>(&events[begin], size));
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  });

  core::DataQualityMetric serial = SerialReplay(num_items, events, "chao92");
  Result<Snapshot> snapshot = engine.Query("shared");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->num_votes, serial.num_votes());
  EXPECT_EQ(snapshot->majority_count, serial.MajorityCount());
  EXPECT_EQ(snapshot->nominal_count, serial.NominalCount());
  EXPECT_DOUBLE_EQ(snapshot->estimated_total_errors,
                   serial.EstimatedTotalErrors());
}

TEST(EngineTest, SnapshotsStayConsistentUnderConcurrentReads) {
  core::SimulatedRun run = MakeRun(5, /*tasks=*/120);
  size_t num_items = run.truth.size();
  const std::vector<VoteEvent>& events = run.log.events();

  DqmEngine engine;
  ASSERT_TRUE(engine.OpenSession("live", num_items, kSwitch).ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  auto reader = [&]() {
    uint64_t last_version = 0;
    uint64_t last_votes = 0;
    while (!done.load()) {
      Result<Snapshot> snapshot = engine.Query("live");
      if (!snapshot.ok()) continue;
      const Snapshot& s = *snapshot;
      // Monotone progress per reader.
      if (s.version < last_version || s.num_votes < last_votes) ++violations;
      last_version = s.version;
      last_votes = s.num_votes;
      // Internal consistency: all fields came from one locked publish.
      double undetected = std::max(
          s.estimated_total_errors - static_cast<double>(s.majority_count),
          0.0);
      if (std::abs(undetected - s.estimated_undetected_errors) > 1e-9)
        ++violations;
      if (s.quality_score < 0.0 || s.quality_score > 1.0) ++violations;
    }
  };
  std::thread reader_a(reader), reader_b(reader);
  for (size_t begin = 0; begin < events.size(); begin += 29) {
    size_t size = std::min<size_t>(29, events.size() - begin);
    ASSERT_TRUE(
        engine.Ingest("live", std::span<const VoteEvent>(&events[begin], size))
            .ok());
  }
  done.store(true);
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(engine.Query("live")->num_votes, events.size());
}

TEST(EngineTest, UnknownSessionErrorsUseStatusCodes) {
  DqmEngine engine;
  VoteEvent vote{0, 0, 0, Vote::kDirty};
  EXPECT_EQ(engine.Query("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Ingest("ghost", std::span<const VoteEvent>(&vote, 1)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.CloseSession("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.GetSession("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.OpenSession("", 10, kSwitch).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, SessionLifecycle) {
  DqmEngine engine;
  EXPECT_EQ(engine.num_sessions(), 0u);
  ASSERT_TRUE(engine.OpenSession("b", 10, kSwitch).ok());
  ASSERT_TRUE(engine.OpenSession("a", 10, kSwitch).ok());
  ASSERT_TRUE(engine.OpenSession("c", 10, kSwitch).ok());
  EXPECT_EQ(engine.OpenSession("a", 10, kSwitch).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.num_sessions(), 3u);
  EXPECT_EQ(engine.SessionNames(), (std::vector<std::string>{"a", "b", "c"}));

  // A handle obtained before closing stays usable afterwards.
  std::shared_ptr<EstimationSession> held = engine.GetSession("b").value();
  EXPECT_TRUE(engine.CloseSession("b").ok());
  EXPECT_EQ(engine.Query("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.num_sessions(), 2u);
  VoteEvent vote{0, 0, 1, Vote::kDirty};
  EXPECT_TRUE(held->AddVote(vote).ok());
  EXPECT_EQ(held->snapshot().num_votes, 1u);

  // The name can be reopened fresh.
  ASSERT_TRUE(engine.OpenSession("b", 10, kSwitch).ok());
  EXPECT_EQ(engine.Query("b")->num_votes, 0u);
}

TEST(EngineTest, ConcurrentOpenCloseAcrossShards) {
  DqmEngine engine;
  ThreadPool pool(4);
  std::atomic<int> opened{0};
  ParallelFor(&pool, 64, [&](size_t i) {
    std::string name = "churn-" + std::to_string(i);
    if (engine.OpenSession(name, 16, kSwitch).ok()) opened.fetch_add(1);
    VoteEvent vote{0, 0, static_cast<uint32_t>(i % 16), Vote::kDirty};
    ASSERT_TRUE(engine.Ingest(name, std::span<const VoteEvent>(&vote, 1)).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(engine.CloseSession(name).ok());
    }
  });
  EXPECT_EQ(opened.load(), 64);
  EXPECT_EQ(engine.num_sessions(), 32u);
}

TEST(SessionOptionsTest, ParsePublishCadenceSpec) {
  EXPECT_EQ(ParsePublishCadenceSpec("every_batch")->cadence,
            PublishCadence::kEveryBatch);
  EXPECT_EQ(ParsePublishCadenceSpec("manual")->cadence,
            PublishCadence::kManual);
  Result<SessionOptions> every_n = ParsePublishCadenceSpec("every_n_votes");
  ASSERT_TRUE(every_n.ok());
  EXPECT_EQ(every_n->cadence, PublishCadence::kEveryNVotes);
  EXPECT_EQ(every_n->publish_every_votes, SessionOptions().publish_every_votes);
  Result<SessionOptions> with_n = ParsePublishCadenceSpec("every_n_votes:128");
  ASSERT_TRUE(with_n.ok());
  EXPECT_EQ(with_n->publish_every_votes, 128u);
  EXPECT_FALSE(ParsePublishCadenceSpec("sometimes").ok());
  EXPECT_FALSE(ParsePublishCadenceSpec("every_n_votes:").ok());
  EXPECT_FALSE(ParsePublishCadenceSpec("every_n_votes:0").ok());
  EXPECT_FALSE(ParsePublishCadenceSpec("every_n_votes:12x").ok());
  // Largest representable threshold parses; 2^64 + 1 must not wrap to 1.
  Result<SessionOptions> max =
      ParsePublishCadenceSpec("every_n_votes:18446744073709551615");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->publish_every_votes, UINT64_MAX);
  Result<SessionOptions> wrapped =
      ParsePublishCadenceSpec("every_n_votes:18446744073709551617");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_NE(wrapped.status().message().find("overflows uint64"),
            std::string::npos)
      << wrapped.status().ToString();
}

TEST(SessionOptionsTest, ParseWalGroupCommitSpec) {
  SessionOptions base;
  Result<SessionOptions> by_votes = ParseWalGroupCommitSpec("128", base);
  ASSERT_TRUE(by_votes.ok()) << by_votes.status().ToString();
  EXPECT_EQ(by_votes->wal_group_commit_votes, 128u);
  EXPECT_EQ(by_votes->wal_group_commit_ms, base.wal_group_commit_ms);

  Result<SessionOptions> by_ms = ParseWalGroupCommitSpec("25ms", base);
  ASSERT_TRUE(by_ms.ok()) << by_ms.status().ToString();
  EXPECT_EQ(by_ms->wal_group_commit_ms, 25u);
  EXPECT_EQ(by_ms->wal_group_commit_votes, base.wal_group_commit_votes);

  // Largest representable value parses; one digit more overflows.
  Result<SessionOptions> max =
      ParseWalGroupCommitSpec("18446744073709551615", base);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->wal_group_commit_votes, UINT64_MAX);
}

TEST(SessionOptionsTest, ParseWalGroupCommitSpecRejectsGarbage) {
  SessionOptions base;
  EXPECT_FALSE(ParseWalGroupCommitSpec("", base).ok());
  EXPECT_FALSE(ParseWalGroupCommitSpec("ms", base).ok());  // unit, no digits
  EXPECT_FALSE(ParseWalGroupCommitSpec("0", base).ok());
  EXPECT_FALSE(ParseWalGroupCommitSpec("0ms", base).ok());
  EXPECT_FALSE(ParseWalGroupCommitSpec("-5", base).ok());
  EXPECT_FALSE(ParseWalGroupCommitSpec("12sec", base).ok());  // garbage unit
  EXPECT_FALSE(ParseWalGroupCommitSpec("12 ms", base).ok());
  EXPECT_FALSE(ParseWalGroupCommitSpec("1.5ms", base).ok());
  EXPECT_FALSE(ParseWalGroupCommitSpec("ten", base).ok());
  // 2^64 and far beyond: the per-digit guard must catch these, not wrap.
  Result<SessionOptions> overflow =
      ParseWalGroupCommitSpec("18446744073709551616", base);
  EXPECT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("overflow"), std::string::npos);
  EXPECT_FALSE(ParseWalGroupCommitSpec("99999999999999999999999", base).ok());
  EXPECT_FALSE(ParseWalGroupCommitSpec("99999999999999999999ms", base).ok());
}

TEST(SessionOptionsTest, ParseDurabilityFailurePolicySpellings) {
  Result<DurabilityFailurePolicy> fail_stop =
      ParseDurabilityFailurePolicy("fail_stop");
  ASSERT_TRUE(fail_stop.ok());
  EXPECT_EQ(*fail_stop, DurabilityFailurePolicy::kFailStop);
  Result<DurabilityFailurePolicy> degrade =
      ParseDurabilityFailurePolicy("degrade_to_volatile");
  ASSERT_TRUE(degrade.ok());
  EXPECT_EQ(*degrade, DurabilityFailurePolicy::kDegradeToVolatile);

  EXPECT_FALSE(ParseDurabilityFailurePolicy("").ok());
  EXPECT_FALSE(ParseDurabilityFailurePolicy("FAIL_STOP").ok());
  EXPECT_FALSE(ParseDurabilityFailurePolicy("degrade").ok());
  EXPECT_FALSE(ParseDurabilityFailurePolicy("volatile").ok());

  // Round trip through the manifest spelling.
  EXPECT_EQ(*ParseDurabilityFailurePolicy(
                DurabilityFailurePolicyName(DurabilityFailurePolicy::kFailStop)),
            DurabilityFailurePolicy::kFailStop);
  EXPECT_EQ(*ParseDurabilityFailurePolicy(DurabilityFailurePolicyName(
                DurabilityFailurePolicy::kDegradeToVolatile)),
            DurabilityFailurePolicy::kDegradeToVolatile);
}

TEST(EstimationSessionTest, PanelCadenceAndStripesDecideCommitPath) {
  const std::vector<std::string> tally_panel = {"chao92", "voting", "nominal"};
  const std::vector<std::string> switch_panel = {"switch", "chao92"};
  DqmEngine engine;
  // Defaults (every_batch cadence, auto stripes): serialized — auto
  // striping never pessimizes the historical per-batch configuration.
  auto default_session = engine.OpenSession(
      "default", 64, std::span<const std::string>(tally_panel));
  ASSERT_TRUE(default_session.ok());
  EXPECT_FALSE((*default_session)->concurrent_ingest());
  // options() reports the resolved stripe count: 1 = serialized.
  EXPECT_EQ((*default_session)->options().ingest_stripes, 1u);
  // A coalesced cadence turns auto striping on for eligible panels...
  SessionOptions coalesced;
  coalesced.cadence = PublishCadence::kEveryNVotes;
  coalesced.checkpoint_every_votes = 150;
  auto tally = engine.OpenSession(
      "tally", 64, std::span<const std::string>(tally_panel), coalesced);
  ASSERT_TRUE(tally.ok());
  EXPECT_TRUE((*tally)->concurrent_ingest());
  EXPECT_GE((*tally)->options().ingest_stripes, 2u);
  EXPECT_EQ((*tally)->options().checkpoint_every_votes, 150u);
  // ...but order-sensitive panels always fall back, and never checkpoint: a
  // checkpoint's counts cannot restore the arrival order SWITCH consumes.
  auto ordered = engine.OpenSession(
      "ordered", 64, std::span<const std::string>(switch_panel), coalesced);
  ASSERT_TRUE(ordered.ok());
  EXPECT_FALSE((*ordered)->concurrent_ingest());
  EXPECT_EQ((*ordered)->options().ingest_stripes, 1u);
  EXPECT_EQ((*ordered)->options().checkpoint_every_votes, 0u);
  // Explicit stripes >= 2 force striping under any cadence;
  // ingest_stripes = 1 forces the serialized path under any cadence.
  SessionOptions explicit_stripes;
  explicit_stripes.ingest_stripes = 4;
  auto striped_batch = engine.OpenSession(
      "striped-batch", 64, std::span<const std::string>(tally_panel),
      explicit_stripes);
  ASSERT_TRUE(striped_batch.ok());
  EXPECT_TRUE((*striped_batch)->concurrent_ingest());
  EXPECT_EQ((*striped_batch)->options().ingest_stripes, 4u);
  SessionOptions forced = coalesced;
  forced.ingest_stripes = 1;
  auto serialized = engine.OpenSession(
      "forced", 64, std::span<const std::string>(tally_panel), forced);
  ASSERT_TRUE(serialized.ok());
  EXPECT_FALSE((*serialized)->concurrent_ingest());
}

TEST(EstimationSessionTest, ManualCadencePublishesOnlyOnPublish) {
  const std::vector<std::string> panel = {"voting", "nominal"};
  SessionOptions options;
  options.cadence = PublishCadence::kManual;
  for (size_t stripes : {size_t{0}, size_t{1}}) {  // striped and serialized
    options.ingest_stripes = stripes;
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", 32, std::span<const std::string>(panel), options);
    ASSERT_TRUE(session.ok());
    std::vector<VoteEvent> batch = {{0, 0, 1, Vote::kDirty},
                                    {0, 1, 2, Vote::kDirty}};
    ASSERT_TRUE((*session)->AddVotes(batch).ok());
    ASSERT_TRUE((*session)->AddVotes(batch).ok());
    // Nothing published yet: readers still see the initial empty snapshot.
    Snapshot before = (*session)->snapshot();
    EXPECT_EQ(before.version, 0u);
    EXPECT_EQ(before.num_votes, 0u);
    EXPECT_EQ((*session)->committed_votes(), 4u);
    (*session)->Publish();
    Snapshot after = (*session)->snapshot();
    EXPECT_EQ(after.version, 1u);
    EXPECT_EQ(after.num_votes, 4u);
    EXPECT_EQ(after.nominal_count, 2u);
    EXPECT_EQ(after.majority_count, 2u);
  }
}

TEST(EstimationSessionTest, EveryNVotesCadenceCoalescesPublishes) {
  const std::vector<std::string> panel = {"voting"};
  SessionOptions options;
  options.cadence = PublishCadence::kEveryNVotes;
  options.publish_every_votes = 4;
  for (size_t stripes : {size_t{0}, size_t{1}}) {
    options.ingest_stripes = stripes;
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", 16, std::span<const std::string>(panel), options);
    ASSERT_TRUE(session.ok());
    std::vector<VoteEvent> batch = {{0, 0, 1, Vote::kDirty},
                                    {0, 1, 2, Vote::kClean}};
    ASSERT_TRUE((*session)->AddVotes(batch).ok());  // 2 committed: no publish
    EXPECT_EQ((*session)->snapshot().version, 0u);
    ASSERT_TRUE((*session)->AddVotes(batch).ok());  // 4 committed: publish
    Snapshot at_threshold = (*session)->snapshot();
    EXPECT_EQ(at_threshold.version, 1u);
    EXPECT_EQ(at_threshold.num_votes, 4u);
    ASSERT_TRUE((*session)->AddVotes(batch).ok());  // 6: below next threshold
    EXPECT_EQ((*session)->snapshot().num_votes, 4u);
    ASSERT_TRUE((*session)->AddVotes(batch).ok());  // 8: publish again
    EXPECT_EQ((*session)->snapshot().num_votes, 8u);

    // Batch sizes that do not divide N: both paths publish exactly when the
    // committed total crosses a multiple of N (identical striped /
    // serialized schedules).
    auto odd = engine.OpenSession("odd-" + std::to_string(stripes), 16,
                                  std::span<const std::string>(panel),
                                  options);
    ASSERT_TRUE(odd.ok());
    std::vector<VoteEvent> three = {{0, 0, 1, Vote::kDirty},
                                    {0, 1, 2, Vote::kClean},
                                    {0, 2, 3, Vote::kClean}};
    ASSERT_TRUE((*odd)->AddVotes(three).ok());  // 3: below 4
    EXPECT_EQ((*odd)->snapshot().version, 0u);
    ASSERT_TRUE((*odd)->AddVotes(three).ok());  // 6: crosses 4 -> publish
    EXPECT_EQ((*odd)->snapshot().version, 1u);
    EXPECT_EQ((*odd)->snapshot().num_votes, 6u);
    ASSERT_TRUE((*odd)->AddVotes(three).ok());  // 9: crosses 8 -> publish
    EXPECT_EQ((*odd)->snapshot().version, 2u);
    EXPECT_EQ((*odd)->snapshot().num_votes, 9u);
    ASSERT_TRUE((*odd)->AddVotes(three).ok());  // 12: crosses 12 -> publish
    EXPECT_EQ((*odd)->snapshot().version, 3u);
  }
}

TEST(EstimationSessionTest, StripedEveryBatchMatchesSerializedExactly) {
  // The default cadence on the striped path: a single producer's snapshots
  // must be bit-identical to the serialized path after every batch — the
  // "every_batch stays bit-compatible" contract, for the full tally panel.
  core::SimulatedRun run = MakeRun(11);
  size_t num_items = run.truth.size();
  const std::vector<std::string> panel = {"chao92", "vchao92?shift=2",
                                          "voting", "nominal", "good-turing"};
  DqmEngine engine;
  SessionOptions striped_options;
  striped_options.ingest_stripes = 4;  // striping + the default every_batch
  auto striped =
      engine.OpenSession("striped", num_items,
                         std::span<const std::string>(panel), striped_options);
  ASSERT_TRUE(striped.ok());
  ASSERT_TRUE((*striped)->concurrent_ingest());
  SessionOptions forced;
  forced.ingest_stripes = 1;
  auto serialized = engine.OpenSession(
      "serialized", num_items, std::span<const std::string>(panel), forced);
  ASSERT_TRUE(serialized.ok());
  ASSERT_FALSE((*serialized)->concurrent_ingest());

  const std::vector<VoteEvent>& events = run.log.events();
  for (size_t begin = 0; begin < events.size(); begin += 97) {
    size_t size = std::min<size_t>(97, events.size() - begin);
    std::span<const VoteEvent> batch(&events[begin], size);
    ASSERT_TRUE((*striped)->AddVotes(batch).ok());
    ASSERT_TRUE((*serialized)->AddVotes(batch).ok());
    Snapshot a = (*striped)->snapshot();
    Snapshot b = (*serialized)->snapshot();
    ASSERT_EQ(a.version, b.version);
    ASSERT_EQ(a.num_votes, b.num_votes);
    ASSERT_EQ(a.nominal_count, b.nominal_count);
    ASSERT_EQ(a.majority_count, b.majority_count);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (size_t i = 0; i < a.estimates.size(); ++i) {
      ASSERT_EQ(a.estimates[i].total_errors, b.estimates[i].total_errors)
          << panel[i] << " after " << a.num_votes << " votes";
      ASSERT_EQ(a.estimates[i].quality_score, b.estimates[i].quality_score)
          << panel[i];
    }
  }
}

}  // namespace
}  // namespace dqm::engine
