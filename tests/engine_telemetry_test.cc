// Integration tests for the engine's telemetry instrumentation: commit /
// publish counters and histograms move with ingest, per-session quality
// gauges appear on publish and vanish when the session dies, the engine
// roll-up gauges count every session exactly once and return to zero after
// churn, the deferred-publish counter tracks the coalesced cadence, striped
// sessions export per-stripe lock counters, and the per-session flight
// recorder captures commit/publish spans. The commit histogram times the
// whole commit, WAL fsync included.
//
// Everything here reads the process-global registry, which other tests in
// this binary also write — so every assertion is a *delta* against a
// baseline taken at test start, never an absolute.

#include "engine/engine.h"

#include <bit>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "crowd/vote.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace dqm::engine {
namespace {

using crowd::Vote;
using crowd::VoteEvent;
using telemetry::MetricsRegistry;

constexpr size_t kItems = 48;
const std::vector<std::string> kPanel = {"chao92", "voting"};

std::vector<VoteEvent> MakeBatch(size_t salt, size_t size) {
  std::vector<VoteEvent> votes;
  votes.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    votes.push_back(VoteEvent{
        static_cast<uint32_t>(salt), static_cast<uint32_t>(salt % 5),
        static_cast<uint32_t>((salt * 13 + i * 3) % kItems),
        (salt + i) % 3 == 0 ? Vote::kClean : Vote::kDirty});
  }
  return votes;
}

/// Value of the (name, labels) counter in `collection`; 0 when absent.
uint64_t CounterValue(const MetricsRegistry::Collection& collection,
                      const std::string& name,
                      const telemetry::LabelSet& labels = {}) {
  for (const auto& counter : collection.counters) {
    if (counter.name == name && counter.labels == labels) {
      return counter.value;
    }
  }
  return 0;
}

/// Count of gauges named `name` carrying a `session` label equal to
/// `session`; `value` (if non-null) receives the last match's value.
size_t SessionGaugeCount(const MetricsRegistry::Collection& collection,
                         const std::string& name, const std::string& session,
                         double* value = nullptr) {
  size_t count = 0;
  for (const auto& gauge : collection.gauges) {
    if (gauge.name != name) continue;
    for (const auto& [k, v] : gauge.labels) {
      if (k == "session" && v == session) {
        ++count;
        if (value != nullptr) *value = gauge.value;
      }
    }
  }
  return count;
}

double GaugeValue(const MetricsRegistry::Collection& collection,
                  const std::string& name) {
  for (const auto& gauge : collection.gauges) {
    if (gauge.name == name && gauge.labels.empty()) return gauge.value;
  }
  return 0.0;
}

uint64_t HistogramCount(const MetricsRegistry::Collection& collection,
                        const std::string& name) {
  for (const auto& histogram : collection.histograms) {
    if (histogram.name == name && histogram.labels.empty()) {
      return histogram.snapshot.count;
    }
  }
  return 0;
}

/// The unlabeled dqm_commit_latency_ns histogram in `collection`.
telemetry::HistogramSnapshot CommitLatency(
    const MetricsRegistry::Collection& collection) {
  for (const auto& histogram : collection.histograms) {
    if (histogram.name == "dqm_commit_latency_ns" &&
        histogram.labels.empty()) {
      return histogram.snapshot;
    }
  }
  return {};
}

TEST(EngineTelemetryTest, CommitCountersAndHistogramsMoveWithIngest) {
  MetricsRegistry::Collection before = MetricsRegistry::Global().Collect();
  ASSERT_TRUE(telemetry::Enabled());

  DqmEngine engine;
  ASSERT_TRUE(engine
                  .OpenSession("telem-commit", kItems,
                               std::span<const std::string>(kPanel))
                  .ok());
  constexpr size_t kBatches = 7;
  constexpr size_t kBatchSize = 12;
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(engine.Ingest("telem-commit", MakeBatch(b, kBatchSize)).ok());
  }
  // The retry counter registers on the first seqlock *read* — take one.
  ASSERT_TRUE(engine.Query("telem-commit").ok());

  MetricsRegistry::Collection after = MetricsRegistry::Global().Collect();
  EXPECT_EQ(CounterValue(after, "dqm_commit_batches_total") -
                CounterValue(before, "dqm_commit_batches_total"),
            kBatches);
  EXPECT_EQ(CounterValue(after, "dqm_commit_votes_total") -
                CounterValue(before, "dqm_commit_votes_total"),
            kBatches * kBatchSize);
  // every_batch default: one publish per commit.
  EXPECT_EQ(CounterValue(after, "dqm_publishes_total") -
                CounterValue(before, "dqm_publishes_total"),
            kBatches);
  EXPECT_EQ(HistogramCount(after, "dqm_commit_batch_votes") -
                HistogramCount(before, "dqm_commit_batch_votes"),
            kBatches);
  // Telemetry is enabled, so the timed histograms moved too.
  EXPECT_EQ(HistogramCount(after, "dqm_commit_latency_ns") -
                HistogramCount(before, "dqm_commit_latency_ns"),
            kBatches);
  EXPECT_EQ(HistogramCount(after, "dqm_publish_latency_ns") -
                HistogramCount(before, "dqm_publish_latency_ns"),
            kBatches);
  // The seqlock retry counter exists even when no retry ever happened —
  // a scrape can always tell "zero retries" apart from "not instrumented".
  bool seqlock_registered = false;
  for (const auto& counter : after.counters) {
    seqlock_registered |= counter.name == "dqm_seqlock_read_retries_total";
  }
  EXPECT_TRUE(seqlock_registered);
}

TEST(EngineTelemetryTest, CommitLatencyCoversTheWalFsync) {
  // The commit histogram is end to end: the timer starts before the WAL
  // append, so a batch that fsyncs (group commit of 1 vote) records at
  // least the fsync's injected 2 ms. The histogram keeps no sum, so the
  // check is per sample: each new one lands at or above the bucket that
  // holds 2 ms, whose values are all >= 2^20 ns.
  const std::string root =
      (std::filesystem::path(testing::TempDir()) / "dqm_telem_commit_wal")
          .string();
  std::filesystem::remove_all(root);
  DqmEngine engine;
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 1;
  Result<std::shared_ptr<EstimationSession>> session = engine.OpenSession(
      "telem-commit-wal", kItems, std::span<const std::string>(kPanel),
      options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(failpoint::Configure("dqm.wal.fsync=delay(2ms)").ok());
  const telemetry::HistogramSnapshot before =
      CommitLatency(MetricsRegistry::Global().Collect());
  constexpr size_t kBatches = 5;
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE((*session)->AddVotes(MakeBatch(b, 4)).ok());
  }
  const telemetry::HistogramSnapshot after =
      CommitLatency(MetricsRegistry::Global().Collect());
  failpoint::DisarmAll();
  constexpr uint64_t kTwoMs = 2'000'000;
  const size_t two_ms_bucket = std::bit_width(kTwoMs);
  ASSERT_EQ(after.count - before.count, kBatches);
  uint64_t at_least_two_ms = 0;
  for (size_t b = two_ms_bucket; b < 64; ++b) {
    at_least_two_ms += after.buckets[b] - before.buckets[b];
  }
  EXPECT_EQ(at_least_two_ms, kBatches);
  std::filesystem::remove_all(root);
}

TEST(EngineTelemetryTest, QualityGaugesTrackSessionLifetime) {
  const std::string name = "telem-gauges";
  DqmEngine engine;
  {
    Result<std::shared_ptr<EstimationSession>> session = engine.OpenSession(
        name, kItems, std::span<const std::string>(kPanel));
    ASSERT_TRUE(session.ok());
    // Gauges exist from open (quality starts at 1.0: an empty dataset is
    // presumed clean until evidence arrives).
    MetricsRegistry::Collection at_open = MetricsRegistry::Global().Collect();
    double quality = -1.0;
    EXPECT_EQ(SessionGaugeCount(at_open, "dqm_session_quality", name,
                                &quality),
              kPanel.size());
    EXPECT_EQ(quality, 1.0);

    ASSERT_TRUE(engine.Ingest(name, MakeBatch(3, 40)).ok());
    MetricsRegistry::Collection at_publish =
        MetricsRegistry::Global().Collect();
    double published = -1.0;
    EXPECT_EQ(SessionGaugeCount(at_publish, "dqm_session_quality", name,
                                &published),
              kPanel.size());
    EXPECT_EQ(published, (*session)->snapshot().estimates.back().quality_score);
    EXPECT_EQ(SessionGaugeCount(at_publish, "dqm_session_total_errors", name),
              kPanel.size());
    ASSERT_TRUE(engine.CloseSession(name).ok());
    // Handle still held: close only unregisters the name.
    EXPECT_EQ(SessionGaugeCount(MetricsRegistry::Global().Collect(),
                                "dqm_session_quality", name),
              kPanel.size());
  }
  // Last handle dropped -> session destroyed -> gauges leave the surface.
  MetricsRegistry::Collection after = MetricsRegistry::Global().Collect();
  EXPECT_EQ(SessionGaugeCount(after, "dqm_session_quality", name), 0u);
  EXPECT_EQ(SessionGaugeCount(after, "dqm_session_total_errors", name), 0u);
}

TEST(EngineTelemetryTest, EngineRollupCountsEachSessionOnceAndDrains) {
  DqmEngine engine;
  constexpr size_t kSessions = 5;
  for (size_t s = 0; s < kSessions; ++s) {
    std::string name = "telem-rollup-" + std::to_string(s);
    ASSERT_TRUE(engine
                    .OpenSession(name, kItems,
                                 std::span<const std::string>(kPanel))
                    .ok());
    ASSERT_TRUE(engine.Ingest(name, MakeBatch(s, 25)).ok());
  }
  engine.RefreshTelemetry();
  MetricsRegistry::Collection with_sessions =
      MetricsRegistry::Global().Collect();
  EXPECT_EQ(GaugeValue(with_sessions, "dqm_engine_sessions_open"),
            static_cast<double>(kSessions));
  // Exactly-once: the roll-up equals the sum over the session handles, no
  // double counting across shards.
  size_t expected_retained = 0;
  for (const std::string& name : engine.SessionNames()) {
    expected_retained += engine.GetSession(name).value()->RetainedBytes();
  }
  EXPECT_GT(expected_retained, 0u);
  EXPECT_EQ(GaugeValue(with_sessions, "dqm_engine_retained_bytes"),
            static_cast<double>(expected_retained));

  // Refresh is idempotent — Set semantics, so a second walk cannot
  // accumulate.
  engine.RefreshTelemetry();
  EXPECT_EQ(GaugeValue(MetricsRegistry::Global().Collect(),
                       "dqm_engine_retained_bytes"),
            static_cast<double>(expected_retained));

  for (const std::string& name : engine.SessionNames()) {
    ASSERT_TRUE(engine.CloseSession(name).ok());
  }
  engine.RefreshTelemetry();
  MetricsRegistry::Collection drained = MetricsRegistry::Global().Collect();
  EXPECT_EQ(GaugeValue(drained, "dqm_engine_sessions_open"), 0.0);
  EXPECT_EQ(GaugeValue(drained, "dqm_engine_retained_bytes"), 0.0);
}

TEST(EngineTelemetryTest, CoalescedCadenceCountsDeferredPublishes) {
  MetricsRegistry::Collection before = MetricsRegistry::Global().Collect();
  DqmEngine engine;
  SessionOptions options;
  options.cadence = PublishCadence::kEveryNVotes;
  options.publish_every_votes = 1000;  // never reached below
  Result<std::shared_ptr<EstimationSession>> session = engine.OpenSession(
      "telem-deferred", kItems, std::span<const std::string>(kPanel), options);
  ASSERT_TRUE(session.ok());
  constexpr size_t kBatches = 6;
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE((*session)->AddVotes(MakeBatch(b, 10)).ok());
  }
  MetricsRegistry::Collection after = MetricsRegistry::Global().Collect();
  EXPECT_EQ(CounterValue(after, "dqm_publish_deferred_total") -
                CounterValue(before, "dqm_publish_deferred_total"),
            kBatches);
  EXPECT_EQ(CounterValue(after, "dqm_publishes_total"),
            CounterValue(before, "dqm_publishes_total"));
}

TEST(EngineTelemetryTest, StripedSessionExportsPerStripeLockCounters) {
  MetricsRegistry::Collection before = MetricsRegistry::Global().Collect();
  DqmEngine engine;
  SessionOptions options;
  options.cadence = PublishCadence::kEveryNVotes;
  options.publish_every_votes = 64;
  options.ingest_stripes = 4;
  Result<std::shared_ptr<EstimationSession>> session = engine.OpenSession(
      "telem-striped", kItems, std::span<const std::string>(kPanel), options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->concurrent_ingest());
  for (size_t b = 0; b < 20; ++b) {
    ASSERT_TRUE((*session)->AddVotes(MakeBatch(b, 16)).ok());
  }
  (*session)->Publish();
  MetricsRegistry::Collection after = MetricsRegistry::Global().Collect();
  uint64_t acquisitions = 0;
  for (size_t stripe = 0; stripe < 4; ++stripe) {
    telemetry::LabelSet labels = {{"stripe", std::to_string(stripe)}};
    acquisitions +=
        CounterValue(after, "dqm_stripe_lock_acquisitions_total", labels) -
        CounterValue(before, "dqm_stripe_lock_acquisitions_total", labels);
  }
  // Every batch routes each vote's stripe once per distinct stripe touched;
  // at minimum each committed batch acquired one stripe lock.
  EXPECT_GE(acquisitions, 20u);
  // The publish phase split was recorded (striped path only).
  EXPECT_GT(HistogramCount(after, "dqm_publish_pause_ns") -
                HistogramCount(before, "dqm_publish_pause_ns"),
            0u);
  EXPECT_GT(HistogramCount(after, "dqm_publish_fold_ns") -
                HistogramCount(before, "dqm_publish_fold_ns"),
            0u);
}

TEST(EngineTelemetryTest, FlightRecorderCapturesCommitAndPublishSpans) {
  DqmEngine engine;
  Result<std::shared_ptr<EstimationSession>> session = engine.OpenSession(
      "telem-flight", kItems, std::span<const std::string>(kPanel));
  ASSERT_TRUE(session.ok());
  constexpr size_t kBatches = 5;
  constexpr size_t kBatchSize = 20;
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE((*session)->AddVotes(MakeBatch(b, kBatchSize)).ok());
  }
  std::vector<telemetry::Span> spans =
      (*session)->flight_recorder().Snapshot();
  size_t commits = 0;
  size_t publishes = 0;
  for (const telemetry::Span& span : spans) {
    EXPECT_GE(span.end_nanos, span.start_nanos);
    if (span.kind == telemetry::SpanKind::kCommit) {
      ++commits;
      EXPECT_EQ(span.value, kBatchSize);  // commit spans carry batch size
    }
    if (span.kind == telemetry::SpanKind::kPublish) ++publishes;
  }
  EXPECT_EQ(commits, kBatches);
  EXPECT_EQ(publishes, kBatches);  // every_batch cadence
  // Tickets are unique and sorted.
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].ticket, spans[i].ticket);
  }
}

}  // namespace
}  // namespace dqm::engine
