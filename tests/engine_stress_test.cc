// TSan regression test for the engine's concurrency contract: sessions are
// opened, written, queried, swept (QueryAll) and closed from many threads
// at once — across shards — while readers continuously assert that every
// seqlock snapshot is *internally consistent*: all fields from one
// committed batch, scalar mirrors matching row 0, versions monotone,
// counts within bounds. Run under -DDQM_SANITIZE=thread this pins the
// SnapshotCell protocol and the shard locking; in a plain build it still
// catches torn or stale-mixed snapshots by value.

#include "engine/engine.h"

#include <atomic>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "crowd/vote.h"
#include "telemetry/metrics.h"

namespace dqm::engine {
namespace {

using crowd::Vote;
using crowd::VoteEvent;

constexpr size_t kItems = 64;
constexpr size_t kBatchSize = 8;
constexpr size_t kBatchesPerWriter = 150;
const std::vector<std::string> kPanel = {"switch", "chao92", "voting",
                                         "nominal"};

/// Asserts every internal-consistency invariant a snapshot must satisfy
/// regardless of when it was taken.
void CheckSnapshotInvariants(const Snapshot& snapshot, uint64_t min_version,
                             const char* context) {
  ASSERT_EQ(snapshot.estimates.size(), kPanel.size()) << context;
  // One committed batch = kBatchSize votes: version and vote count move in
  // lockstep, so a mixed read of the two fields is detectable.
  ASSERT_EQ(snapshot.num_votes, snapshot.version * kBatchSize) << context;
  ASSERT_GE(snapshot.version, min_version) << context;
  ASSERT_EQ(snapshot.num_items, kItems) << context;
  ASSERT_LE(snapshot.majority_count, snapshot.nominal_count) << context;
  ASSERT_LE(snapshot.nominal_count, kItems) << context;
  // Scalar header mirrors row 0 (the primary estimator) exactly.
  ASSERT_EQ(snapshot.estimated_total_errors,
            snapshot.estimates.front().total_errors)
      << context;
  ASSERT_EQ(snapshot.estimated_undetected_errors,
            snapshot.estimates.front().undetected_errors)
      << context;
  ASSERT_EQ(snapshot.quality_score, snapshot.estimates.front().quality_score)
      << context;
  for (const EstimatorEstimate& row : snapshot.estimates) {
    ASSERT_TRUE(std::isfinite(row.total_errors)) << context;
    ASSERT_GE(row.total_errors, 0.0) << context;
    ASSERT_GE(row.quality_score, 0.0) << context;
    ASSERT_LE(row.quality_score, 1.0) << context;
  }
}

/// Deterministic per-writer vote batch; contents don't matter, validity
/// does.
std::vector<VoteEvent> MakeBatch(size_t writer, size_t batch) {
  std::vector<VoteEvent> votes;
  votes.reserve(kBatchSize);
  for (size_t i = 0; i < kBatchSize; ++i) {
    auto item = static_cast<uint32_t>((writer * 31 + batch * 7 + i * 3) %
                                      kItems);
    votes.push_back(VoteEvent{static_cast<uint32_t>(batch),
                              static_cast<uint32_t>(writer), item,
                              (writer + batch + i) % 3 == 0 ? Vote::kClean
                                                            : Vote::kDirty});
  }
  return votes;
}

TEST(EngineStressTest, ConcurrentOpenAddVotesQueryCloseStaysConsistent) {
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 2;
  constexpr size_t kChurnCycles = 200;

  DqmEngine engine;
  for (size_t w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(engine
                    .OpenSession("stable-" + std::to_string(w), kItems,
                                 std::span<const std::string>(kPanel))
                    .ok());
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;

  // Writers: batched ingest into their own session (one producer per
  // session, the supported pattern).
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&engine, w] {
      std::string name = "stable-" + std::to_string(w);
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        std::vector<VoteEvent> batch = MakeBatch(w, b);
        ASSERT_TRUE(engine.Ingest(name, batch).ok());
      }
    });
  }

  // Readers: hammer snapshots of every stable session (by-name queries and
  // handle polling) plus full QueryAll sweeps, asserting consistency and
  // per-session version monotonicity the whole time.
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&engine, &done] {
      std::vector<uint64_t> last_version(kWriters, 0);
      while (!done.load(std::memory_order_acquire)) {
        for (size_t w = 0; w < kWriters; ++w) {
          Result<Snapshot> snapshot =
              engine.Query("stable-" + std::to_string(w));
          ASSERT_TRUE(snapshot.ok());
          CheckSnapshotInvariants(*snapshot, last_version[w], "Query");
          last_version[w] = snapshot->version;
        }
        for (const auto& [name, snapshot] : engine.QueryAll()) {
          if (name.rfind("stable-", 0) != 0) continue;  // churn session
          size_t w = static_cast<size_t>(name.back() - '0');
          CheckSnapshotInvariants(snapshot, last_version[w], "QueryAll");
          last_version[w] = snapshot.version;
        }
      }
    });
  }

  // Churn: open/ingest/query/close short-lived sessions across the shard
  // space while the stable sessions are being written and read.
  threads.emplace_back([&engine] {
    for (size_t cycle = 0; cycle < kChurnCycles; ++cycle) {
      std::string name = "churn-" + std::to_string(cycle % 16);
      Result<std::shared_ptr<EstimationSession>> session =
          engine.OpenSession(name, kItems,
                             std::span<const std::string>(kPanel));
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      std::vector<VoteEvent> batch = MakeBatch(99, cycle);
      ASSERT_TRUE((*session)->AddVotes(batch).ok());
      Snapshot snapshot = (*session)->snapshot();
      ASSERT_EQ(snapshot.version, 1u);
      ASSERT_EQ(snapshot.num_votes, kBatchSize);
      ASSERT_TRUE(engine.CloseSession(name).ok());
      // The handle stays usable after close (documented contract).
      ASSERT_TRUE((*session)->AddVotes(batch).ok());
      ASSERT_EQ((*session)->snapshot().version, 2u);
    }
  });

  for (size_t w = 0; w < kWriters; ++w) {
    threads[w].join();  // writers finish first
  }
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }

  // Final state: every stable session saw exactly its writer's batches.
  for (size_t w = 0; w < kWriters; ++w) {
    Result<Snapshot> snapshot = engine.Query("stable-" + std::to_string(w));
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ(snapshot->version, kBatchesPerWriter);
    EXPECT_EQ(snapshot->num_votes, kBatchesPerWriter * kBatchSize);
    CheckSnapshotInvariants(*snapshot, kBatchesPerWriter, "final");
  }
  EXPECT_EQ(engine.num_sessions(), kWriters);
}

/// The striped commit path under TSan: many producers committing into ONE
/// session while readers poll and a publisher cadence coalesces — the
/// multi-producer single-session contract. Version/vote monotonicity and
/// internal snapshot consistency are asserted continuously; after the
/// producers join, an explicit Publish must expose exactly the committed
/// votes, and every tally-derived number must be bit-identical to a
/// serialized replay of the same votes.
TEST(EngineStressTest, MultiProducerSingleSessionStripedStaysConsistent) {
  constexpr size_t kProducers = 4;
  constexpr size_t kReaders = 2;
  const std::vector<std::string> kTallyPanel = {"chao92", "voting", "nominal"};

  DqmEngine engine;
  SessionOptions options;
  options.cadence = PublishCadence::kEveryNVotes;
  options.publish_every_votes = 64;
  options.ingest_stripes = 4;
  Result<std::shared_ptr<EstimationSession>> opened = engine.OpenSession(
      "hot", kItems, std::span<const std::string>(kTallyPanel), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::shared_ptr<EstimationSession> session = *opened;
  ASSERT_TRUE(session->concurrent_ingest());

  constexpr uint64_t kTotalVotes =
      kProducers * kBatchesPerWriter * kBatchSize;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&session, p] {
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        std::vector<VoteEvent> batch = MakeBatch(p, b);
        ASSERT_TRUE(session->AddVotes(batch).ok());
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&session, &done, kTotalVotes] {
      Snapshot snapshot;  // reused: the allocation-free polling path
      uint64_t last_version = 0;
      uint64_t last_votes = 0;
      while (!done.load(std::memory_order_acquire)) {
        session->SnapshotInto(snapshot);
        ASSERT_EQ(snapshot.estimates.size(), 3u);
        ASSERT_GE(snapshot.version, last_version);
        ASSERT_GE(snapshot.num_votes, last_votes);
        ASSERT_LE(snapshot.num_votes, kTotalVotes);
        ASSERT_EQ(snapshot.num_items, kItems);
        ASSERT_LE(snapshot.majority_count, snapshot.nominal_count);
        ASSERT_LE(snapshot.nominal_count, kItems);
        ASSERT_EQ(snapshot.estimated_total_errors,
                  snapshot.estimates.front().total_errors);
        for (const EstimatorEstimate& row : snapshot.estimates) {
          ASSERT_TRUE(std::isfinite(row.total_errors));
          ASSERT_GE(row.total_errors, 0.0);
          ASSERT_GE(row.quality_score, 0.0);
          ASSERT_LE(row.quality_score, 1.0);
        }
        last_version = snapshot.version;
        last_votes = snapshot.num_votes;
      }
    });
  }
  for (size_t p = 0; p < kProducers; ++p) threads[p].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  session->Publish();
  Snapshot final_snapshot = session->snapshot();
  EXPECT_EQ(final_snapshot.num_votes, kTotalVotes);

  // Serialized reference: same votes, one thread, forced serialized path.
  // All three estimators are tally-derived, so every number must match
  // bit for bit regardless of the concurrent interleaving above.
  SessionOptions serial_options;
  serial_options.ingest_stripes = 1;
  serial_options.cadence = PublishCadence::kManual;
  Result<std::shared_ptr<EstimationSession>> reference = engine.OpenSession(
      "reference", kItems, std::span<const std::string>(kTallyPanel),
      serial_options);
  ASSERT_TRUE(reference.ok());
  for (size_t p = 0; p < kProducers; ++p) {
    for (size_t b = 0; b < kBatchesPerWriter; ++b) {
      std::vector<VoteEvent> batch = MakeBatch(p, b);
      ASSERT_TRUE((*reference)->AddVotes(batch).ok());
    }
  }
  (*reference)->Publish();
  Snapshot expected = (*reference)->snapshot();
  EXPECT_EQ(final_snapshot.num_votes, expected.num_votes);
  EXPECT_EQ(final_snapshot.nominal_count, expected.nominal_count);
  EXPECT_EQ(final_snapshot.majority_count, expected.majority_count);
  ASSERT_EQ(final_snapshot.estimates.size(), expected.estimates.size());
  for (size_t i = 0; i < expected.estimates.size(); ++i) {
    EXPECT_EQ(final_snapshot.estimates[i].total_errors,
              expected.estimates[i].total_errors)
        << kTallyPanel[i];
    EXPECT_EQ(final_snapshot.estimates[i].undetected_errors,
              expected.estimates[i].undetected_errors)
        << kTallyPanel[i];
    EXPECT_EQ(final_snapshot.estimates[i].quality_score,
              expected.estimates[i].quality_score)
        << kTallyPanel[i];
  }
}

/// Telemetry fold under TSan: writers hammer a shared counter + histogram
/// while readers continuously fold them and Collect() the whole registry —
/// the scrape-during-ingest pattern. The relaxed sharded cells must be
/// data-race-free and lose nothing once the writers join.
TEST(EngineStressTest, TelemetryFoldUnderConcurrentWriters) {
  constexpr size_t kWriters = 4;
  constexpr size_t kOpsPerWriter = 50000;

  telemetry::MetricsRegistry registry;
  telemetry::Counter* counter = registry.GetCounter("stress_ops_total");
  telemetry::Histogram* histogram = registry.GetHistogram("stress_latency");
  telemetry::Gauge* gauge = registry.GetGauge("stress_gauge");

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = 0; i < kOpsPerWriter; ++i) {
        counter->Increment();
        histogram->Record((w * kOpsPerWriter + i) % 8192);
        if ((i & 1023) == 0) gauge->Set(static_cast<double>(i));
      }
    });
  }
  threads.emplace_back([&] {
    uint64_t last_count = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Folds may run concurrently with writers: totals are monotone and
      // the histogram's bucket sum always equals its count.
      uint64_t count = counter->Value();
      ASSERT_GE(count, last_count);
      last_count = count;
      telemetry::HistogramSnapshot snap = histogram->Snapshot();
      uint64_t bucket_sum = 0;
      for (uint64_t bucket : snap.buckets) bucket_sum += bucket;
      ASSERT_EQ(bucket_sum, snap.count);
      telemetry::MetricsRegistry::Collection collection = registry.Collect();
      ASSERT_EQ(collection.counters.size(), 1u);
      ASSERT_EQ(collection.histograms.size(), 1u);
    }
  });
  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(counter->Value(), kWriters * kOpsPerWriter);
  EXPECT_EQ(histogram->Snapshot().count, kWriters * kOpsPerWriter);
}

/// RefreshTelemetry racing open/close churn: the roll-up walk must count
/// each live session exactly once (never crash, never negative) while the
/// session set changes underneath it, and must drain to zero when the churn
/// stops and every session is gone.
TEST(EngineStressTest, RefreshTelemetryDuringSessionChurn) {
  constexpr size_t kChurnThreads = 3;
  constexpr size_t kCyclesPerThread = 120;
  const std::vector<std::string> kTallyPanel = {"chao92", "voting"};

  DqmEngine engine;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kChurnThreads; ++t) {
    threads.emplace_back([&engine, &kTallyPanel, t] {
      for (size_t cycle = 0; cycle < kCyclesPerThread; ++cycle) {
        std::string name =
            "churn-" + std::to_string(t) + "-" + std::to_string(cycle % 8);
        Result<std::shared_ptr<EstimationSession>> session = engine.OpenSession(
            name, kItems, std::span<const std::string>(kTallyPanel));
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        ASSERT_TRUE((*session)->AddVotes(MakeBatch(t, cycle)).ok());
        ASSERT_GT((*session)->RetainedBytes(), 0u);
        ASSERT_TRUE(engine.CloseSession(name).ok());
      }
    });
  }
  threads.emplace_back([&engine, &done] {
    while (!done.load(std::memory_order_acquire)) {
      engine.RefreshTelemetry();
    }
  });
  for (size_t t = 0; t < kChurnThreads; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  // All churn sessions closed: the final refresh returns both gauges to 0.
  EXPECT_EQ(engine.num_sessions(), 0u);
  engine.RefreshTelemetry();
  telemetry::MetricsRegistry::Collection collection =
      telemetry::MetricsRegistry::Global().Collect();
  for (const auto& gauge : collection.gauges) {
    if (gauge.name == "dqm_engine_sessions_open" ||
        gauge.name == "dqm_engine_retained_bytes") {
      EXPECT_EQ(gauge.value, 0.0) << gauge.name;
    }
  }
}

TEST(EngineStressTest, LockOrderCheckerCatchesDeliberateInversion) {
  // The serving hierarchy is engine-shard < session < stripe < telemetry: a
  // session callback that re-entered the engine registry (shard rank) while
  // its own session lock was held would deadlock against CloseSession, which
  // nests the other way. Debug builds must catch exactly that inversion at
  // the acquisition site — with a report, not a hang — before the lock
  // blocks. Release builds compile the checker out; the CI TSan job runs the
  // Debug tree where this bites.
  if (!Mutex::OrderCheckingEnabled()) {
    GTEST_SKIP() << "lock-order checker compiled out (Release build)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Mutex shard(LockRank::kEngineShard, "engine-shard");
  Mutex session(LockRank::kSession, "session");
  EXPECT_DEATH(
      {
        MutexLock holding_session(session);
        MutexLock reentering_registry(shard);  // rank 100 under rank 200
      },
      "lock order inversion");
}

}  // namespace
}  // namespace dqm::engine
