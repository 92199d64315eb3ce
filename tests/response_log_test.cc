#include "crowd/response_log.h"

#include <algorithm>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "crowd/wal.h"
#include "estimators/f_statistics.h"

namespace dqm::crowd {
namespace {

TEST(ResponseLogTest, EmptyLog) {
  ResponseLog log(5);
  EXPECT_EQ(log.num_items(), 5u);
  EXPECT_EQ(log.num_events(), 0u);
  EXPECT_EQ(log.NominalCount(), 0u);
  EXPECT_EQ(log.MajorityCount(), 0u);
  EXPECT_FALSE(log.MajorityDirty(0));
}

TEST(ResponseLogTest, TalliesPerItem) {
  ResponseLog log(3);
  log.Append({0, 0, 1, Vote::kDirty});
  log.Append({0, 0, 1, Vote::kClean});
  log.Append({1, 1, 1, Vote::kDirty});
  EXPECT_EQ(log.positive_votes(1), 2u);
  EXPECT_EQ(log.total_votes(1), 3u);
  EXPECT_EQ(log.positive_votes(0), 0u);
  EXPECT_EQ(log.total_positive_votes(), 2u);
  EXPECT_EQ(log.total_votes_all(), 3u);
}

TEST(ResponseLogTest, MajorityRequiresStrictMajority) {
  ResponseLog log(1);
  log.Append({0, 0, 0, Vote::kDirty});
  EXPECT_TRUE(log.MajorityDirty(0));  // 1-0
  log.Append({1, 1, 0, Vote::kClean});
  EXPECT_FALSE(log.MajorityDirty(0));  // 1-1 tie -> default clean
  log.Append({2, 2, 0, Vote::kDirty});
  EXPECT_TRUE(log.MajorityDirty(0));  // 2-1
}

TEST(ResponseLogTest, NominalAndMajorityCountsIncremental) {
  ResponseLog log(4);
  log.Append({0, 0, 0, Vote::kDirty});
  log.Append({0, 0, 1, Vote::kClean});
  EXPECT_EQ(log.NominalCount(), 1u);
  EXPECT_EQ(log.MajorityCount(), 1u);
  log.Append({1, 1, 0, Vote::kClean});  // ties item 0 -> majority drops
  EXPECT_EQ(log.NominalCount(), 1u);
  EXPECT_EQ(log.MajorityCount(), 0u);
  log.Append({2, 2, 1, Vote::kDirty});  // item 1: 1 dirty, 1 clean -> tie
  EXPECT_EQ(log.NominalCount(), 2u);
  EXPECT_EQ(log.MajorityCount(), 0u);
  log.Append({3, 3, 1, Vote::kDirty});  // item 1: 2-1 dirty
  EXPECT_EQ(log.MajorityCount(), 1u);
}

TEST(ResponseLogTest, TaskAndWorkerCounts) {
  ResponseLog log(2);
  log.Append({0, 0, 0, Vote::kClean});
  log.Append({0, 0, 1, Vote::kClean});
  log.Append({3, 2, 0, Vote::kClean});
  EXPECT_EQ(log.num_tasks(), 4u);   // max task id + 1
  EXPECT_EQ(log.num_workers(), 3u);
}

TEST(ResponseLogTest, EventsPreserveArrivalOrder) {
  ResponseLog log(2);
  VoteEvent a{0, 0, 0, Vote::kDirty};
  VoteEvent b{0, 0, 1, Vote::kClean};
  log.Append(a);
  log.Append(b);
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0], a);
  EXPECT_EQ(log.events()[1], b);
}

// Property: incremental counters always agree with a brute-force recount.
class ResponseLogPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ResponseLogPropertyTest, CountersMatchBruteForce) {
  Rng rng(GetParam());
  const size_t num_items = 20;
  ResponseLog log(num_items);
  for (uint32_t event_index = 0; event_index < 400; ++event_index) {
    VoteEvent event{event_index / 10,
                    event_index / 10,
                    static_cast<uint32_t>(rng.UniformIndex(num_items)),
                    rng.Bernoulli(0.3) ? Vote::kDirty : Vote::kClean};
    log.Append(event);

    // Brute-force recount.
    std::vector<uint32_t> pos(num_items, 0), tot(num_items, 0);
    for (const VoteEvent& e : log.events()) {
      ++tot[e.item];
      if (e.vote == Vote::kDirty) ++pos[e.item];
    }
    size_t nominal = 0, majority = 0;
    for (size_t i = 0; i < num_items; ++i) {
      if (pos[i] > 0) ++nominal;
      if (pos[i] * 2 > tot[i]) ++majority;
    }
    ASSERT_EQ(log.NominalCount(), nominal) << "event " << event_index;
    ASSERT_EQ(log.MajorityCount(), majority) << "event " << event_index;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseLogPropertyTest,
                         testing::Values(11, 22, 33, 44));

TEST(ResponseLogDeathTest, ItemOutOfRangeAborts) {
  ResponseLog log(2);
  EXPECT_DEATH(log.Append({0, 0, 2, Vote::kClean}), "out of range");
}

TEST(TallyScanTest, MatchesIncrementalCounters) {
  ResponseLog log(64, RetentionPolicy::kCounts);
  Rng rng(99);
  for (size_t e = 0; e < 2000; ++e) {
    log.Append({static_cast<uint32_t>(e / 10),
                static_cast<uint32_t>(rng.UniformInt(0, 7)),
                static_cast<uint32_t>(rng.UniformInt(0, 63)),
                rng.Bernoulli(0.4) ? Vote::kDirty : Vote::kClean});
  }
  TallyScanResult scan = ScanTallies(log.positive_counts(), log.total_counts());
  EXPECT_EQ(scan.nominal_count, log.NominalCount());
  EXPECT_EQ(scan.majority_count, log.MajorityCount());
  EXPECT_EQ(scan.total_votes, log.num_events());
  EXPECT_EQ(scan.positive_votes, log.total_positive_votes());
}

/// Deterministic little workload reused by the concurrent-ingest tests.
std::vector<VoteEvent> StripedTestEvents(size_t num_items, size_t count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<VoteEvent> events;
  events.reserve(count);
  for (size_t e = 0; e < count; ++e) {
    events.push_back({static_cast<uint32_t>(e / 16),
                      static_cast<uint32_t>(rng.UniformInt(0, 11)),
                      static_cast<uint32_t>(
                          rng.UniformInt(0, static_cast<int>(num_items) - 1)),
                      rng.Bernoulli(0.3) ? Vote::kDirty : Vote::kClean});
  }
  return events;
}

TEST(ResponseLogConcurrentTest, SingleThreadStripedMatchesSerialAppend) {
  constexpr size_t kItems = 200;
  std::vector<VoteEvent> events = StripedTestEvents(kItems, 3000, 5);

  ResponseLog serial(kItems, RetentionPolicy::kCounts);
  for (const VoteEvent& event : events) serial.Append(event);

  ResponseLog striped(kItems, RetentionPolicy::kCounts);
  striped.EnableConcurrentIngest(4);
  EXPECT_TRUE(striped.concurrent_ingest());
  EXPECT_GE(striped.num_stripes(), 1u);
  striped.AppendConcurrent(events);
  { auto pause = striped.PauseAndReconcile(); }

  EXPECT_EQ(striped.num_events(), serial.num_events());
  EXPECT_EQ(striped.total_positive_votes(), serial.total_positive_votes());
  EXPECT_EQ(striped.NominalCount(), serial.NominalCount());
  EXPECT_EQ(striped.MajorityCount(), serial.MajorityCount());
  EXPECT_EQ(striped.num_tasks(), serial.num_tasks());
  EXPECT_EQ(striped.num_workers(), serial.num_workers());
  for (size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(striped.positive_votes(i), serial.positive_votes(i)) << i;
    ASSERT_EQ(striped.total_votes(i), serial.total_votes(i)) << i;
  }
}

TEST(ResponseLogConcurrentTest, StripeShardsUnionEqualsSerialMatrix) {
  constexpr size_t kItems = 200;
  std::vector<VoteEvent> events = StripedTestEvents(kItems, 2500, 6);

  ResponseLog serial(kItems, RetentionPolicy::kCounts);
  for (const VoteEvent& event : events) serial.Append(event);
  ASSERT_NE(serial.compacted(), nullptr);

  ResponseLog striped(kItems, RetentionPolicy::kCounts);
  striped.EnableConcurrentIngest(4);
  striped.AppendConcurrent(events);
  { auto pause = striped.PauseAndReconcile(); }
  // The striped matrix is consumed block-wise; compacted() deliberately
  // reports "no single store" in this mode.
  EXPECT_EQ(striped.compacted(), nullptr);
  std::vector<const CompactedVoteStore*> blocks;
  striped.AppendCountMatrixBlocks(blocks);
  EXPECT_EQ(blocks.size(), striped.num_stripes());

  // Same pair multiset with the same per-pair counts, independent of slot
  // order: compare as sorted (worker, item, dirty, clean) tuples.
  using PairRow = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>;
  auto collect = [](std::span<const CompactedVoteStore* const> stores) {
    std::vector<PairRow> rows;
    for (const CompactedVoteStore* store : stores) {
      for (size_t p = 0; p < store->num_pairs(); ++p) {
        rows.emplace_back(store->workers()[p], store->items()[p],
                          store->dirty_counts()[p], store->clean_counts()[p]);
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  const CompactedVoteStore* serial_store = serial.compacted();
  EXPECT_EQ(collect(blocks), collect({&serial_store, 1}));
}

TEST(ResponseLogConcurrentTest, ManyProducersReconcileToSerialTallies) {
  constexpr size_t kItems = 128;
  constexpr size_t kProducers = 4;
  std::vector<VoteEvent> events = StripedTestEvents(kItems, 4000, 7);

  ResponseLog serial(kItems, RetentionPolicy::kCounts);
  for (const VoteEvent& event : events) serial.Append(event);

  ResponseLog striped(kItems, RetentionPolicy::kTallies);
  striped.EnableConcurrentIngest(4);
  std::vector<std::thread> producers;
  size_t chunk = events.size() / kProducers;
  for (size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      size_t begin = t * chunk;
      size_t end = t + 1 == kProducers ? events.size() : begin + chunk;
      // Commit in small batches so producers interleave at stripe level.
      for (size_t b = begin; b < end; b += 32) {
        size_t size = std::min<size_t>(32, end - b);
        striped.AppendConcurrent(
            std::span<const VoteEvent>(&events[b], size));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  { auto pause = striped.PauseAndReconcile(); }

  EXPECT_EQ(striped.num_events(), serial.num_events());
  EXPECT_EQ(striped.NominalCount(), serial.NominalCount());
  EXPECT_EQ(striped.MajorityCount(), serial.MajorityCount());
  EXPECT_EQ(striped.total_positive_votes(), serial.total_positive_votes());
  for (size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(striped.positive_votes(i), serial.positive_votes(i)) << i;
    ASSERT_EQ(striped.total_votes(i), serial.total_votes(i)) << i;
  }
}

/// A stream over few items with a dirty rate near one half, so items keep
/// crossing the majority line both ways: dirty votes that break a tie and
/// clean votes that erase a one-vote lead (and so flip an item back).
std::vector<VoteEvent> MajorityFlipEvents(size_t num_items, size_t count,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<VoteEvent> events;
  events.reserve(count);
  for (size_t e = 0; e < count; ++e) {
    events.push_back({static_cast<uint32_t>(e / 8),
                      static_cast<uint32_t>(rng.UniformInt(0, 5)),
                      static_cast<uint32_t>(
                          rng.UniformInt(0, static_cast<int>(num_items) - 1)),
                      rng.Bernoulli(0.5) ? Vote::kDirty : Vote::kClean});
  }
  return events;
}

/// Majority flips a serialized feed of `events` makes, by direction.
struct FlipCounts {
  size_t to_dirty = 0;
  size_t back_to_clean = 0;
};
FlipCounts CountMajorityFlips(std::span<const VoteEvent> events,
                              size_t num_items) {
  ResponseLog log(num_items, RetentionPolicy::kTallies);
  FlipCounts flips;
  for (const VoteEvent& event : events) {
    const bool before = log.MajorityDirty(event.item);
    log.Append(event);
    const bool after = log.MajorityDirty(event.item);
    flips.to_dirty += !before && after;
    flips.back_to_clean += before && !after;
  }
  return flips;
}

/// Commits `events` from `producers` threads at once: thread t commits the
/// t-th of `producers` equal chunks (a remainder is left uncommitted) in
/// batches of 1 to `max_batch` votes drawn from Rng(seed + t). Returns how
/// many votes were committed.
size_t CommitFromProducers(ResponseLog& log, std::span<const VoteEvent> events,
                           size_t producers, int max_batch, uint64_t seed) {
  const size_t chunk = events.size() / producers;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      Rng splits(seed + t);
      size_t b = t * chunk;
      const size_t end = b + chunk;
      while (b < end) {
        const size_t size = std::min<size_t>(
            static_cast<size_t>(splits.UniformInt(1, max_batch)), end - b);
        log.AppendConcurrent(events.subspan(b, size));
        b += size;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return producers * chunk;
}

TEST(ResponseLogConcurrentTest, StripedCountsMatchSerialAtEveryReconcile) {
  // 64 items in 4 stripes, committed in batches of 1 to 24 votes with a
  // reconcile after every batch: VOTING and NOMINAL are the stripe sums
  // kept at commit, and must equal the serialized log's at every cut.
  constexpr size_t kItems = 64;
  std::vector<VoteEvent> events = MajorityFlipEvents(kItems, 3000, 21);
  const FlipCounts flips = CountMajorityFlips(events, kItems);
  ASSERT_GT(flips.to_dirty, 100u);
  ASSERT_GT(flips.back_to_clean, 100u);

  ResponseLog striped(kItems, RetentionPolicy::kTallies);
  striped.EnableConcurrentIngest(4);
  ASSERT_EQ(striped.num_stripes(), 4u);
  ResponseLog serial(kItems, RetentionPolicy::kTallies);
  Rng splits(22);
  size_t fed = 0;
  while (fed < events.size()) {
    const size_t size = std::min<size_t>(
        static_cast<size_t>(splits.UniformInt(1, 24)), events.size() - fed);
    striped.AppendConcurrent(std::span<const VoteEvent>(&events[fed], size));
    for (size_t e = fed; e < fed + size; ++e) serial.Append(events[e]);
    fed += size;
    auto pause = striped.PauseAndReconcile();
    ASSERT_EQ(striped.MajorityCount(), serial.MajorityCount()) << fed;
    ASSERT_EQ(striped.NominalCount(), serial.NominalCount()) << fed;
    ASSERT_EQ(striped.num_events(), serial.num_events()) << fed;
  }
}

TEST(ResponseLogConcurrentTest, ManyProducerCountsMatchSerialAtEveryReconcile) {
  constexpr size_t kItems = 128;
  constexpr size_t kProducers = 4;
  constexpr size_t kRounds = 8;
  std::vector<VoteEvent> events = MajorityFlipEvents(kItems, 8000, 23);

  ResponseLog striped(kItems, RetentionPolicy::kTallies);
  striped.EnableConcurrentIngest(4);
  ResponseLog serial(kItems, RetentionPolicy::kTallies);
  const size_t per_round = events.size() / kRounds;
  size_t serial_fed = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    const size_t round_begin = round * per_round;
    const size_t committed =
        round_begin +
        CommitFromProducers(
            striped,
            std::span<const VoteEvent>(events).subspan(round_begin, per_round),
            kProducers, 32, 300 * round);
    for (; serial_fed < committed; ++serial_fed) {
      serial.Append(events[serial_fed]);
    }
    auto pause = striped.PauseAndReconcile();
    ASSERT_EQ(striped.MajorityCount(), serial.MajorityCount()) << round;
    ASSERT_EQ(striped.NominalCount(), serial.NominalCount()) << round;
    ASSERT_EQ(striped.num_events(), serial.num_events()) << round;
  }
}

/// The reference positive-vote fingerprint: an FStatistics fed per vote
/// (AddSingleton on an item's first dirty vote, Promote after) alongside a
/// serialized Append feed of `events`.
estimators::FStatistics SerialFingerprint(std::span<const VoteEvent> events,
                                          size_t num_items) {
  ResponseLog serial(num_items, RetentionPolicy::kCounts);
  estimators::FStatistics f;
  for (const VoteEvent& event : events) {
    if (event.vote == Vote::kDirty) {
      const uint32_t count = serial.positive_votes(event.item);
      if (count == 0) {
        f.AddSingleton();
      } else {
        f.Promote(count);
      }
    }
    serial.Append(event);
  }
  return f;
}

TEST(ResponseLogConcurrentTest, StripeFingerprintsSumToSerialFingerprint) {
  // 128 items in 4 stripes of 32. Item 5 (stripe 0) collects a pile far
  // deeper than any other item, so the stripe histograms have unequal
  // lengths; stripe 3 (items 96..127) only ever sees clean votes, so its
  // histogram stays empty.
  constexpr size_t kItems = 128;
  constexpr size_t kProducers = 4;
  constexpr size_t kRounds = 5;
  Rng rng(11);
  std::vector<VoteEvent> events;
  for (size_t e = 0; e < 6000; ++e) {
    const uint32_t item = e % 10 == 0
                              ? 5u
                              : static_cast<uint32_t>(rng.UniformInt(0, 127));
    const bool dirty = item < 96 && (item == 5 || rng.Bernoulli(0.3));
    events.push_back({static_cast<uint32_t>(e / 16),
                      static_cast<uint32_t>(rng.UniformInt(0, 11)), item,
                      dirty ? Vote::kDirty : Vote::kClean});
  }

  ResponseLog striped(kItems, RetentionPolicy::kTallies);
  striped.EnableConcurrentIngest(4);
  ASSERT_EQ(striped.num_stripes(), 4u);
  // The serialized path keeps the same fingerprint at Append.
  ResponseLog serial(kItems, RetentionPolicy::kTallies);
  size_t serial_fed = 0;
  const size_t per_round = events.size() / kRounds;
  for (size_t round = 0; round < kRounds; ++round) {
    // Each producer commits its share of this round in random batch splits.
    const size_t round_begin = round * per_round;
    const size_t committed =
        round_begin +
        CommitFromProducers(
            striped,
            std::span<const VoteEvent>(events).subspan(round_begin, per_round),
            kProducers, 64, 100 * round);

    for (; serial_fed < committed; ++serial_fed) {
      serial.Append(events[serial_fed]);
    }

    auto pause = striped.PauseAndReconcile();
    estimators::FStatistics expected = SerialFingerprint(
        std::span<const VoteEvent>(events.data(), committed), kItems);
    const uint32_t deepest = expected.histogram().back().first;
    ASSERT_GT(deepest, 20u) << "item 5 must pile deeper than the rest";
    for (const ResponseLog* log : {&striped, &serial}) {
      SCOPED_TRACE(log == &striped ? "striped" : "serialized");
      std::span<const uint64_t> got = log->positive_fingerprint();
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got[0], 0u);
      EXPECT_EQ(got.size(), deepest + 1u) << "round " << round;
      for (uint32_t j = 1; j < got.size(); ++j) {
        EXPECT_EQ(got[j], expected.f(j)) << "round " << round << ", f_" << j;
      }
    }
  }
}

TEST(ResponseLogConcurrentTest, RetainedBytesGrowWithFingerprintDepth) {
  // Tallies only: the only storage a dirty vote can grow is the fingerprint
  // (striped: the stripe fingerprint and its reconciled sum).
  std::vector<VoteEvent> spread;
  for (uint32_t item = 0; item < 256; ++item) {
    spread.push_back({0, 0, item, Vote::kDirty});
  }
  std::vector<VoteEvent> pile(40, VoteEvent{1, 1, 7, Vote::kDirty});

  ResponseLog striped(256, RetentionPolicy::kTallies);
  striped.EnableConcurrentIngest(4);
  striped.AppendConcurrent(spread);
  { auto pause = striped.PauseAndReconcile(); }
  const size_t shallow_bytes = striped.RetainedBytes();
  striped.AppendConcurrent(pile);
  { auto pause = striped.PauseAndReconcile(); }
  EXPECT_GT(striped.RetainedBytes(), shallow_bytes);

  ResponseLog serial(256, RetentionPolicy::kTallies);
  for (const VoteEvent& event : spread) serial.Append(event);
  const size_t serial_shallow_bytes = serial.RetainedBytes();
  for (const VoteEvent& event : pile) serial.Append(event);
  EXPECT_GT(serial.RetainedBytes(), serial_shallow_bytes);
}

TEST(ResponseLogConcurrentTest, RetainedBytesCoversStripeShards) {
  ResponseLog striped(256, RetentionPolicy::kCounts);
  striped.EnableConcurrentIngest(4);
  size_t empty_bytes = striped.RetainedBytes();
  std::vector<VoteEvent> events = StripedTestEvents(256, 3000, 8);
  striped.AppendConcurrent(events);
  { auto pause = striped.PauseAndReconcile(); }
  // Stripe shard storage must show up in the accounting.
  EXPECT_GT(striped.RetainedBytes(), empty_bytes);
}

TEST(ResponseLogConcurrentDeathTest, OutOfRangeItemAbortsNotDropped) {
  // Ids past the last stripe match no stripe filter; without the up-front
  // batch validation they would vanish silently instead of aborting like
  // the serialized Append.
  ResponseLog striped(1000, RetentionPolicy::kCounts);
  striped.EnableConcurrentIngest(1);
  std::vector<VoteEvent> batch = {{0, 0, 5000, Vote::kDirty}};
  EXPECT_DEATH(striped.AppendConcurrent(batch), "out of range");
}

/// A striped log past its first (audited) reconcile whose item 0 tally
/// lost the increment of a dirty vote the stripe counters did count, as a
/// committer racing the pause guard could make it. The column is a
/// non-const vector, so writing it through const_cast is defined.
void LoseOneDirtyTally(ResponseLog& striped) {
  std::vector<VoteEvent> seed = StripedTestEvents(striped.num_items(), 512, 9);
  seed.push_back({0, 0, 0, Vote::kDirty});
  striped.AppendConcurrent(seed);
  { auto pause = striped.PauseAndReconcile(); }
  ASSERT_GT(striped.positive_votes(0), 0u);
  --const_cast<uint32_t&>(striped.positive_counts()[0]);
}

TEST(ResponseLogConcurrentDeathTest, AuditCatchesLostTallyWithinVoteBudget) {
  // The audit runs at least once per num_items() committed votes; commit
  // that many more (never to item 0, so only the audit can notice) with a
  // reconcile after every batch: the process must abort, not serve the
  // diverged counts.
  constexpr size_t kItems = 256;
  ResponseLog striped(kItems, RetentionPolicy::kTallies);
  striped.EnableConcurrentIngest(4);
  LoseOneDirtyTally(striped);
  std::vector<VoteEvent> more = StripedTestEvents(kItems, kItems, 10);
  for (VoteEvent& event : more) event.item = 1 + event.item % (kItems - 1);
  EXPECT_DEATH(
      {
        for (size_t b = 0; b < more.size(); b += 16) {
          striped.AppendConcurrent(
              std::span<const VoteEvent>(&more[b], 16));
          auto pause = striped.PauseAndReconcile();
        }
      },
      "tally audit");
}

TEST(ResponseLogConcurrentDeathTest, CheckpointCutAuditsTallies) {
  ResponseLog striped(256, RetentionPolicy::kTallies);
  striped.EnableConcurrentIngest(4);
  LoseOneDirtyTally(striped);
  // No committer runs, so the cut needs no pause guard (and a reconcile
  // would itself audit in builds with DQM_DCHECK live).
  EXPECT_DEATH((void)CheckpointFromLog(striped, 1), "tally audit");
}

TEST(ResponseLogConcurrentDeathTest, SerialAppendAbortsOnceStriped) {
  ResponseLog striped(16, RetentionPolicy::kCounts);
  striped.EnableConcurrentIngest(2);
  EXPECT_DEATH(striped.Append({0, 0, 0, Vote::kDirty}), "serialized path");
}

TEST(ResponseLogConcurrentDeathTest, RequiresCountsRetention) {
  ResponseLog full(16, RetentionPolicy::kFullEvents);
  EXPECT_DEATH(full.EnableConcurrentIngest(2), "kCounts");
}

TEST(ResponseLogConcurrentDeathTest, MatrixBlocksAbortWithoutPairCounts) {
  ResponseLog striped(16, RetentionPolicy::kTallies);
  striped.EnableConcurrentIngest(2);
  std::vector<const CompactedVoteStore*> blocks;
  EXPECT_DEATH(striped.AppendCountMatrixBlocks(blocks), "pair-count");
}

// --- Checkpoint restore ----------------------------------------------------

/// A log over `num_items` with `retention`, striped into `stripes` when
/// that is 2 or more.
ResponseLog MakeLog(size_t num_items, RetentionPolicy retention,
                    size_t stripes) {
  ResponseLog log(num_items, retention);
  if (stripes >= 2) log.EnableConcurrentIngest(stripes);
  return log;
}

/// Feeds `events` through the log's own commit path (one producer, batches
/// of 37 when striped) and reconciles.
void Feed(ResponseLog& log, std::span<const VoteEvent> events) {
  if (!log.concurrent_ingest()) {
    for (const VoteEvent& event : events) log.Append(event);
    return;
  }
  for (size_t b = 0; b < events.size(); b += 37) {
    log.AppendConcurrent(
        events.subspan(b, std::min<size_t>(37, events.size() - b)));
  }
  auto pause = log.PauseAndReconcile();
}

/// Everything an estimator or a checkpoint reads from a log must agree:
/// tallies, the fingerprint (length included), the kept counts and bounds,
/// and under kCounts every count-matrix block slot by slot.
void ExpectSameLogState(const ResponseLog& live, const ResponseLog& restored) {
  EXPECT_TRUE(std::ranges::equal(restored.positive_counts(),
                                 live.positive_counts()));
  EXPECT_TRUE(std::ranges::equal(restored.total_counts(), live.total_counts()));
  EXPECT_EQ(std::vector<uint64_t>(restored.positive_fingerprint().begin(),
                                  restored.positive_fingerprint().end()),
            std::vector<uint64_t>(live.positive_fingerprint().begin(),
                                  live.positive_fingerprint().end()));
  EXPECT_EQ(restored.NominalCount(), live.NominalCount());
  EXPECT_EQ(restored.MajorityCount(), live.MajorityCount());
  EXPECT_EQ(restored.num_events(), live.num_events());
  EXPECT_EQ(restored.total_positive_votes(), live.total_positive_votes());
  EXPECT_EQ(restored.num_tasks(), live.num_tasks());
  EXPECT_EQ(restored.num_workers(), live.num_workers());
  if (live.retention() != RetentionPolicy::kCounts) return;
  std::vector<const CompactedVoteStore*> live_blocks;
  std::vector<const CompactedVoteStore*> restored_blocks;
  live.AppendCountMatrixBlocks(live_blocks);
  restored.AppendCountMatrixBlocks(restored_blocks);
  ASSERT_EQ(restored_blocks.size(), live_blocks.size());
  for (size_t b = 0; b < live_blocks.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "block " << b);
    EXPECT_EQ(restored_blocks[b]->workers(), live_blocks[b]->workers());
    EXPECT_EQ(restored_blocks[b]->items(), live_blocks[b]->items());
    EXPECT_EQ(restored_blocks[b]->dirty_counts(),
              live_blocks[b]->dirty_counts());
    EXPECT_EQ(restored_blocks[b]->clean_counts(),
              live_blocks[b]->clean_counts());
  }
}

/// (retention, stripes): stripes 1 is the serialized log.
class RestoreCheckpointTest
    : public testing::TestWithParam<std::tuple<RetentionPolicy, size_t>> {};

TEST_P(RestoreCheckpointTest, RestoredLogEqualsLiveLog) {
  const auto [retention, stripes] = GetParam();
  constexpr size_t kItems = 200;
  for (size_t count : {size_t{0}, size_t{3000}}) {
    SCOPED_TRACE(testing::Message() << count << " votes");
    std::vector<VoteEvent> events = StripedTestEvents(kItems, count, 11);
    ResponseLog live = MakeLog(kItems, retention, stripes);
    Feed(live, events);
    auto data = CheckpointFromLog(live, 1);
    ASSERT_TRUE(data.ok()) << data.status().ToString();

    ResponseLog restored = MakeLog(kItems, retention, stripes);
    ASSERT_TRUE(restored.RestoreCheckpoint(*data).ok());
    ExpectSameLogState(live, restored);

    // The restored log carries on as the live one does.
    std::vector<VoteEvent> more = StripedTestEvents(kItems, 1000, 12);
    for (VoteEvent& event : more) event.task += static_cast<uint32_t>(count);
    Feed(live, more);
    Feed(restored, more);
    ExpectSameLogState(live, restored);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RetentionAndStripes, RestoreCheckpointTest,
    testing::Combine(testing::Values(RetentionPolicy::kCounts,
                                     RetentionPolicy::kTallies),
                     testing::Values(size_t{1}, size_t{2}, size_t{4})));

TEST(RestoreCheckpointRefusalTest, RefusesWhatTheLogCannotHold) {
  std::vector<VoteEvent> events = StripedTestEvents(64, 500, 13);
  ResponseLog counts(64, RetentionPolicy::kCounts);
  ResponseLog tallies(64, RetentionPolicy::kTallies);
  Feed(counts, events);
  Feed(tallies, events);
  auto pairs = CheckpointFromLog(counts, 1);
  auto tally = CheckpointFromLog(tallies, 1);
  ASSERT_TRUE(pairs.ok() && tally.ok());

  // A log that already holds votes.
  EXPECT_EQ(counts.RestoreCheckpoint(*pairs).code(),
            StatusCode::kFailedPrecondition);
  // Tallies hold no pairs for a matrix; a full-events log keeps history.
  ResponseLog empty_counts(64, RetentionPolicy::kCounts);
  EXPECT_EQ(empty_counts.RestoreCheckpoint(*tally).code(),
            StatusCode::kFailedPrecondition);
  ResponseLog full(64, RetentionPolicy::kFullEvents);
  EXPECT_EQ(full.RestoreCheckpoint(*pairs).code(),
            StatusCode::kFailedPrecondition);
  // Another item universe.
  ResponseLog wider(128, RetentionPolicy::kTallies);
  EXPECT_EQ(wider.RestoreCheckpoint(*pairs).code(),
            StatusCode::kInvalidArgument);
  // Pairs restore into a tally log: the tallies they sum to.
  ResponseLog from_pairs(64, RetentionPolicy::kTallies);
  ASSERT_TRUE(from_pairs.RestoreCheckpoint(*pairs).ok());
  ExpectSameLogState(tallies, from_pairs);
}

}  // namespace
}  // namespace dqm::crowd
