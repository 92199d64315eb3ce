// Durability contract tests: the write-ahead vote log, checkpoint files,
// manifests, and the recovery scan. Crash/recover parity across every
// workload family and commit-phase kill point is a subject of the
// session-parity harness (conformance/session_parity.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "conformance/conformance_utils.h"
#include "conformance/session_parity.h"
#include "core/dqm.h"
#include "crowd/response_log.h"
#include "crowd/wal.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/session.h"

namespace dqm::engine {
namespace {

namespace fs = std::filesystem;

using crowd::CheckpointData;
using crowd::Vote;
using crowd::VoteEvent;
using crowd::VoteWal;

using conformance::FirstFamilyVotes;
using conformance::ScratchDir;

std::vector<VoteEvent> MakeVotes(size_t count, size_t num_items) {
  std::vector<VoteEvent> votes;
  votes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    votes.push_back(VoteEvent{static_cast<uint32_t>(i % 7),
                              static_cast<uint32_t>(i % 5),
                              static_cast<uint32_t>(i % num_items),
                              (i % 3 == 0) ? Vote::kDirty : Vote::kClean});
  }
  return votes;
}

Result<std::vector<VoteEvent>> CollectReplay(VoteWal& wal, size_t num_items,
                                             VoteWal::ReplayStats* stats) {
  std::vector<VoteEvent> replayed;
  auto apply = [&](std::span<const VoteEvent> events) -> Status {
    replayed.insert(replayed.end(), events.begin(), events.end());
    return Status::OK();
  };
  DQM_ASSIGN_OR_RETURN(*stats, wal.ReplayAndTruncate(num_items, apply));
  return replayed;
}

bool SameEvents(const std::vector<VoteEvent>& a,
                const std::vector<VoteEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].task != b[i].task || a[i].worker != b[i].worker ||
        a[i].item != b[i].item || a[i].vote != b[i].vote) {
      return false;
    }
  }
  return true;
}

TEST(Crc32Test, MatchesIeeeKnownAnswer) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(crowd::Crc32("123456789", 9), 0xCBF43926u);
  // Chaining across a split must equal the one-shot digest.
  uint32_t split = crowd::Crc32("6789", 4, crowd::Crc32("12345", 5));
  EXPECT_EQ(split, 0xCBF43926u);
}

/// The textbook one-byte-at-a-time CRC-32 (reflected 0xEDB88320, bit loop,
/// no table) that crowd::Crc32 must match bit for bit.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  std::vector<uint8_t> bytes(size);
  uint64_t state = seed;
  for (uint8_t& b : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<uint8_t>(state >> 56);
  }
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..1100 cover an empty input, every tail length of the 8-byte
  // block loop, and multi-kilobyte records; offsets 0..7 cover every
  // alignment of the block loads.
  const std::vector<uint8_t> buffer = RandomBytes(1100 + 8, 42);
  for (uint32_t seed : {0u, 0x9E3779B9u}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t length = 0; length <= 1100; ++length) {
        const uint8_t* data = buffer.data() + offset;
        ASSERT_EQ(crowd::Crc32(data, length, seed),
                  BytewiseCrc32(data, length, seed))
            << "seed " << seed << " offset " << offset << " length "
            << length;
      }
    }
  }
}

TEST(Crc32Test, ChainingAtEverySplitEqualsOneShot) {
  const std::vector<uint8_t> buffer = RandomBytes(256, 7);
  const uint32_t one_shot = crowd::Crc32(buffer.data(), buffer.size());
  ASSERT_EQ(one_shot, BytewiseCrc32(buffer.data(), buffer.size(), 0));
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = crowd::Crc32(buffer.data(), split);
    ASSERT_EQ(crowd::Crc32(buffer.data() + split, buffer.size() - split, head),
              one_shot)
        << "split " << split;
  }
}

// --- On-disk format goldens ------------------------------------------------
//
// Hex images of one WAL file and one kTallies checkpoint, recorded from the
// byte-at-a-time CRC-32 build. Any change to the CRC kernel or the encoders
// must reproduce them byte for byte: files written by an older binary have
// to recover under a newer one, and a standby must accept shipped WAL bytes
// and checkpoints from a primary of either build (both ship verbatim).

std::string Hex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
}

// Three votes exercising every field width: small ids, ids with all four
// bytes distinct, and the task/worker caps.
std::vector<VoteEvent> GoldenVotes() {
  return {VoteEvent{1, 2, 3, Vote::kDirty},
          VoteEvent{0x01020304u, 0x00ABCDEFu, 7, Vote::kClean},
          VoteEvent{crowd::kMaxTaskId, crowd::kMaxWorkerId, 0, Vote::kDirty}};
}

// wal.log after Open + Append(GoldenVotes()) + Sync: the 16-byte
// generation-1 header, then one 51-byte record.
constexpr char kGoldenWal[] =
    "4457414c0100000001000000000000002b0000007ec46a6c0300000001000000"
    "02000000030000000104030201efcdab000700000000ffffff0fffffff000000"
    "000001";

// A kTallies checkpoint (generation 2) of a 4-item log fed GoldenVotes()
// plus {task 5, worker 1, item 3, clean}.
constexpr char kGoldenCheckpoint[] =
    "4451435001000000020000000000000004000000000000000400000000000000"
    "0000001000000000000000010000000001040000000000000001000000000000"
    "00000000000100000001000000000000000000000003000000bfe45edf";

TEST(WalFormatGoldenTest, RecordBytesAreUnchangedAndReplayClean) {
  std::string path = ScratchDir("golden_wal") + "/wal.log";
  const std::vector<VoteEvent> votes = GoldenVotes();
  {
    auto wal = VoteWal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    wal->Append(votes);
    ASSERT_TRUE(wal->Sync().ok());
  }
  EXPECT_EQ(Hex(FileBytes(path)), kGoldenWal);

  auto reopened = VoteWal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*reopened, 8, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.torn_records, 0u);
  EXPECT_TRUE(SameEvents(*replayed, votes));
}

TEST(WalFormatGoldenTest, TalliesCheckpointBytesAreUnchangedAndReadClean) {
  std::string path = ScratchDir("golden_ckpt") + "/checkpoint.bin";
  crowd::ResponseLog log(4, crowd::RetentionPolicy::kTallies);
  for (const VoteEvent& event : GoldenVotes()) {
    // Item ids fold into the 4-item universe; the golden votes' item 7
    // lands on item 3.
    log.Append(VoteEvent{event.task, event.worker, event.item % 4,
                         event.vote});
  }
  log.Append(VoteEvent{5, 1, 3, Vote::kClean});
  auto data = crowd::CheckpointFromLog(log, /*wal_generation=*/2);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_TRUE(crowd::WriteCheckpointFile(path, *data).ok());
  EXPECT_EQ(Hex(FileBytes(path)), kGoldenCheckpoint);

  auto loaded = crowd::ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->variant, CheckpointData::Variant::kTallies);
  EXPECT_EQ(loaded->wal_generation, 2u);
  EXPECT_EQ(loaded->num_events, 4u);
  EXPECT_EQ(loaded->positive, data->positive);
  EXPECT_EQ(loaded->total, data->total);
}

TEST(ValidateVoteBoundsTest, CapsAndUniverse) {
  EXPECT_TRUE(crowd::ValidateVoteBounds(0, 0, 0, 1).ok());
  EXPECT_TRUE(crowd::ValidateVoteBounds(crowd::kMaxTaskId,
                                        crowd::kMaxWorkerId, 9, 10)
                  .ok());
  EXPECT_EQ(crowd::ValidateVoteBounds(0, 0, 10, 10).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      crowd::ValidateVoteBounds(0, crowd::kMaxWorkerId + 1, 0, 10).code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(
      crowd::ValidateVoteBounds(crowd::kMaxTaskId + 1, 0, 0, 10).code(),
      StatusCode::kOutOfRange);
}

TEST(ValidateVoteBoundsTest, VotesInBoundsMatchesThePerVoteRule) {
  using crowd::kMaxTaskId;
  using crowd::kMaxWorkerId;
  auto in_bounds = [](std::vector<VoteEvent> votes, size_t num_items) {
    return crowd::VotesInBounds(votes, num_items);
  };
  EXPECT_TRUE(in_bounds({}, 0));
  EXPECT_TRUE(in_bounds({{kMaxTaskId, kMaxWorkerId, 9, Vote::kDirty},
                         {1u << 27, 1u << 23, 0, Vote::kClean}},
                        10));
  // One offender anywhere in the batch fails it, whatever its neighbours.
  const VoteEvent good{3, 4, 5, Vote::kDirty};
  const VoteEvent offenders[] = {
      {kMaxTaskId + 1, 0, 0, Vote::kClean},
      {0, kMaxWorkerId + 1, 0, Vote::kClean},
      {0, 0, 10, Vote::kClean},
      {0, 0, 0, static_cast<Vote>(2)},
      {0, 0, 0, static_cast<Vote>(255)},
  };
  for (const VoteEvent& bad : offenders) {
    EXPECT_FALSE(in_bounds({bad}, 10));
    EXPECT_FALSE(in_bounds({good, bad, good}, 10));
  }
}

TEST(VoteWalTest, AppendSyncReplayRoundTrip) {
  std::string dir = ScratchDir("wal_roundtrip");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(100, 16);

  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->generation(), 1u);
  wal->Append(std::span<const VoteEvent>(votes.data(), 40));
  wal->Append(std::span<const VoteEvent>(votes.data() + 40, 60));
  ASSERT_TRUE(wal->Sync().ok());

  auto reopened = VoteWal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->generation(), 1u);
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*reopened, 16, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(stats.votes, 100u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.torn_records, 0u);
  EXPECT_TRUE(SameEvents(*replayed, votes));
}

TEST(VoteWalTest, UndrainedBufferOfManyAppendsReplaysInOrder) {
  // 10,000 records accumulate in the user-space buffer with no
  // WriteBuffered in between; one Sync writes them all and replay returns
  // every vote in append order.
  std::string path = ScratchDir("wal_undrained") + "/wal.log";
  constexpr size_t kAppends = 10000;
  const std::vector<VoteEvent> votes = MakeVotes(3 * kAppends, 64);
  size_t appended = 0;
  {
    auto wal = VoteWal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (size_t i = 0; i < kAppends; ++i) {
      const size_t size = i % 3 + 1;  // batches of 1, 2 and 3 in rotation
      wal->Append(std::span<const VoteEvent>(votes.data() + appended, size));
      appended += size;
    }
    EXPECT_EQ(wal->bytes_written(), crowd::kWalHeaderBytes);
    ASSERT_TRUE(wal->Sync().ok());
    EXPECT_EQ(wal->buffered_bytes(), 0u);
  }
  auto reopened = VoteWal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*reopened, 64, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(stats.records, kAppends);
  EXPECT_EQ(stats.torn_records, 0u);
  EXPECT_TRUE(SameEvents(*replayed,
                         std::vector<VoteEvent>(votes.begin(),
                                                votes.begin() + appended)));
}

TEST(VoteWalTest, TornFinalRecordIsTruncatedAndLogStaysAppendable) {
  std::string dir = ScratchDir("wal_torn");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(30, 8);
  {
    auto wal = VoteWal::Open(path);
    ASSERT_TRUE(wal.ok());
    wal->Append(std::span<const VoteEvent>(votes.data(), 30));
    ASSERT_TRUE(wal->Sync().ok());
  }
  // A record torn mid-write by the crash: trailing bytes that are not a
  // complete frame.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00\x00\xde\xad", 6);
  }
  uintmax_t torn_size = fs::file_size(path);

  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok());
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*wal, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 30u);
  EXPECT_EQ(stats.torn_records, 1u);
  EXPECT_TRUE(SameEvents(*replayed, votes));
  // The torn tail is gone from disk...
  EXPECT_LT(fs::file_size(path), torn_size);
  // ...and the log accepts new records at the truncation point.
  std::vector<VoteEvent> more = MakeVotes(5, 8);
  wal->Append(more);
  ASSERT_TRUE(wal->Sync().ok());
  auto again = VoteWal::Open(path);
  ASSERT_TRUE(again.ok());
  auto all = CollectReplay(*again, 8, &stats);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(stats.votes, 35u);
  EXPECT_EQ(stats.torn_records, 0u);
}

TEST(VoteWalTest, CorruptedCrcDropsTheRecord) {
  std::string dir = ScratchDir("wal_crc");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(20, 8);
  {
    auto wal = VoteWal::Open(path);
    ASSERT_TRUE(wal.ok());
    wal->Append(std::span<const VoteEvent>(votes.data(), 10));
    wal->Append(std::span<const VoteEvent>(votes.data() + 10, 10));
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Flip one payload byte of the LAST record (13 bytes/vote, 8-byte frame,
  // 4-byte count: damage a byte safely inside the final payload).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-5, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-5, std::ios::end);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok());
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*wal, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 10u);
  EXPECT_EQ(stats.torn_records, 1u);
  EXPECT_TRUE(SameEvents(
      *replayed, std::vector<VoteEvent>(votes.begin(), votes.begin() + 10)));
}

TEST(VoteWalTest, OutOfBoundsVoteInTailIsRejectedAsTorn) {
  std::string dir = ScratchDir("wal_bounds");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> good = MakeVotes(10, 8);
  {
    auto wal = VoteWal::Open(path);
    ASSERT_TRUE(wal.ok());
    wal->Append(good);
    // A record whose payload claims an impossible worker id: the frame and
    // CRC are fine, so only the shared bounds validation can catch it.
    VoteEvent bogus{0, crowd::kMaxWorkerId + 1, 0, Vote::kClean};
    wal->Append(std::span<const VoteEvent>(&bogus, 1));
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok());
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*wal, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 10u);
  EXPECT_EQ(stats.torn_records, 1u);
}

TEST(VoteWalTest, FailedSyncSealsAndDiscardsUnacknowledgedRecords) {
  // A complete write followed by a failed fsync: the batch is rejected, so
  // its CRC-valid frames must not resurrect at recovery — and the log must
  // refuse new appends, which would otherwise be acknowledged durable
  // while sitting behind bytes recovery may truncate.
  std::string dir = ScratchDir("wal_seal_sync");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(30, 8);
  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  wal->Append(std::span<const VoteEvent>(votes.data(), 10));
  ASSERT_TRUE(wal->Sync().ok());

  wal->Append(std::span<const VoteEvent>(votes.data() + 10, 10));
  ASSERT_TRUE(failpoint::Configure("dqm.wal.fsync=count(1):error(EIO)").ok());
  ASSERT_FALSE(wal->Sync().ok());
  EXPECT_TRUE(wal->sealed());
  // Sealed: appends are no-ops, syncs keep failing with the seal error.
  wal->Append(std::span<const VoteEvent>(votes.data() + 20, 10));
  EXPECT_EQ(wal->buffered_bytes(), 0u);
  Status still_sealed = wal->Sync();
  ASSERT_FALSE(still_sealed.ok());
  EXPECT_NE(still_sealed.message().find("sealed"), std::string::npos);

  // On disk: exactly the acknowledged prefix, with no torn tail.
  {
    auto reopened = VoteWal::Open(path);
    ASSERT_TRUE(reopened.ok());
    VoteWal::ReplayStats stats;
    auto replayed = CollectReplay(*reopened, 8, &stats);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(stats.votes, 10u);
    EXPECT_EQ(stats.torn_records, 0u);
    EXPECT_TRUE(SameEvents(
        *replayed, std::vector<VoteEvent>(votes.begin(), votes.begin() + 10)));
  }

  // A checkpoint-style Reset re-establishes a clean, appendable log.
  ASSERT_TRUE(wal->Reset(2).ok());
  EXPECT_FALSE(wal->sealed());
  wal->Append(std::span<const VoteEvent>(votes.data() + 10, 10));
  ASSERT_TRUE(wal->Sync().ok());
  auto again = VoteWal::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->generation(), 2u);
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*again, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 10u);
}

TEST(VoteWalTest, FailedWriteSealsWithoutTearingDurablePrefix) {
  std::string dir = ScratchDir("wal_seal_write");
  std::string path = dir + "/wal.log";
  std::vector<VoteEvent> votes = MakeVotes(20, 8);
  auto wal = VoteWal::Open(path);
  ASSERT_TRUE(wal.ok());
  wal->Append(std::span<const VoteEvent>(votes.data(), 10));
  ASSERT_TRUE(wal->Sync().ok());
  wal->Append(std::span<const VoteEvent>(votes.data() + 10, 10));
  ASSERT_TRUE(failpoint::Configure("dqm.wal.write=count(1):error(EIO)").ok());
  ASSERT_FALSE(wal->Sync().ok());
  EXPECT_TRUE(wal->sealed());
  auto reopened = VoteWal::Open(path);
  ASSERT_TRUE(reopened.ok());
  VoteWal::ReplayStats stats;
  auto replayed = CollectReplay(*reopened, 8, &stats);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(stats.votes, 10u);
  EXPECT_EQ(stats.torn_records, 0u);
}

TEST(CheckpointTest, PairsVariantRoundTripsThroughDiskAndSyntheticReplay) {
  std::string dir = ScratchDir("ckpt_pairs");
  std::vector<VoteEvent> votes = MakeVotes(500, 24);
  crowd::ResponseLog log(24, crowd::RetentionPolicy::kCounts);
  for (const VoteEvent& event : votes) log.Append(event);

  auto data = crowd::CheckpointFromLog(log, /*wal_generation=*/7);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->variant, CheckpointData::Variant::kPairs);
  std::string path = dir + "/checkpoint.bin";
  ASSERT_TRUE(crowd::WriteCheckpointFile(path, *data).ok());
  auto loaded = crowd::ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->wal_generation, 7u);
  EXPECT_EQ(loaded->num_events, 500u);
  EXPECT_EQ(loaded->workers, data->workers);
  EXPECT_EQ(loaded->items, data->items);
  EXPECT_EQ(loaded->dirty, data->dirty);
  EXPECT_EQ(loaded->clean, data->clean);

  // Synthetic replay must rebuild the same compacted matrix slot-for-slot
  // (the property that keeps EM bit-identical after recovery) and the same
  // per-item tallies.
  crowd::ResponseLog restored(24, crowd::RetentionPolicy::kCounts);
  auto apply = [&](std::span<const VoteEvent> events) -> Status {
    for (const VoteEvent& event : events) restored.Append(event);
    return Status::OK();
  };
  ASSERT_TRUE(crowd::EmitCheckpointVotes(*loaded, apply).ok());
  EXPECT_EQ(restored.num_events(), log.num_events());
  ASSERT_NE(restored.compacted(), nullptr);
  ASSERT_NE(log.compacted(), nullptr);
  EXPECT_EQ(restored.compacted()->workers(), log.compacted()->workers());
  EXPECT_EQ(restored.compacted()->items(), log.compacted()->items());
  EXPECT_EQ(restored.compacted()->dirty_counts(),
            log.compacted()->dirty_counts());
  EXPECT_EQ(restored.compacted()->clean_counts(),
            log.compacted()->clean_counts());
  for (size_t i = 0; i < 24; ++i) {
    ASSERT_EQ(restored.positive_votes(i), log.positive_votes(i)) << i;
    ASSERT_EQ(restored.total_votes(i), log.total_votes(i)) << i;
  }
  EXPECT_EQ(restored.NominalCount(), log.NominalCount());
  EXPECT_EQ(restored.MajorityCount(), log.MajorityCount());
}

TEST(CheckpointTest, VariantFollowsRetentionAndFullEventsIsRefused) {
  std::vector<VoteEvent> votes = MakeVotes(200, 16);
  crowd::ResponseLog tallies(16, crowd::RetentionPolicy::kTallies);
  crowd::ResponseLog full(16, crowd::RetentionPolicy::kFullEvents);
  for (const VoteEvent& event : votes) {
    tallies.Append(event);
    full.Append(event);
  }
  auto data = crowd::CheckpointFromLog(tallies, 1);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->variant, CheckpointData::Variant::kTallies);
  EXPECT_EQ(data->num_events, 200u);
  EXPECT_TRUE(std::ranges::equal(data->positive, tallies.positive_counts()));
  EXPECT_TRUE(std::ranges::equal(data->total, tallies.total_counts()));
  EXPECT_EQ(crowd::CheckpointFromLog(full, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, CorruptionFailsLoudly) {
  std::string dir = ScratchDir("ckpt_corrupt");
  std::vector<VoteEvent> votes = MakeVotes(200, 16);
  crowd::ResponseLog log(16, crowd::RetentionPolicy::kCounts);
  for (const VoteEvent& event : votes) log.Append(event);
  auto data = crowd::CheckpointFromLog(log, 1);
  ASSERT_TRUE(data.ok());
  std::string path = dir + "/checkpoint.bin";
  ASSERT_TRUE(crowd::WriteCheckpointFile(path, *data).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    byte = static_cast<char>(byte ^ 0xff);
    f.write(&byte, 1);
  }
  auto loaded = crowd::ReadCheckpointFile(path);
  ASSERT_FALSE(loaded.ok());
  // A rename-committed checkpoint that fails its CRC is real corruption —
  // never silently treated as absent.
  EXPECT_NE(loaded.status().message().find("corrupt checkpoint"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(CheckpointTest, OverflowingColumnCountIsRejectedNotAllocated) {
  // A crafted 61-byte kPairs checkpoint whose column count n = 2^60 wraps
  // the shape arithmetic (4 * n * 4 columns == 0 mod 2^64), so an
  // unguarded equality check passes and the loader attempts a 2^60-slot
  // resize. The CRC is honest over the crafted bytes, so only the bound
  // check can catch it — expect a loud corruption error, not bad_alloc.
  std::string dir = ScratchDir("ckpt_overflow");
  std::string path = dir + "/checkpoint.bin";
  std::vector<uint8_t> bytes;
  auto put32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  auto put64 = [&](uint64_t v) {
    put32(static_cast<uint32_t>(v));
    put32(static_cast<uint32_t>(v >> 32));
  };
  put32(0x50435144u);  // magic "DQCP"
  put32(1);            // version
  put64(1);            // wal_generation
  put64(8);            // num_items
  put64(0);            // num_events
  put64(1);            // num_tasks
  put64(1);            // num_workers
  bytes.push_back(0);  // variant kPairs
  put64(uint64_t{1} << 60);  // column count
  put32(crowd::Crc32(bytes.data(), bytes.size()));
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = crowd::ReadCheckpointFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("corrupt checkpoint"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ManifestTest, RoundTripsHostileNamesAndSpecs) {
  std::string dir = ScratchDir("manifest");
  SessionManifest manifest;
  manifest.name = "prod/us east=1%done,really";
  manifest.num_items = 1234;
  manifest.specs = {"chao92", "vchao92?shift=2", "workload?a=1&b=2,c"};
  manifest.cadence = "every_n_votes:8192";
  manifest.ingest_stripes = 4;
  manifest.publish_every_votes = 8192;
  manifest.wal_group_commit_votes = 512;
  manifest.wal_group_commit_ms = 25;
  manifest.checkpoint_every_votes = 100000;
  std::string path = dir + "/MANIFEST";
  ASSERT_TRUE(WriteManifestFile(path, manifest).ok());
  auto loaded = ReadManifestFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, manifest.name);
  EXPECT_EQ(loaded->num_items, manifest.num_items);
  EXPECT_EQ(loaded->specs, manifest.specs);
  EXPECT_EQ(loaded->cadence, manifest.cadence);
  EXPECT_EQ(loaded->ingest_stripes, manifest.ingest_stripes);
  EXPECT_EQ(loaded->publish_every_votes, manifest.publish_every_votes);
  EXPECT_EQ(loaded->wal_group_commit_votes, manifest.wal_group_commit_votes);
  EXPECT_EQ(loaded->wal_group_commit_ms, manifest.wal_group_commit_ms);
  EXPECT_EQ(loaded->checkpoint_every_votes, manifest.checkpoint_every_votes);
}

TEST(ManifestTest, PercentCodecRoundTripsAndRejectsBadHex) {
  const std::string hostile = "a/b c%d=e,f\ng\x7f";
  auto decoded = PercentDecode(PercentEncode(hostile));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, hostile);
  EXPECT_FALSE(PercentDecode("%zz").ok());
  EXPECT_FALSE(PercentDecode("%4").ok());
}

TEST(SessionDurabilityTest, CreateRefusesDirectoryWithExistingState) {
  std::string root = ScratchDir("create_refuse");
  DurabilityOptions options;
  options.dir = root + "/s";
  options.session_name = "s";
  SessionManifest manifest;
  manifest.name = "s";
  manifest.num_items = 8;
  auto first = SessionDurability::Create(options, manifest);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  first->reset();  // release the WAL fd and flusher before re-creating
  auto second = SessionDurability::Create(options, manifest);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineDurabilityTest, OpenSessionRefusesExistingDurableDir) {
  std::string root = ScratchDir("open_refuse");
  std::vector<std::string> specs = {"chao92"};
  SessionOptions options;
  options.durability_dir = root;
  {
    DqmEngine engine;
    auto session = engine.OpenSession("s", 16, specs, options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
  }
  DqmEngine fresh;
  auto reopened = fresh.OpenSession("s", 16, specs, options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineDurabilityTest, RetainedBytesCountsWalBuffers) {
  std::string root = ScratchDir("retained");
  std::vector<std::string> specs = {"chao92"};
  SessionOptions plain;
  SessionOptions durable = plain;
  durable.durability_dir = root;
  // Huge group commit: everything stays in the user-space WAL buffer, so
  // the durable session's accounting must exceed the in-memory twin's by
  // at least the buffered record bytes.
  durable.wal_group_commit_votes = 1u << 20;

  DqmEngine engine;
  auto in_memory = engine.OpenSession("m", 32, specs, plain);
  auto on_disk = engine.OpenSession("d", 32, specs, durable);
  ASSERT_TRUE(in_memory.ok());
  ASSERT_TRUE(on_disk.ok());
  std::vector<VoteEvent> votes = MakeVotes(300, 32);
  ASSERT_TRUE((*in_memory)->AddVotes(votes).ok());
  ASSERT_TRUE((*on_disk)->AddVotes(votes).ok());
  EXPECT_GT((*on_disk)->RetainedBytes(), (*in_memory)->RetainedBytes());
}

TEST(SessionDurabilityTest, FlushFailureSealsWalUntilCheckpointHeals) {
  std::string root = ScratchDir("seal_heal");
  DurabilityOptions options;
  options.dir = root + "/s";
  options.session_name = "s";
  options.group_commit_votes = 1;  // fsync every batch
  SessionManifest manifest;
  manifest.name = "s";
  manifest.num_items = 8;
  auto durability = SessionDurability::Create(options, manifest);
  ASSERT_TRUE(durability.ok()) << durability.status().ToString();
  std::vector<VoteEvent> votes = MakeVotes(15, 8);

  ASSERT_TRUE(
      (*durability)
          ->AppendBatch(std::span<const VoteEvent>(votes.data(), 5))
          .ok());
  (*durability)->NoteApplied();

  ASSERT_TRUE(failpoint::Configure("dqm.wal.fsync=count(1):error(EIO)").ok());
  Status failed =
      (*durability)
          ->AppendBatch(std::span<const VoteEvent>(votes.data() + 5, 5));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE((*durability)->wal_sealed());
  // Sealed: later batches and explicit flushes fail fast with the seal
  // error instead of piling doomed fsyncs or claiming a durability point.
  Status rejected =
      (*durability)
          ->AppendBatch(std::span<const VoteEvent>(votes.data() + 10, 5));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("sealed"), std::string::npos);
  EXPECT_FALSE((*durability)->Flush().ok());

  // A checkpoint commit re-snapshots the full in-memory state (here: the
  // one applied batch) and resets the WAL, healing the seal.
  crowd::ResponseLog log(8, crowd::RetentionPolicy::kCounts);
  for (size_t i = 0; i < 5; ++i) log.Append(votes[i]);
  Status healed = (*durability)
                      ->CommitCheckpoint([&](uint64_t generation) {
                        return crowd::CheckpointFromLog(log, generation);
                      });
  ASSERT_TRUE(healed.ok()) << healed.ToString();
  EXPECT_FALSE((*durability)->wal_sealed());
  ASSERT_TRUE(
      (*durability)
          ->AppendBatch(std::span<const VoteEvent>(votes.data() + 5, 5))
          .ok());
  (*durability)->NoteApplied();
  ASSERT_TRUE((*durability)->Flush().ok());

  // Recovery over the healed directory sees checkpoint + tail = 10 votes.
  durability->reset();
  DurabilityOptions attach_options = options;
  auto attached = SessionDurability::Attach(attach_options);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  uint64_t restored = 0;
  auto recovered = (*attached)->Recover(
      8, [&](std::span<const VoteEvent> events) -> Status {
        restored += events.size();
        return Status::OK();
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->had_checkpoint);
  EXPECT_EQ(recovered->checkpoint_votes + recovered->replayed_votes, 10u);
  EXPECT_EQ(restored, 10u);
}

// --- recovery --------------------------------------------------------------

/// Ingests `votes` into `name` in fixed-size batches (single producer, so
/// the durable prefix is a prefix of this exact order).
void IngestBatches(DqmEngine& engine, const std::string& name,
                   const std::vector<VoteEvent>& votes, size_t batch) {
  for (size_t begin = 0; begin < votes.size(); begin += batch) {
    size_t size = std::min(batch, votes.size() - begin);
    ASSERT_TRUE(
        engine.Ingest(name, std::span<const VoteEvent>(&votes[begin], size))
            .ok());
  }
}

TEST(EngineDurabilityTest, TornTailInCrashImageIsHealedOnRecovery) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes = FirstFamilyVotes(7, &num_items);
  std::string root = ScratchDir("torn_tail");
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 64;
  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", num_items,
        std::span<const std::string>(conformance::PairsPanel()), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    IngestBatches(engine, "s", votes, 37);
    ASSERT_TRUE((*session)->FlushDurability().ok());
  }
  // The crash tore the final record: leave half a frame at the tail.
  {
    std::ofstream f(root + "/s/wal.log", std::ios::binary | std::ios::app);
    f.write("\x28\x00\x00\x00\x99", 5);
  }
  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_EQ((*reports)[0].votes_restored, votes.size());
  EXPECT_EQ((*reports)[0].torn_records, 1u);
}

TEST(EngineDurabilityTest, StripedTallyOnlyPanelRecoversLiveRows) {
  // A tally-only panel checkpoints the kTallies variant; the striped
  // session recovered from that checkpoint plus the WAL tail must serve the
  // live session's chao92 / vchao92 rows exactly. (The kPairs variant is
  // covered by the session-parity harness's pairs panel.)
  size_t num_items = 0;
  std::vector<VoteEvent> votes = FirstFamilyVotes(13, &num_items);
  const std::vector<std::string> panel = {"chao92", "vchao92?shift=2",
                                          "voting"};
  std::string root = ScratchDir("striped_tallies");
  SessionOptions options;
  options.cadence = PublishCadence::kEveryNVotes;
  options.publish_every_votes = 128;
  options.ingest_stripes = 4;
  options.durability_dir = root;
  options.wal_group_commit_votes = 64;
  options.checkpoint_every_votes = 150;
  Snapshot live;
  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", num_items, std::span<const std::string>(panel), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE((*session)->concurrent_ingest());
    IngestBatches(engine, "s", votes, 37);
    ASSERT_TRUE((*session)->FlushDurability().ok());
    (*session)->Publish();
    live = (*session)->snapshot();
  }
  auto checkpoint = crowd::ReadCheckpointFile(root + "/s/checkpoint.bin");
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->variant, CheckpointData::Variant::kTallies);
  EXPECT_LT(checkpoint->num_events, votes.size());  // a WAL tail remains

  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_TRUE((*reports)[0].had_checkpoint);
  EXPECT_EQ((*reports)[0].votes_restored, votes.size());
  auto snapshot = recovered.Query("s");
  ASSERT_TRUE(snapshot.ok());
  conformance::ExpectSameServedState(panel, live, *snapshot,
                                     "striped kTallies recovery");
}

TEST(EngineDurabilityTest, SerializedTallyOnlyPanelRecoversAndMigrates) {
  // A serialized (every_batch) tally-only session keeps a kTallies log, so
  // it checkpoints the kTallies variant. Recovery from that checkpoint plus
  // the WAL tail, and a migration of the recovered session, must serve the
  // live rows exactly. A kPairs checkpoint of the same prefix — what a
  // serialized session of this panel wrote when its log kept pair counts —
  // must recover into it with identical tallies and rows.
  size_t num_items = 0;
  std::vector<VoteEvent> votes = FirstFamilyVotes(17, &num_items);
  const std::vector<std::string> panel = {"chao92", "voting"};
  std::string root = ScratchDir("serialized_tallies");
  std::string pairs_root = ScratchDir("serialized_tallies_pairs");
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 64;
  options.checkpoint_every_votes = 150;
  Snapshot live;
  Result<CheckpointData> live_state = Status::Internal("unset");
  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", num_items, std::span<const std::string>(panel), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_FALSE((*session)->concurrent_ingest());
    IngestBatches(engine, "s", votes, 37);
    ASSERT_TRUE((*session)->FlushDurability().ok());
    live = (*session)->snapshot();
    live_state = (*session)->ExportState();
    ASSERT_TRUE(live_state.ok()) << live_state.status().ToString();
  }
  EXPECT_EQ(live_state->variant, CheckpointData::Variant::kTallies);
  auto checkpoint = crowd::ReadCheckpointFile(root + "/s/checkpoint.bin");
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->variant, CheckpointData::Variant::kTallies);
  EXPECT_LT(checkpoint->num_events, votes.size());  // a WAL tail remains
  fs::copy(root, pairs_root, fs::copy_options::recursive |
                                 fs::copy_options::overwrite_existing);

  auto expect_same_state = [&](DqmEngine& engine, const std::string& context) {
    SCOPED_TRACE(context);
    auto snapshot = engine.Query("s");
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    conformance::ExpectSameServedState(panel, live, *snapshot, context);
    auto session = engine.GetSession("s");
    ASSERT_TRUE(session.ok());
    auto state = (*session)->ExportState();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(state->num_events, live_state->num_events);
    EXPECT_EQ(state->num_tasks, live_state->num_tasks);
    EXPECT_EQ(state->num_workers, live_state->num_workers);
    EXPECT_EQ(state->positive, live_state->positive);
    EXPECT_EQ(state->total, live_state->total);
  };

  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_TRUE((*reports)[0].had_checkpoint);
  EXPECT_EQ((*reports)[0].votes_restored, votes.size());
  expect_same_state(recovered, "kTallies recovery");

  DqmEngine target;
  ASSERT_TRUE(recovered.MigrateSession("s", target).ok());
  EXPECT_EQ(recovered.num_sessions(), 0u);
  expect_same_state(target, "migration");

  // The same checkpointed prefix as the kPairs variant.
  crowd::ResponseLog counts(num_items, crowd::RetentionPolicy::kCounts);
  for (size_t i = 0; i < checkpoint->num_events; ++i) counts.Append(votes[i]);
  auto pairs = crowd::CheckpointFromLog(counts, checkpoint->wal_generation);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs->variant, CheckpointData::Variant::kPairs);
  ASSERT_TRUE(
      crowd::WriteCheckpointFile(pairs_root + "/s/checkpoint.bin", *pairs)
          .ok());
  DqmEngine from_pairs;
  reports = from_pairs.RecoverSessions(pairs_root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_TRUE((*reports)[0].had_checkpoint);
  EXPECT_EQ((*reports)[0].votes_restored, votes.size());
  expect_same_state(from_pairs, "kPairs recovery");
}

// A vote over the worker cap, over the task cap, or with a vote byte other
// than 0/1 is one ScanWalRecords treats as a torn record. AddVotes must
// reject its batch before the WAL append: if it were acknowledged, recovery
// would cut the log at that record and silently drop it and every later
// acknowledged vote. Runs the reproducing sequence (acked batch, bad batch,
// acked batch, one WAL record per batch) on either commit path.
void ExpectOutOfCapVotesRejectedAndAckedVotesRecover(bool striped) {
  const std::vector<std::string> panel = {"chao92", "voting"};
  constexpr size_t kNumItems = 8;
  const VoteEvent kBadVotes[] = {
      {0, crowd::kMaxWorkerId + 1, 1, Vote::kDirty},
      {crowd::kMaxTaskId + 1, 0, 1, Vote::kDirty},
      {0, 0, 1, static_cast<Vote>(2)},
  };
  const std::vector<VoteEvent> first = {{0, 0, 0, Vote::kDirty},
                                        {0, 1, 1, Vote::kClean}};
  const std::vector<VoteEvent> last = {{1, 0, 2, Vote::kDirty},
                                       {1, 2, 3, Vote::kDirty}};
  for (const VoteEvent& bad : kBadVotes) {
    SCOPED_TRACE(testing::Message()
                 << (striped ? "striped" : "serialized") << " task "
                 << bad.task << " worker " << bad.worker << " vote byte "
                 << static_cast<unsigned>(bad.vote));
    std::string root =
        ScratchDir(std::string("reject_out_of_cap_") +
                   (striped ? "striped" : "serialized"));
    SessionOptions options;
    options.durability_dir = root;
    options.wal_group_commit_votes = 1;
    if (striped) {
      options.cadence = PublishCadence::kEveryNVotes;
      options.publish_every_votes = 2;
      options.ingest_stripes = 4;
    }
    {
      DqmEngine engine;
      auto session = engine.OpenSession(
          "s", kNumItems, std::span<const std::string>(panel), options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      ASSERT_EQ((*session)->concurrent_ingest(), striped);
      ASSERT_TRUE((*session)->AddVotes(first).ok());
      const std::vector<VoteEvent> bad_alone = {bad};
      const std::vector<VoteEvent> bad_after_good = {last[0], bad};
      EXPECT_EQ((*session)->AddVotes(bad_alone).code(),
                StatusCode::kInvalidArgument);
      // All or nothing: the in-bounds vote in front of it is not applied.
      EXPECT_EQ((*session)->AddVotes(bad_after_good).code(),
                StatusCode::kInvalidArgument);
      ASSERT_TRUE((*session)->AddVotes(last).ok());
      ASSERT_TRUE((*session)->FlushDurability().ok());
      auto state = (*session)->ExportState();
      ASSERT_TRUE(state.ok()) << state.status().ToString();
      EXPECT_EQ(state->num_events, first.size() + last.size());
    }
    DqmEngine recovered;
    auto reports = recovered.RecoverSessions(root);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    ASSERT_EQ(reports->size(), 1u);
    EXPECT_EQ((*reports)[0].votes_restored, first.size() + last.size());
    auto session = recovered.GetSession("s");
    ASSERT_TRUE(session.ok());
    auto state = (*session)->ExportState();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(state->num_events, first.size() + last.size());
    EXPECT_EQ(state->positive, (std::vector<uint32_t>{1, 0, 1, 1, 0, 0, 0, 0}));
    EXPECT_EQ(state->total, (std::vector<uint32_t>{1, 1, 1, 1, 0, 0, 0, 0}));
  }
}

TEST(EngineDurabilityTest, StripedSessionRejectsVotesTheWalCannotHold) {
  ExpectOutOfCapVotesRejectedAndAckedVotesRecover(/*striped=*/true);
}

TEST(EngineDurabilityTest, SerializedSessionRejectsVotesTheWalCannotHold) {
  ExpectOutOfCapVotesRejectedAndAckedVotesRecover(/*striped=*/false);
}

TEST(EngineDurabilityTest, RecoverSessionsRebuildsManyAndSkipsStrayDirs) {
  std::string root = ScratchDir("multi");
  std::vector<std::string> specs = {"chao92", "voting"};
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 1;  // fsync every batch
  {
    DqmEngine engine;
    for (std::string name : std::vector<std::string>{"beta", "alpha"}) {
      auto session = engine.OpenSession(name, 16, specs, options);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      std::vector<VoteEvent> votes = MakeVotes(50, 16);
      ASSERT_TRUE(engine.Ingest(name, votes).ok());
    }
  }
  // A stray directory without a manifest (a crash before the manifest
  // rename-committed) is skipped, not fatal.
  fs::create_directories(root + "/junk");
  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 2u);
  EXPECT_EQ((*reports)[0].name, "alpha");
  EXPECT_EQ((*reports)[1].name, "beta");
  EXPECT_EQ((*reports)[0].votes_restored, 50u);
  EXPECT_EQ((*reports)[1].votes_restored, 50u);
  EXPECT_EQ(recovered.num_sessions(), 2u);
}

class ManifestFaultTest : public testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(ManifestFaultTest, UnreadableManifestFailsRecoveryLoudly) {
  // Only a missing manifest marks a half-created directory that is safe to
  // skip. One that exists but cannot be read may guard acknowledged votes.
  std::string root = ScratchDir("unreadable_manifest");
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 1;
  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", 16, std::span<const std::string>(conformance::PairsPanel()),
        options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(engine.Ingest("s", MakeVotes(50, 16)).ok());
  }
  ASSERT_TRUE(failpoint::Configure("dqm.manifest.read=error(EIO)").ok());
  {
    DqmEngine engine;
    auto reports = engine.RecoverSessions(root);
    EXPECT_FALSE(reports.ok()) << "recovered " << reports->size()
                               << " session(s) past an unreadable manifest";
    EXPECT_EQ(reports.status().code(), StatusCode::kIOError);
    EXPECT_EQ(engine.num_sessions(), 0u);
  }
  {
    DqmEngine engine;
    auto outcomes = engine.RecoverSessionsKeepGoing(root);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    ASSERT_EQ(outcomes->size(), 1u);
    EXPECT_EQ((*outcomes)[0].state,
              DqmEngine::SessionRecoveryOutcome::State::kFailed);
    EXPECT_FALSE((*outcomes)[0].detail.empty());
  }
  // With the fault gone the same directory recovers in full.
  failpoint::DisarmAll();
  DqmEngine engine;
  auto reports = engine.RecoverSessions(root);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_EQ((*reports)[0].votes_restored, 50u);
}

TEST(EngineDurabilityTest, RecoverSessionsFailsLoudlyOnCorruptCheckpoint) {
  std::string root = ScratchDir("corrupt_ckpt");
  SessionOptions options;
  options.durability_dir = root;
  options.wal_group_commit_votes = 1;
  options.checkpoint_every_votes = 64;
  {
    DqmEngine engine;
    auto session = engine.OpenSession(
        "s", 16, std::span<const std::string>(conformance::PairsPanel()),
        options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    std::vector<VoteEvent> votes = MakeVotes(200, 16);
    IngestBatches(engine, "s", votes, 37);
  }
  std::string checkpoint = root + "/s/checkpoint.bin";
  ASSERT_TRUE(fs::exists(checkpoint));
  {
    std::fstream f(checkpoint,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(12);
    byte = static_cast<char>(byte ^ 0x33);
    f.write(&byte, 1);
  }
  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root);
  ASSERT_FALSE(reports.ok());
  EXPECT_NE(reports.status().message().find("corrupt checkpoint"),
            std::string::npos)
      << reports.status().ToString();
}

}  // namespace
}  // namespace dqm::engine
