// End-to-end drills for the replicated hot-standby pipeline
// (engine/replication.h): checkpoint/WAL-segment shipping, standby replay,
// failover with fencing, and live session migration.
//
// The invariants, per drill:
//
//  - no lost acknowledgement: a vote whose Ingest returned OK on the
//    primary is either applied on the promoted standby or was never
//    acknowledged (the ship hook runs before the commit returns);
//  - durable-prefix parity: the standby's state is bit-identical (in every
//    count-derived estimate) to a reference session fed exactly the prefix
//    the standby applied — a segment is applied whole or not at all;
//  - damage is detected, never absorbed: torn, gapped, or overlapping
//    segments flag divergence and leave the applied state untouched until
//    a fresh checkpoint heals the stream;
//  - fencing is final: once a standby promotes, the old primary's pushes
//    bounce off the raised fence and a restarted primary refuses to ship.
//
// The failover matrix crosses every kill point (segment-ship write/fsync/
// rename, WAL fsync — real _Exit(77) crash failpoints) with every workload
// family, mirroring the chaos harness next door.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "crowd/io.h"
#include "crowd/wal.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/replication.h"
#include "engine/session.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace dqm::engine {
namespace {

namespace fs = std::filesystem;

using crowd::VoteEvent;

std::string ScratchDir(const std::string& tag) {
  fs::path dir = fs::path(testing::TempDir()) / ("dqm_repl_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Count-derived estimator panel (checkpointable: no SWITCH).
const std::vector<std::string>& Panel() {
  static const std::vector<std::string> panel = {
      "chao92", "good-turing", "vchao92?shift=2", "chao1", "voting",
      "nominal"};
  return panel;
}

std::vector<std::string> FamilySpecs() {
  std::vector<std::string> specs;
  for (const std::string& name :
       workload::WorkloadRegistry::Global().Names()) {
    specs.push_back(name + "?n=80&dirty=12&tasks=50&ipt=8&batch=37");
  }
  return specs;
}

std::vector<VoteEvent> GenerateVotes(const std::string& spec, uint64_t seed,
                                     size_t* num_items) {
  auto generator = workload::WorkloadRegistry::Global().Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status().ToString();
  workload::GeneratedWorkload run = (*generator)->Generate(seed);
  *num_items = run.log.num_items();
  return std::vector<VoteEvent>(run.log.events().begin(),
                                run.log.events().end());
}

void IngestRange(DqmEngine& engine, const std::string& name,
                 const std::vector<VoteEvent>& votes, size_t begin, size_t end,
                 size_t batch) {
  for (; begin < end; begin += batch) {
    size_t size = std::min(batch, end - begin);
    ASSERT_TRUE(
        engine.Ingest(name, std::span<const VoteEvent>(&votes[begin], size))
            .ok())
        << "acknowledgement lost at vote " << begin;
  }
}

void ExpectWithinEmTolerance(double a, double b, const std::string& context) {
  double tolerance = std::max(2.0, 0.02 * std::abs(b));
  EXPECT_LE(std::abs(a - b), tolerance) << context << ": " << a << " vs " << b;
}

void ExpectSnapshotParity(const Snapshot& standby, const Snapshot& reference,
                          const std::string& context) {
  EXPECT_EQ(standby.num_votes, reference.num_votes) << context;
  EXPECT_EQ(standby.majority_count, reference.majority_count) << context;
  EXPECT_EQ(standby.nominal_count, reference.nominal_count) << context;
  ASSERT_EQ(standby.estimates.size(), reference.estimates.size()) << context;
  for (size_t i = 0; i < standby.estimates.size(); ++i) {
    const std::string row = context + ", " + reference.estimates[i].name;
    if (reference.estimates[i].name == "em-voting") {
      ExpectWithinEmTolerance(standby.estimates[i].total_errors,
                              reference.estimates[i].total_errors, row);
    } else {
      EXPECT_EQ(standby.estimates[i].total_errors,
                reference.estimates[i].total_errors)
          << row;
      EXPECT_EQ(standby.estimates[i].quality_score,
                reference.estimates[i].quality_score)
          << row;
    }
  }
}

/// Checks standby parity against a fresh in-memory session fed exactly
/// `prefix` votes — the durable-prefix guarantee in executable form.
void ExpectPrefixParity(DqmEngine& standby_engine, const std::string& name,
                        const std::vector<VoteEvent>& votes, uint64_t prefix,
                        size_t num_items, const std::string& context) {
  ASSERT_LE(prefix, votes.size()) << context;
  SessionOptions reference_options;
  reference_options.cadence = PublishCadence::kEveryNVotes;
  reference_options.publish_every_votes = 128;
  DqmEngine reference_engine;
  auto reference = reference_engine.OpenSession(
      "ref", num_items, std::span<const std::string>(Panel()),
      reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  IngestRange(reference_engine, "ref", votes, 0,
              static_cast<size_t>(prefix), 37);
  (*reference)->Publish();
  auto snapshot = standby_engine.Query(name);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ExpectSnapshotParity(*snapshot, (*reference)->snapshot(), context);
}

SessionOptions DurableOptions(const std::string& root,
                              uint32_t group_commit_votes,
                              uint64_t checkpoint_every_votes) {
  SessionOptions options;
  options.cadence = PublishCadence::kEveryNVotes;
  options.publish_every_votes = 128;
  options.durability_dir = root;
  options.wal_group_commit_votes = group_commit_votes;
  options.checkpoint_every_votes = checkpoint_every_votes;
  return options;
}

/// Segment artifact names of the highest generation on the transport,
/// sorted (lexicographic = numeric, so this is sequence order).
std::vector<std::string> SegmentsOfMaxGeneration(ReplicationTransport& t) {
  auto list = t.List();
  EXPECT_TRUE(list.ok()) << list.status().ToString();
  uint64_t max_gen = 0;
  for (const std::string& name : *list) {
    ArtifactId id = ParseArtifactName(name);
    if (id.kind == ArtifactId::Kind::kSegment)
      max_gen = std::max(max_gen, id.generation);
  }
  std::vector<std::string> segments;
  for (const std::string& name : *list) {
    ArtifactId id = ParseArtifactName(name);
    if (id.kind == ArtifactId::Kind::kSegment && id.generation == max_gen)
      segments.push_back(name);
  }
  return segments;
}

// ---------------------------------------------------------------------------
// Transient-errno classification (the retry layer's gate; EWOULDBLOCK may
// or may not alias EAGAIN depending on the platform — both spellings must
// classify as transient either way).
// ---------------------------------------------------------------------------

TEST(TransientErrnoTest, ClassifiesRetryableErrnos) {
  EXPECT_TRUE(crowd::io::IsTransientErrno(EINTR));
  EXPECT_TRUE(crowd::io::IsTransientErrno(EAGAIN));
#if defined(EWOULDBLOCK)
  EXPECT_TRUE(crowd::io::IsTransientErrno(EWOULDBLOCK));
#endif
  EXPECT_FALSE(crowd::io::IsTransientErrno(EIO));
  EXPECT_FALSE(crowd::io::IsTransientErrno(ENOSPC));
  EXPECT_FALSE(crowd::io::IsTransientErrno(EBADF));
  EXPECT_FALSE(crowd::io::IsTransientErrno(0));
}

// ---------------------------------------------------------------------------
// Artifact naming.
// ---------------------------------------------------------------------------

TEST(ArtifactNameTest, RoundTripsAndSortsNumerically) {
  EXPECT_EQ(ParseArtifactName(kManifestArtifact).kind,
            ArtifactId::Kind::kManifest);

  ArtifactId ckpt = ParseArtifactName(CheckpointArtifactName(7));
  EXPECT_EQ(ckpt.kind, ArtifactId::Kind::kCheckpoint);
  EXPECT_EQ(ckpt.generation, 7u);

  ArtifactId seg = ParseArtifactName(SegmentArtifactName(3, 42));
  EXPECT_EQ(seg.kind, ArtifactId::Kind::kSegment);
  EXPECT_EQ(seg.generation, 3u);
  EXPECT_EQ(seg.seq, 42u);

  // Zero padding: lexicographic order equals numeric order.
  EXPECT_LT(SegmentArtifactName(2, 9), SegmentArtifactName(2, 10));
  EXPECT_LT(SegmentArtifactName(2, 10), SegmentArtifactName(10, 1));
  EXPECT_LT(CheckpointArtifactName(9), CheckpointArtifactName(11));

  EXPECT_EQ(ParseArtifactName("FENCE").kind, ArtifactId::Kind::kOther);
  EXPECT_EQ(ParseArtifactName("seg_junk.bin").kind, ArtifactId::Kind::kOther);
  EXPECT_EQ(ParseArtifactName("").kind, ArtifactId::Kind::kOther);
}

// ---------------------------------------------------------------------------
// LocalDirTransport: artifact round trips and the fence.
// ---------------------------------------------------------------------------

TEST(LocalDirTransportTest, PutGetListDeleteAndFence) {
  std::string dir = ScratchDir("transport");
  auto opened = LocalDirTransport::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LocalDirTransport& t = **opened;

  auto fence = t.Fence();
  ASSERT_TRUE(fence.ok());
  EXPECT_EQ(*fence, 0u) << "fresh transport must start unfenced";

  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(t.Put("a.bin", payload, 1).ok());
  auto got = t.Get("a.bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);

  auto list = t.List();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, std::vector<std::string>{"a.bin"})
      << "FENCE and *.tmp must not appear in listings";

  // The fence is monotonic and rejects stale tokens.
  ASSERT_TRUE(t.RaiseFence(5).ok());
  Status stale = t.Put("b.bin", payload, 4);
  EXPECT_FALSE(stale.ok());
  EXPECT_TRUE(t.Put("b.bin", payload, 5).ok());
  ASSERT_TRUE(t.RaiseFence(3).ok());  // lowering is a no-op
  fence = t.Fence();
  ASSERT_TRUE(fence.ok());
  EXPECT_EQ(*fence, 5u);

  EXPECT_TRUE(t.Delete("b.bin").ok());
  EXPECT_TRUE(t.Delete("b.bin").ok()) << "deleting a missing artifact is OK";

  // The fence survives reopening (it is a durable file, not handle state).
  auto reopened = LocalDirTransport::Open(dir);
  ASSERT_TRUE(reopened.ok());
  fence = (*reopened)->Fence();
  ASSERT_TRUE(fence.ok());
  EXPECT_EQ(*fence, 5u);
}

TEST(LocalDirTransportTest, UnreadableFenceRefusesToShip) {
  // Only a missing FENCE means "never fenced". One that exists but cannot
  // be read (here a symlink loop: ELOOP) must stop a zombie primary, not
  // read as fence 0.
  std::string dir = ScratchDir("transport_bad_fence");
  auto opened = LocalDirTransport::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  LocalDirTransport& t = **opened;
  ASSERT_TRUE(t.RaiseFence(5).ok());
  fs::remove(dir + "/FENCE");
  fs::create_symlink("FENCE", dir + "/FENCE");

  auto fence = t.Fence();
  EXPECT_FALSE(fence.ok()) << "unreadable FENCE read as " << *fence;
  EXPECT_EQ(fence.status().code(), StatusCode::kIOError);
  const std::vector<uint8_t> payload = {1, 2, 3};
  EXPECT_FALSE(t.Put("a.bin", payload, 1).ok());
  auto list = t.List();
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list->empty()) << "the zombie's artifact was published";
}

// ---------------------------------------------------------------------------
// The healthy pipeline: primary ships, standby tracks, lag drains, promote
// serves — across every workload family.
// ---------------------------------------------------------------------------

TEST(ReplicationPipelineTest, StandbyTracksPrimaryAcrossFamilies) {
  int family = 0;
  for (const std::string& spec : FamilySpecs()) {
    SCOPED_TRACE(spec);
    size_t num_items = 0;
    std::vector<VoteEvent> votes =
        GenerateVotes(spec, 0x5EED + family, &num_items);
    ASSERT_GE(votes.size(), 300u);

    const std::string tag = StrFormat("pipe_f%d", family++);
    std::string primary_root = ScratchDir(tag + "_primary");
    std::string ship_dir = ScratchDir(tag + "_ship");
    std::string standby_root = ScratchDir(tag + "_standby");

    DqmEngine primary;
    auto session = primary.OpenSession(
        "s", num_items, std::span<const std::string>(Panel()),
        DurableOptions(primary_root, 64, 150));
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    auto transport = LocalDirTransport::Open(ship_dir);
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();
    std::shared_ptr<ReplicationTransport> shared = std::move(*transport);
    auto replicator = SessionReplicator::Start(*session, shared);
    ASSERT_TRUE(replicator.ok()) << replicator.status().ToString();

    DqmEngine standby_engine;
    StandbyApplier::Options standby_options;
    standby_options.durability_dir = standby_root;
    auto applier =
        StandbyApplier::Open(standby_engine, shared, standby_options);
    ASSERT_TRUE(applier.ok()) << applier.status().ToString();

    // Interleave ingest and replay so the standby crosses checkpoint
    // rebases mid-stream, not just at the end.
    size_t polls = 0;
    for (size_t begin = 0; begin < votes.size(); begin += 37) {
      size_t size = std::min<size_t>(37, votes.size() - begin);
      ASSERT_TRUE(
          primary.Ingest("s", std::span<const VoteEvent>(&votes[begin], size))
              .ok());
      if (++polls % 3 == 0) {
        ASSERT_TRUE((*applier)->Poll().ok());
      }
    }
    ASSERT_TRUE((*session)->FlushDurability().ok());
    ASSERT_TRUE((*applier)->Poll().ok());

    // An idle pair fully drains: every durable vote is applied and the lag
    // gauge reads zero.
    EXPECT_EQ((*applier)->applied_votes(), votes.size());
    EXPECT_FALSE((*applier)->divergent());
    EXPECT_EQ((*applier)->divergences(), 0u);
    telemetry::Gauge* lag = telemetry::MetricsRegistry::Global().GetGauge(
        telemetry::metric_names::kReplicaLagVotes, {{"session", "s"}});
    EXPECT_DOUBLE_EQ(lag->Value(), 0.0);

    ReplicationStats stats = (*replicator)->stats();
    EXPECT_EQ(stats.ship_errors, 0u);
    EXPECT_GT(stats.segments_shipped, 0u);
    EXPECT_EQ(stats.shipped_votes, votes.size());

    auto promoted = (*applier)->Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_GE(promoted->fencing_token, 2u);
    EXPECT_EQ(promoted->applied_votes, votes.size());
    ExpectPrefixParity(standby_engine, "s", votes, votes.size(), num_items,
                       spec);

    // The promoted session serves as a normal primary: new traffic lands.
    ASSERT_TRUE(
        standby_engine.Ingest("s", std::span<const VoteEvent>(&votes[0], 37))
            .ok());
  }
}

TEST(ReplicationPipelineTest, StartShipsPreexistingState) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(FamilySpecs().front(), 0xA77ACE, &num_items);
  std::string primary_root = ScratchDir("late_primary");
  std::string ship_dir = ScratchDir("late_ship");

  DqmEngine primary;
  auto session = primary.OpenSession(
      "s", num_items, std::span<const std::string>(Panel()),
      DurableOptions(primary_root, 16, 64));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // 100 votes BEFORE replication attaches: a checkpoint (at 64) plus a WAL
  // tail exist. Start must perform the initial sync on its own.
  IngestRange(primary, "s", votes, 0, 100, 16);
  ASSERT_TRUE((*session)->FlushDurability().ok());

  auto transport = LocalDirTransport::Open(ship_dir);
  ASSERT_TRUE(transport.ok());
  std::shared_ptr<ReplicationTransport> shared = std::move(*transport);
  auto replicator = SessionReplicator::Start(*session, shared);
  ASSERT_TRUE(replicator.ok()) << replicator.status().ToString();

  DqmEngine standby_engine;
  auto applier = StandbyApplier::Open(standby_engine, shared);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_EQ((*applier)->applied_votes(), 100u);
  ExpectPrefixParity(standby_engine, "s", votes, 100, num_items,
                     "late attach");
}

// ---------------------------------------------------------------------------
// Transport faults: torn, gapped, overlapping, and duplicated segments.
// Damage must be detected (never silently applied) and a later checkpoint
// must heal the stream.
// ---------------------------------------------------------------------------

/// One primary with a live replicator over a local transport; the fixture
/// the fault drills tamper with.
struct PrimaryRig {
  DqmEngine engine;
  std::shared_ptr<EstimationSession> session;
  std::shared_ptr<ReplicationTransport> transport;
  std::unique_ptr<SessionReplicator> replicator;
  std::string ship_dir;
  std::vector<VoteEvent> votes;
  size_t num_items = 0;
};

void StartRig(PrimaryRig& rig, const std::string& tag,
              uint64_t checkpoint_every_votes) {
  rig.votes = GenerateVotes(FamilySpecs().front(), 0xFAB, &rig.num_items);
  ASSERT_GE(rig.votes.size(), 300u);
  rig.ship_dir = ScratchDir(tag + "_ship");
  std::string primary_root = ScratchDir(tag + "_primary");

  auto session = rig.engine.OpenSession(
      "s", rig.num_items, std::span<const std::string>(Panel()),
      DurableOptions(primary_root, 16, checkpoint_every_votes));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  rig.session = *session;

  auto transport = LocalDirTransport::Open(rig.ship_dir);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  rig.transport = std::move(*transport);
  auto replicator = SessionReplicator::Start(rig.session, rig.transport);
  ASSERT_TRUE(replicator.ok()) << replicator.status().ToString();
  rig.replicator = std::move(*replicator);
}

void IngestAndFlush(PrimaryRig& rig, size_t begin, size_t end) {
  IngestRange(rig.engine, "s", rig.votes, begin, end, 16);
  ASSERT_TRUE(rig.session->FlushDurability().ok());
}

/// Flips one payload byte of `artifact` on disk — a torn/bit-rotted
/// segment whose whole-artifact CRC no longer matches.
void CorruptArtifact(const std::string& ship_dir,
                     const std::string& artifact) {
  const std::string path = ship_dir + "/" + artifact;
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  ASSERT_GT(size, 8);
  char byte = 0;
  file.seekg(size - 8);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0xFF);
  file.seekp(size - 8);
  file.write(&byte, 1);
}

class TransportFaultTest : public testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(TransportFaultTest, TornSegmentIsDetectedThenCheckpointHeals) {
  PrimaryRig rig;
  StartRig(rig, "torn", 100);
  if (testing::Test::HasFatalFailure()) return;
  // Past the first checkpoint (at 100): the transport holds ckpt(gen 2)
  // plus the gen-2 segments covering votes 100..160.
  IngestAndFlush(rig, 0, 160);
  std::vector<std::string> segments = SegmentsOfMaxGeneration(*rig.transport);
  ASSERT_GE(segments.size(), 2u);
  CorruptArtifact(rig.ship_dir, segments.back());

  DqmEngine standby_engine;
  StandbyApplier::Options standby_options;
  standby_options.durability_dir = ScratchDir("torn_standby");
  auto applier =
      StandbyApplier::Open(standby_engine, rig.transport, standby_options);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();

  // Divergence, not a crash and not a partial apply: the torn segment
  // contributed nothing, and everything before it replayed cleanly.
  EXPECT_TRUE((*applier)->divergent());
  EXPECT_GE((*applier)->divergences(), 1u);
  const uint64_t applied = (*applier)->applied_votes();
  EXPECT_LT(applied, 160u);
  ExpectPrefixParity(standby_engine, "s", rig.votes, applied, rig.num_items,
                     "after torn segment");

  // The next checkpoint (crossing 200) supersedes the damaged generation;
  // replay resynchronizes from it and catches back up.
  IngestAndFlush(rig, 160, 220);
  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_FALSE((*applier)->divergent());
  EXPECT_GE((*applier)->resyncs(), 1u);
  EXPECT_EQ((*applier)->applied_votes(), 220u);
  ExpectPrefixParity(standby_engine, "s", rig.votes, 220, rig.num_items,
                     "after heal");
}

TEST_F(TransportFaultTest, MissingSegmentIsAGapThenCheckpointHeals) {
  PrimaryRig rig;
  StartRig(rig, "gap", 100);
  if (testing::Test::HasFatalFailure()) return;
  IngestAndFlush(rig, 0, 160);
  std::vector<std::string> segments = SegmentsOfMaxGeneration(*rig.transport);
  ASSERT_GE(segments.size(), 2u);
  // Losing the FIRST gen-2 segment leaves a sequence gap right after the
  // checkpoint: nothing past the checkpoint may be applied.
  ASSERT_TRUE(fs::remove(fs::path(rig.ship_dir) / segments.front()));

  DqmEngine standby_engine;
  auto applier = StandbyApplier::Open(standby_engine, rig.transport);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  EXPECT_TRUE((*applier)->divergent());
  const uint64_t applied = (*applier)->applied_votes();
  EXPECT_LT(applied, 160u);
  ExpectPrefixParity(standby_engine, "s", rig.votes, applied, rig.num_items,
                     "after gap");

  IngestAndFlush(rig, 160, 220);
  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_FALSE((*applier)->divergent());
  EXPECT_EQ((*applier)->applied_votes(), 220u);
  ExpectPrefixParity(standby_engine, "s", rig.votes, 220, rig.num_items,
                     "after heal");
}

TEST_F(TransportFaultTest, OverlappingSegmentIsRejectedWithoutApplying) {
  PrimaryRig rig;
  StartRig(rig, "overlap", 0);  // one generation, no checkpoints
  if (testing::Test::HasFatalFailure()) return;
  IngestAndFlush(rig, 0, 160);

  DqmEngine standby_engine;
  auto applier = StandbyApplier::Open(standby_engine, rig.transport);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  ASSERT_TRUE((*applier)->Poll().ok());
  ASSERT_EQ((*applier)->applied_votes(), 160u);

  // A forged next-sequence segment that rewinds start_offset over already
  // applied bytes (a replayed/reordered write). The applier must refuse it
  // on metadata alone — the payload is garbage and must never be scanned
  // into the session.
  std::vector<std::string> segments = SegmentsOfMaxGeneration(*rig.transport);
  ASSERT_FALSE(segments.empty());
  ArtifactId last = ParseArtifactName(segments.back());
  crowd::WalSegment forged;
  forged.generation = last.generation;
  forged.seq = last.seq + 1;
  forged.start_offset = crowd::kWalHeaderBytes;  // overlaps segment 1
  forged.cum_votes = 999999;
  forged.fencing_token = 1;
  forged.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  std::vector<uint8_t> bytes;
  crowd::EncodeWalSegment(forged, bytes);
  ASSERT_TRUE(
      rig.transport->Put(SegmentArtifactName(forged.generation, forged.seq),
                         bytes, 1)
          .ok());

  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_TRUE((*applier)->divergent());
  EXPECT_EQ((*applier)->applied_votes(), 160u) << "nothing may be applied";
  auto snapshot = standby_engine.Query("s");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->num_votes, 160u);
}

TEST_F(TransportFaultTest, RedeliveryAndRepollAreIdempotent) {
  PrimaryRig rig;
  StartRig(rig, "dup", 0);
  if (testing::Test::HasFatalFailure()) return;
  IngestAndFlush(rig, 0, 160);

  DqmEngine standby_engine;
  auto applier = StandbyApplier::Open(standby_engine, rig.transport);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  ASSERT_TRUE((*applier)->Poll().ok());
  ASSERT_EQ((*applier)->applied_votes(), 160u);

  // Every Poll re-lists every artifact — the whole history is "redelivered"
  // each heartbeat and must be skipped, not re-applied.
  ASSERT_TRUE((*applier)->Poll().ok());
  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_EQ((*applier)->applied_votes(), 160u);
  EXPECT_EQ((*applier)->divergences(), 0u);
  ExpectPrefixParity(standby_engine, "s", rig.votes, 160, rig.num_items,
                     "after redelivery");
}

// ---------------------------------------------------------------------------
// Fencing: a promoted standby owns the stream; the old primary is a zombie.
// ---------------------------------------------------------------------------

TEST(FencingTest, PromotedStandbyFencesOffZombiePrimary) {
  PrimaryRig rig;
  StartRig(rig, "fence", 0);
  if (testing::Test::HasFatalFailure()) return;
  IngestAndFlush(rig, 0, 80);

  telemetry::Counter* rejections =
      telemetry::MetricsRegistry::Global().GetCounter(
          telemetry::metric_names::kReplicaFenceRejectionsTotal);
  const uint64_t rejections_base = rejections->Value();

  DqmEngine standby_engine;
  auto applier = StandbyApplier::Open(standby_engine, rig.transport);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  ASSERT_TRUE((*applier)->Poll().ok());
  auto promoted = (*applier)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_GE(promoted->fencing_token, 2u);
  EXPECT_EQ(promoted->applied_votes, 80u);

  // The zombie primary doesn't know it was failed over: it keeps
  // ingesting. Its own commits still succeed (its WAL is its own), but
  // every ship bounces off the fence and the transport stays untouched.
  auto list_before = rig.transport->List();
  ASSERT_TRUE(list_before.ok());
  IngestRange(rig.engine, "s", rig.votes, 80, 160, 16);
  ASSERT_TRUE(rig.session->FlushDurability().ok());
  EXPECT_GT(rig.replicator->stats().ship_errors, 0u);
  EXPECT_GT(rejections->Value(), rejections_base);
  auto list_after = rig.transport->List();
  ASSERT_TRUE(list_after.ok());
  EXPECT_EQ(*list_after, *list_before)
      << "a fenced zombie must not publish artifacts";

  // A promoted applier refuses to keep replaying, and a restarted zombie
  // refuses to ship at all.
  EXPECT_FALSE((*applier)->Poll().ok());
  auto restarted = SessionReplicator::Start(rig.session, rig.transport);
  EXPECT_FALSE(restarted.ok());
  ExpectPrefixParity(standby_engine, "s", rig.votes, 80, rig.num_items,
                     "promoted prefix");
}

// ---------------------------------------------------------------------------
// The failover matrix: kill the primary for real (_Exit(77) failpoints in
// the segment-ship write/fsync/rename and WAL-fsync edges), promote the
// standby, and check no-lost-ack + durable-prefix parity. Crossed with
// every workload family.
// ---------------------------------------------------------------------------

struct KillPoint {
  const char* tag;
  const char* spec;
};

constexpr KillPoint kKillPoints[] = {
    {"seg_ship_write", "dqm.repl.write=crash"},
    {"seg_ship_fsync", "dqm.repl.fsync=crash"},
    {"seg_ship_rename", "dqm.repl.rename=crash"},
    {"wal_fsync", "dqm.wal.fsync=crash"},
};

class ReplicationFailoverDeathTest
    : public testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_P(ReplicationFailoverDeathTest, PromoteServesEveryAcknowledgedVote) {
  const int family = std::get<0>(GetParam());
  const KillPoint& kill = kKillPoints[std::get<1>(GetParam())];
  std::vector<std::string> families = FamilySpecs();
  ASSERT_LT(static_cast<size_t>(family), families.size());
  SCOPED_TRACE(StrFormat("kill=%s, %s", kill.spec, families[family].c_str()));

  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(families[family], 0xFA170 + family, &num_items);
  ASSERT_GE(votes.size(), 300u);

  const std::string tag = StrFormat("kill_%s_f%d", kill.tag, family);
  std::string primary_root = ScratchDir(tag + "_primary");
  std::string ship_dir = ScratchDir(tag + "_ship");
  std::string standby_root = ScratchDir(tag + "_standby");
  // The child records the high-water mark of votes acknowledged as DURABLE
  // (FlushDurability returned, which fsyncs and ships before returning);
  // the no-lost-ack check reads it back in the parent. Group-committed
  // acks without the barrier are explicitly weaker — they may ride in the
  // tail the crash destroys, exactly as on a single node.
  const std::string ack_path = ScratchDir(tag + "_ack") + "/acked";
  const size_t arm_after = 185;  // past the first checkpoint boundary (150)

  EXPECT_EXIT(
      {
        DqmEngine engine;
        auto session = engine.OpenSession(
            "s", num_items, std::span<const std::string>(Panel()),
            DurableOptions(primary_root, 64, 150));
        if (!session.ok()) std::_Exit(3);
        auto transport = LocalDirTransport::Open(ship_dir);
        if (!transport.ok()) std::_Exit(3);
        std::shared_ptr<ReplicationTransport> shared = std::move(*transport);
        auto replicator = SessionReplicator::Start(*session, shared);
        if (!replicator.ok()) std::_Exit(4);
        for (size_t begin = 0; begin < votes.size(); begin += 37) {
          if (begin >= arm_after && !failpoint::AnyArmed()) {
            if (!failpoint::Configure(kill.spec).ok()) std::_Exit(4);
          }
          size_t size = std::min<size_t>(37, votes.size() - begin);
          if (!engine
                   .Ingest("s",
                           std::span<const VoteEvent>(&votes[begin], size))
                   .ok()) {
            std::_Exit(5);
          }
          // The durability barrier: when it returns, this batch is fsynced
          // AND its ship hook has run (or the crash fired and we never got
          // here) — the acknowledged durable prefix now covers it.
          if (!(*session)->FlushDurability().ok()) std::_Exit(5);
          std::ofstream(ack_path, std::ios::trunc) << (begin + size);
        }
        std::_Exit(6);  // the kill point never fired
      },
      testing::ExitedWithCode(failpoint::kCrashExitCode), "");

  // Parent: the transport holds what the dead primary managed to ship.
  uint64_t acked = 0;
  {
    std::ifstream in(ack_path);
    ASSERT_TRUE(static_cast<bool>(in >> acked))
        << "child died before acknowledging anything";
  }
  ASSERT_GT(acked, 0u);

  auto transport = LocalDirTransport::Open(ship_dir);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  std::shared_ptr<ReplicationTransport> shared = std::move(*transport);
  DqmEngine standby_engine;
  StandbyApplier::Options standby_options;
  standby_options.durability_dir = standby_root;
  auto applier =
      StandbyApplier::Open(standby_engine, shared, standby_options);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  auto promoted = (*applier)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();

  // No lost acknowledgement: every batch whose durability barrier returned
  // on the primary was shipped before the barrier returned, so the
  // promoted standby serves at least that prefix — and never more than was
  // ingested.
  EXPECT_GE(promoted->applied_votes, acked)
      << "the promoted standby lost votes acknowledged as durable";
  ASSERT_LE(promoted->applied_votes, votes.size());
  EXPECT_GE(promoted->fencing_token, 2u);

  // Durable-prefix parity: the standby is bit-identical to a reference fed
  // exactly the applied prefix.
  ExpectPrefixParity(standby_engine, "s", votes, promoted->applied_votes,
                     num_items, tag);

  // The fence is up: a zombie write with the dead primary's token bounces.
  const std::vector<uint8_t> junk = {0xBA, 0xD0};
  EXPECT_FALSE(shared->Put(SegmentArtifactName(99, 1), junk, 1).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReplicationFailoverDeathTest,
    testing::Combine(testing::Range(0, 5),
                     testing::Range(0, static_cast<int>(
                                           sizeof(kKillPoints) /
                                           sizeof(kKillPoints[0])))));

// ---------------------------------------------------------------------------
// Live session migration.
// ---------------------------------------------------------------------------

TEST(MigrateSessionTest, MovesSessionAcrossEnginesWithDurability) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes =
      GenerateVotes(FamilySpecs().front(), 0x316EA7E, &num_items);
  std::string root_a = ScratchDir("mig_a");
  std::string root_b = ScratchDir("mig_b");

  telemetry::Counter* migrations =
      telemetry::MetricsRegistry::Global().GetCounter(
          telemetry::metric_names::kSessionsMigratedTotal);
  const uint64_t migrations_base = migrations->Value();

  {
    DqmEngine a;
    auto session = a.OpenSession(
        "m", num_items, std::span<const std::string>(Panel()),
        DurableOptions(root_a, 16, 100));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    IngestRange(a, "m", votes, 0, 160, 16);
    (*session)->Publish();
    Snapshot before = a.Query("m").value();

    DqmEngine b;
    ASSERT_TRUE(a.MigrateSession("m", b, root_b).ok());
    EXPECT_EQ(migrations->Value(), migrations_base + 1);

    // The source engine no longer routes; the target serves bit-identical
    // state and accepts new traffic into its new durable home.
    EXPECT_FALSE(a.Query("m").ok());
    auto after = b.Query("m");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectSnapshotParity(*after, before, "post-migration");
    IngestRange(b, "m", votes, 160, 200, 16);
    // b's destructor flushes the migrated session's WAL.
  }

  // The migrated session is durable at its new home: a fresh engine
  // recovers all 200 votes from root_b alone.
  DqmEngine recovered;
  auto reports = recovered.RecoverSessions(root_b);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_EQ((*reports)[0].name, "m");
  EXPECT_EQ((*reports)[0].votes_restored, 200u);
}

TEST(MigrateSessionTest, RefusesUnknownAndSpecLessSessions) {
  DqmEngine a;
  DqmEngine b;
  EXPECT_FALSE(a.MigrateSession("missing", b).ok());

  // Sessions opened without spec strings cannot be rebuilt on the target.
  auto raw = a.OpenSession("raw", 16);
  ASSERT_TRUE(raw.ok());
  Status status = a.MigrateSession("raw", b);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(a.Query("raw").ok())
      << "a failed migration must leave the source serving";
}

}  // namespace
}  // namespace dqm::engine
