// End-to-end drills for the replicated hot-standby pipeline
// (engine/replication.h): checkpoint and raw WAL-range shipping, standby
// replay, failover with fencing, and live session migration.
//
// The invariants, per drill:
//
//  - no lost acknowledgement: a vote whose Ingest returned OK on the
//    primary is either applied on the promoted standby or was never
//    acknowledged (the ship hook runs before the commit returns);
//  - durable-prefix parity: the standby's state is bit-identical (in every
//    count-derived estimate) to a reference session fed exactly the prefix
//    the standby applied — a segment's unapplied suffix is applied whole or
//    not at all;
//  - damage is detected, never absorbed: torn, gapped, overlapping, or
//    short segments flag divergence and leave the applied state untouched
//    until a fresh checkpoint heals the stream;
//  - fencing is final: once a standby promotes, the old primary's pushes
//    bounce off the raised fence and a restarted primary refuses to ship.
//
// The failover matrix crosses every kill point (segment-ship write/fsync/
// rename, WAL fsync — real _Exit(77) crash failpoints) with every workload
// family, mirroring the chaos harness next door. The healthy ship-and-promote
// path across families is a subject of the session-parity harness
// (conformance/session_parity.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "conformance/conformance_utils.h"
#include "conformance/session_parity.h"
#include "crowd/io.h"
#include "crowd/wal.h"
#include "engine/durability.h"
#include "engine/engine.h"
#include "engine/replication.h"
#include "engine/session.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace dqm::engine {
namespace {

namespace fs = std::filesystem;

using crowd::VoteEvent;

using conformance::FirstFamilyVotes;
using conformance::ScratchDir;
using conformance::TalliesPanel;

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
      "ref", num_items, std::span<const std::string>(TalliesPanel()),
      reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  IngestRange(reference_engine, "ref", votes, 0,
              static_cast<size_t>(prefix), 37);
  (*reference)->Publish();
  auto snapshot = standby_engine.Query(name);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  conformance::ExpectSameServedState(TalliesPanel(), (*reference)->snapshot(),
                                     *snapshot, context);
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
/// sorted (lexicographic = numeric, so this is WAL offset order).
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

  ArtifactId seg = ParseArtifactName(SegmentArtifactName(3, 4096, 42));
  EXPECT_EQ(seg.kind, ArtifactId::Kind::kSegment);
  EXPECT_EQ(seg.generation, 3u);
  EXPECT_EQ(seg.start_offset, 4096u);
  EXPECT_EQ(seg.cum_votes, 42u);
  EXPECT_EQ(SegmentArtifactName(3, 4096, 42),
            "seg_00000000000000000003_00000000000000004096_"
            "00000000000000000042.bin");

  // Zero padding: lexicographic order equals numeric (generation, start
  // offset, cumulative votes) order — a generation's ranges sort by offset,
  // and a range re-shipped wider at the same start sorts after the
  // narrower copy.
  EXPECT_LT(SegmentArtifactName(2, 99, 9), SegmentArtifactName(2, 100, 1));
  EXPECT_LT(SegmentArtifactName(2, 100, 9), SegmentArtifactName(2, 100, 10));
  EXPECT_LT(SegmentArtifactName(2, 900, 90), SegmentArtifactName(10, 16, 1));
  EXPECT_LT(CheckpointArtifactName(9), CheckpointArtifactName(11));

  EXPECT_EQ(ParseArtifactName("FENCE").kind, ArtifactId::Kind::kOther);
  EXPECT_EQ(ParseArtifactName("seg_junk.bin").kind, ArtifactId::Kind::kOther);
  EXPECT_EQ(ParseArtifactName("seg_1_16.bin").kind, ArtifactId::Kind::kOther)
      << "a name without the cumulative vote count is not a segment";
  EXPECT_EQ(ParseArtifactName("seg_1_16_3_4.bin").kind,
            ArtifactId::Kind::kOther);
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
// A primary that attaches replication late ships what it already holds.
// ---------------------------------------------------------------------------

TEST(ReplicationPipelineTest, StartShipsPreexistingState) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes = FirstFamilyVotes(0xA77ACE, &num_items);
  std::string primary_root = ScratchDir("late_primary");
  std::string ship_dir = ScratchDir("late_ship");

  DqmEngine primary;
  auto session = primary.OpenSession(
      "s", num_items, std::span<const std::string>(TalliesPanel()),
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
// Replication lag is per session.
// ---------------------------------------------------------------------------

/// A LocalDirTransport whose Puts of one artifact kind fail while `refuse`
/// names it — a primary whose shipping falls behind.
class RefusingTransport : public ReplicationTransport {
 public:
  explicit RefusingTransport(std::unique_ptr<LocalDirTransport> inner)
      : inner_(std::move(inner)) {}

  Status Put(const std::string& name, std::span<const uint8_t> bytes,
             uint64_t fencing_token) override {
    if (refuse == ParseArtifactName(name).kind) {
      return Status::IOError("put refused");
    }
    return inner_->Put(name, bytes, fencing_token);
  }
  Result<std::vector<std::string>> List() override { return inner_->List(); }
  Result<std::vector<uint8_t>> Get(const std::string& name) override {
    return inner_->Get(name);
  }
  Status Delete(const std::string& name) override {
    return inner_->Delete(name);
  }
  Status RaiseFence(uint64_t token) override {
    return inner_->RaiseFence(token);
  }
  Result<uint64_t> Fence() override { return inner_->Fence(); }

  /// kOther (no artifact carries it) refuses nothing.
  ArtifactId::Kind refuse = ArtifactId::Kind::kOther;

 private:
  std::unique_ptr<LocalDirTransport> inner_;
};

/// The value of gauge `name`{session=`session`}, or nullopt when no such
/// gauge is registered. Reads through Collect(): GetGauge would pin it.
std::optional<double> SessionGauge(const char* name,
                                   const std::string& session) {
  const telemetry::LabelSet labels = {{"session", session}};
  for (const auto& gauge :
       telemetry::MetricsRegistry::Global().Collect().gauges) {
    if (gauge.name == name && gauge.labels == labels) return gauge.value;
  }
  return std::nullopt;
}

TEST(ReplicaLagTest, LagBytesGaugeIsPerSessionAndGoneAfterStop) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes = FirstFamilyVotes(0x1A6, &num_items);
  std::string primary_root = ScratchDir("lag_primary");

  DqmEngine primary;
  std::vector<std::unique_ptr<SessionReplicator>> replicators;
  std::shared_ptr<RefusingTransport> behind_transport;
  for (const std::string name : {"healthy", "behind"}) {
    auto session = primary.OpenSession(
        name, num_items, std::span<const std::string>(TalliesPanel()),
        DurableOptions(primary_root, 16, 0));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto local = LocalDirTransport::Open(ScratchDir("lag_ship_" + name));
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    std::shared_ptr<ReplicationTransport> transport;
    if (name == "behind") {
      behind_transport =
          std::make_shared<RefusingTransport>(std::move(*local));
      transport = behind_transport;
    } else {
      transport = std::move(*local);
    }
    auto replicator = SessionReplicator::Start(*session, transport);
    ASSERT_TRUE(replicator.ok()) << replicator.status().ToString();
    replicators.push_back(std::move(*replicator));
  }

  behind_transport->refuse = ArtifactId::Kind::kSegment;
  for (const std::string name : {"healthy", "behind"}) {
    IngestRange(primary, name, votes, 0, 64, 16);
  }
  EXPECT_GT(replicators[1]->stats().ship_errors, 0u);
  std::optional<double> behind =
      SessionGauge(telemetry::metric_names::kReplicaLagBytes, "behind");
  std::optional<double> healthy =
      SessionGauge(telemetry::metric_names::kReplicaLagBytes, "healthy");
  ASSERT_TRUE(behind.has_value());
  ASSERT_TRUE(healthy.has_value());
  EXPECT_GT(*behind, 0.0);
  EXPECT_DOUBLE_EQ(*healthy, 0.0);

  for (auto& replicator : replicators) replicator->Stop();
  EXPECT_FALSE(SessionGauge(telemetry::metric_names::kReplicaLagBytes,
                            "behind")
                   .has_value());
  EXPECT_FALSE(SessionGauge(telemetry::metric_names::kReplicaLagBytes,
                            "healthy")
                   .has_value());
}

TEST(ReplicaLagTest, LagBytesCountsANewGenerationWhileItsCheckpointFails) {
  size_t num_items = 0;
  std::vector<VoteEvent> votes = FirstFamilyVotes(0x1A7, &num_items);
  ASSERT_GE(votes.size(), 144u);
  DqmEngine primary;
  auto session = primary.OpenSession(
      "s", num_items, std::span<const std::string>(TalliesPanel()),
      DurableOptions(ScratchDir("lag_gen_primary"), 16, 50));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto local = LocalDirTransport::Open(ScratchDir("lag_gen_ship"));
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  auto transport = std::make_shared<RefusingTransport>(std::move(*local));
  auto replicator = SessionReplicator::Start(*session, transport);
  ASSERT_TRUE(replicator.ok()) << replicator.status().ToString();

  // Checkpoints at 50 and 100 open generations 2 and 3, whose checkpoints
  // cannot ship, so none of their records can either.
  transport->refuse = ArtifactId::Kind::kCheckpoint;
  IngestRange(primary, "s", votes, 0, 128, 16);
  EXPECT_GT((*replicator)->stats().ship_errors, 0u);
  EXPECT_EQ((*replicator)->stats().shipped_generation, 1u);
  std::optional<double> lag =
      SessionGauge(telemetry::metric_names::kReplicaLagBytes, "s");
  ASSERT_TRUE(lag.has_value());
  EXPECT_GT(*lag, 0.0);

  // The next durable batch ships the checkpoint and the segment behind it.
  transport->refuse = ArtifactId::Kind::kOther;
  IngestRange(primary, "s", votes, 128, 144, 16);
  EXPECT_EQ((*replicator)->stats().shipped_votes, 144u);
  lag = SessionGauge(telemetry::metric_names::kReplicaLagBytes, "s");
  ASSERT_TRUE(lag.has_value());
  EXPECT_DOUBLE_EQ(*lag, 0.0);
}

// ---------------------------------------------------------------------------
// A standby serves the primary's configuration or refuses to open.
// ---------------------------------------------------------------------------

TEST(StandbyOpenTest, UnparsableCadenceInTheManifestFailsOpen) {
  auto transport = LocalDirTransport::Open(ScratchDir("bogus_cadence_ship"));
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  SessionManifest manifest;
  manifest.name = "s";
  manifest.num_items = 80;
  manifest.specs = TalliesPanel();
  manifest.cadence = "bogus";
  const std::string content = ManifestContent(manifest);
  ASSERT_TRUE((*transport)
                  ->Put(kManifestArtifact,
                        std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(content.data()),
                            content.size()),
                        manifest.fencing_token)
                  .ok());
  DqmEngine standby_engine;
  auto applier = StandbyApplier::Open(
      standby_engine, std::shared_ptr<ReplicationTransport>(
                          std::move(*transport)));
  ASSERT_FALSE(applier.ok());
  EXPECT_EQ(applier.status().code(), StatusCode::kInvalidArgument)
      << applier.status().ToString();
  EXPECT_FALSE(standby_engine.Query("s").ok());
}

// ---------------------------------------------------------------------------
// Transport faults: torn, gapped, overlapping, short, re-shipped, and
// duplicated segments.
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
  rig.votes = FirstFamilyVotes(0xFAB, &rig.num_items);
  ASSERT_GE(rig.votes.size(), 300u);
  rig.ship_dir = ScratchDir(tag + "_ship");
  std::string primary_root = ScratchDir(tag + "_primary");

  auto session = rig.engine.OpenSession(
      "s", rig.num_items, std::span<const std::string>(TalliesPanel()),
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

/// Flips one byte near the end of `artifact` on disk — a bit-rotted
/// segment whose last record's CRC no longer matches.
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

  // A forged segment that starts at the WAL header, over already applied
  // bytes, and runs past the applied offset (a replayed or reordered
  // write). Its bytes are garbage: the part beyond the applied offset must
  // fail the record scan and never reach the session.
  std::vector<std::string> segments = SegmentsOfMaxGeneration(*rig.transport);
  ASSERT_FALSE(segments.empty());
  ArtifactId last = ParseArtifactName(segments.back());
  const uint64_t applied_end = fs::file_size(fs::path(rig.ship_dir) /
                                             segments.back()) +
                               last.start_offset;
  std::vector<uint8_t> garbage(applied_end - crowd::kWalHeaderBytes + 64);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(0xDE ^ (i * 0x9D));
  }
  ASSERT_TRUE(rig.transport
                  ->Put(SegmentArtifactName(last.generation,
                                            crowd::kWalHeaderBytes, 999999),
                        garbage, 1)
                  .ok());

  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_TRUE((*applier)->divergent());
  EXPECT_EQ((*applier)->applied_votes(), 160u) << "nothing may be applied";
  auto snapshot = standby_engine.Query("s");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->num_votes, 160u);
}

TEST_F(TransportFaultTest, SegmentCutAtARecordBoundaryDivergesThenHeals) {
  PrimaryRig rig;
  StartRig(rig, "cut", 100);
  if (testing::Test::HasFatalFailure()) return;
  // Batches of 5 under a 16-vote group commit: each shipped range holds
  // several records.
  IngestRange(rig.engine, "s", rig.votes, 0, 160, 5);
  ASSERT_TRUE(rig.session->FlushDurability().ok());
  std::vector<std::string> segments = SegmentsOfMaxGeneration(*rig.transport);
  ASSERT_GE(segments.size(), 2u);

  // Cut the last segment after its first record. What is left scans clean;
  // only the vote count in its name shows that it is short.
  auto bytes = rig.transport->Get(segments.back());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_GE(bytes->size(), 8u);
  const uint64_t first_record =
      8 + (uint64_t{(*bytes)[0]} | uint64_t{(*bytes)[1]} << 8 |
           uint64_t{(*bytes)[2]} << 16 | uint64_t{(*bytes)[3]} << 24);
  ASSERT_LT(first_record, bytes->size())
      << "the last segment must hold more than one record";
  fs::resize_file(fs::path(rig.ship_dir) / segments.back(), first_record);
  const uint64_t before_cut =
      ParseArtifactName(segments[segments.size() - 2]).cum_votes;

  DqmEngine standby_engine;
  StandbyApplier::Options standby_options;
  standby_options.durability_dir = ScratchDir("cut_standby");
  auto applier =
      StandbyApplier::Open(standby_engine, rig.transport, standby_options);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  EXPECT_TRUE((*applier)->divergent());
  EXPECT_EQ((*applier)->divergences(), 1u);
  EXPECT_EQ((*applier)->applied_votes(), before_cut)
      << "nothing of the cut segment may be applied";
  ExpectPrefixParity(standby_engine, "s", rig.votes, before_cut,
                     rig.num_items, "after cut segment");

  // The next checkpoint (crossing 200) heals the stream.
  IngestAndFlush(rig, 160, 220);
  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_FALSE((*applier)->divergent());
  EXPECT_GE((*applier)->resyncs(), 1u);
  EXPECT_EQ((*applier)->applied_votes(), 220u);
  ExpectPrefixParity(standby_engine, "s", rig.votes, 220, rig.num_items,
                     "after heal");
}

TEST_F(TransportFaultTest, RangeReshippedWiderAppliesWithoutResync) {
  PrimaryRig rig;
  StartRig(rig, "wider", 0);  // one generation, no checkpoints
  if (testing::Test::HasFatalFailure()) return;
  IngestAndFlush(rig, 0, 80);

  DqmEngine standby_engine;
  auto applier = StandbyApplier::Open(standby_engine, rig.transport);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  ASSERT_EQ((*applier)->applied_votes(), 80u);

  // The next range's Put fails after its rename: the artifact is
  // published, but the primary counts a ship error and ships the same
  // start again, wider, with its next flush.
  ASSERT_TRUE(
      failpoint::Configure("dqm.repl.dirsync=count(1):error(EIO)").ok());
  IngestAndFlush(rig, 80, 96);
  failpoint::DisarmAll();
  EXPECT_EQ(rig.replicator->stats().ship_errors, 1u);
  ASSERT_TRUE((*applier)->Poll().ok());
  ASSERT_EQ((*applier)->applied_votes(), 96u)
      << "the standby applies the published narrow copy";

  IngestAndFlush(rig, 96, 160);
  EXPECT_EQ(SegmentsOfMaxGeneration(*rig.transport).size(),
            rig.replicator->stats().segments_shipped + 1)
      << "the narrow and the wide copy share a start offset";
  ASSERT_TRUE((*applier)->Poll().ok());
  EXPECT_FALSE((*applier)->divergent());
  EXPECT_EQ((*applier)->divergences(), 0u);
  EXPECT_EQ((*applier)->resyncs(), 0u);
  EXPECT_EQ((*applier)->applied_votes(), 160u);
  ExpectPrefixParity(standby_engine, "s", rig.votes, 160, rig.num_items,
                     "after wider re-ship");
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
  const std::vector<std::string> families =
      conformance::ConformanceWorkloadSpecs();
  ASSERT_LT(static_cast<size_t>(family), families.size());
  SCOPED_TRACE(StrFormat("kill=%s, %s", kill.spec, families[family].c_str()));

  conformance::ParityCase c;
  c.name = StrFormat("kill_%s_f%d", kill.tag, family);
  c.workload = families[family];
  c.seed = 0xFA170 + family;
  c.panel = TalliesPanel();
  c.options = DurableOptions(ScratchDir("primary"), 64, 150);
  const conformance::ParityStream stream =
      conformance::MakeParityStream(c.workload, c.seed);
  const std::string ship_dir = ScratchDir("ship");
  // The child records the high-water mark of votes acknowledged as DURABLE
  // (FlushDurability returned, which fsyncs and ships before returning);
  // the no-lost-ack check reads it back in the parent. Group-committed
  // acks without the barrier are explicitly weaker — they may ride in the
  // tail the crash destroys, exactly as on a single node.
  const std::string ack_path = ScratchDir("ack") + "/acked";
  const size_t arm_after = 185;  // past the first checkpoint boundary (150)

  EXPECT_EXIT(
      {
        DqmEngine engine;
        auto session = engine.OpenSession(
            "s", stream.num_items, std::span<const std::string>(c.panel),
            c.options);
        if (!session.ok()) std::_Exit(3);
        auto transport = LocalDirTransport::Open(ship_dir);
        if (!transport.ok()) std::_Exit(3);
        std::shared_ptr<ReplicationTransport> shared = std::move(*transport);
        auto replicator = SessionReplicator::Start(*session, shared);
        if (!replicator.ok()) std::_Exit(4);
        size_t ingested = 0;
        uint64_t acked = 0;
        for (size_t i = 0; i < stream.batches.size(); ++i) {
          if (ingested >= arm_after && !failpoint::AnyArmed()) {
            if (!failpoint::Configure(kill.spec).ok()) std::_Exit(4);
          }
          const std::vector<VoteEvent>& batch = stream.batches[i];
          if (i != stream.rejected) ingested += batch.size();
          if ((*session)->AddVotes(batch).ok() != (i != stream.rejected)) {
            std::_Exit(5);
          }
          if (i == stream.rejected) continue;
          // The durability barrier: when it returns, this batch is fsynced
          // AND its ship hook has run (or the crash fired and we never got
          // here) — the acknowledged durable prefix now covers it.
          if (!(*session)->FlushDurability().ok()) std::_Exit(5);
          acked += batch.size();
          std::ofstream(ack_path, std::ios::trunc) << acked;
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
  standby_options.durability_dir = ScratchDir("standby");
  auto applier =
      StandbyApplier::Open(standby_engine, shared, standby_options);
  ASSERT_TRUE(applier.ok()) << applier.status().ToString();
  auto promoted = (*applier)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();

  // No lost acknowledgement: every batch whose durability barrier returned
  // on the primary was shipped before the barrier returned, so the
  // promoted standby serves at least that prefix.
  EXPECT_GE(promoted->applied_votes, acked)
      << "the promoted standby lost votes acknowledged as durable";
  EXPECT_GE(promoted->fencing_token, 2u);

  // Durable-prefix parity: the standby serves what the reference fed
  // exactly the applied prefix serves. The child acknowledged every batch
  // it reached but the rejected one.
  conformance::ParityRun run;
  run.acked.assign(stream.batches.size(), true);
  run.acked[stream.rejected] = false;
  run.votes = promoted->applied_votes;
  auto served = standby_engine.Query("s");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  run.served = std::move(served).value();
  conformance::ExpectServesReference(c, stream, run);

  // The fence is up: a zombie write with the dead primary's token bounces.
  const std::vector<uint8_t> junk = {0xBA, 0xD0};
  EXPECT_FALSE(
      shared->Put(SegmentArtifactName(99, crowd::kWalHeaderBytes, 1), junk, 1)
          .ok());
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
  std::vector<VoteEvent> votes = FirstFamilyVotes(0x316EA7E, &num_items);
  std::string root_a = ScratchDir("mig_a");
  std::string root_b = ScratchDir("mig_b");

  telemetry::Counter* migrations =
      telemetry::MetricsRegistry::Global().GetCounter(
          telemetry::metric_names::kSessionsMigratedTotal);
  const uint64_t migrations_base = migrations->Value();

  {
    DqmEngine a;
    auto session = a.OpenSession(
        "m", num_items, std::span<const std::string>(TalliesPanel()),
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
    conformance::ExpectSameServedState(TalliesPanel(), before, *after,
                                       "post-migration");
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

TEST(MigrateSessionTest, RefusesUnknownAndOrderSensitiveSessions) {
  DqmEngine a;
  DqmEngine b;
  EXPECT_FALSE(a.MigrateSession("missing", b).ok());

  // SWITCH depends on vote order, which the compacted export drops, so its
  // session cannot move this way.
  const std::vector<std::string> specs = {"switch"};
  auto ordered = a.OpenSession("ordered", 16, specs);
  ASSERT_TRUE(ordered.ok());
  Status status = a.MigrateSession("ordered", b);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_TRUE(a.Query("ordered").ok())
      << "a failed migration must leave the source serving";
  EXPECT_EQ(b.num_sessions(), 0u);
}

}  // namespace
}  // namespace dqm::engine
