#include "engine/replication.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "crowd/io.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace dqm::engine {

namespace {

namespace fs = std::filesystem;
namespace io = crowd::io;

constexpr char kFenceFile[] = "FENCE";

telemetry::Counter& CounterFor(const char* name) {
  return *telemetry::MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

// --- Artifact naming -------------------------------------------------------

std::string CheckpointArtifactName(uint64_t generation) {
  return StrFormat("ckpt_%020llu.bin",
                   static_cast<unsigned long long>(generation));
}

std::string SegmentArtifactName(uint64_t generation, uint64_t seq) {
  return StrFormat("seg_%020llu_%020llu.bin",
                   static_cast<unsigned long long>(generation),
                   static_cast<unsigned long long>(seq));
}

ArtifactId ParseArtifactName(std::string_view name) {
  ArtifactId id;
  if (name == kManifestArtifact) {
    id.kind = ArtifactId::Kind::kManifest;
    return id;
  }
  auto parse_field = [](std::string_view text, uint64_t& out) {
    Result<uint64_t> value = ParseU64(text, "artifact");
    if (!value.ok()) return false;
    out = value.value();
    return true;
  };
  constexpr std::string_view kCkptPrefix = "ckpt_";
  constexpr std::string_view kSegPrefix = "seg_";
  constexpr std::string_view kBinSuffix = ".bin";
  if (!name.ends_with(kBinSuffix)) return id;
  std::string_view stem = name.substr(0, name.size() - kBinSuffix.size());
  if (stem.starts_with(kCkptPrefix)) {
    if (parse_field(stem.substr(kCkptPrefix.size()), id.generation)) {
      id.kind = ArtifactId::Kind::kCheckpoint;
    }
    return id;
  }
  if (stem.starts_with(kSegPrefix)) {
    std::string_view fields = stem.substr(kSegPrefix.size());
    size_t sep = fields.find('_');
    if (sep != std::string_view::npos &&
        parse_field(fields.substr(0, sep), id.generation) &&
        parse_field(fields.substr(sep + 1), id.seq)) {
      id.kind = ArtifactId::Kind::kSegment;
    }
    return id;
  }
  return id;
}

// --- LocalDirTransport -----------------------------------------------------

Result<std::unique_ptr<LocalDirTransport>> LocalDirTransport::Open(
    const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("create transport dir '%s': %s",
                                     dir.c_str(), ec.message().c_str()));
  }
  return std::unique_ptr<LocalDirTransport>(new LocalDirTransport(dir));
}

Status LocalDirTransport::Put(const std::string& name,
                              std::span<const uint8_t> bytes,
                              uint64_t fencing_token) {
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::InvalidArgument(
        StrFormat("bad artifact name '%s'", name.c_str()));
  }
  DQM_ASSIGN_OR_RETURN(uint64_t fence, Fence());
  if (fencing_token < fence) {
    CounterFor(telemetry::metric_names::kReplicaFenceRejectionsTotal)
        .Increment();
    return Status::FailedPrecondition(StrFormat(
        "put '%s' fenced off: token %llu < fence %llu (a newer primary was "
        "promoted)",
        name.c_str(), static_cast<unsigned long long>(fencing_token),
        static_cast<unsigned long long>(fence)));
  }
  return io::AtomicWriteFile(io::fpn::kRepl, dir_ + "/" + name, bytes);
}

Result<std::vector<std::string>> LocalDirTransport::List() {
  std::vector<std::string> names;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) {
    return Status::IOError(StrFormat("list transport dir '%s': %s",
                                     dir_.c_str(), ec.message().c_str()));
  }
  for (const fs::directory_entry& entry : it) {
    std::string name = entry.path().filename().string();
    if (name == kFenceFile) continue;
    if (name.ends_with(io::kTmpSuffix)) continue;  // unpublished
    names.push_back(std::move(name));
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<uint8_t>> LocalDirTransport::Get(const std::string& name) {
  return io::ReadFile(io::fpn::kRepl, dir_ + "/" + name);
}

Status LocalDirTransport::Delete(const std::string& name) {
  std::error_code ec;
  fs::remove(dir_ + "/" + name, ec);  // missing is fine — delete is for GC
  if (ec) {
    return Status::IOError(StrFormat("delete artifact '%s': %s", name.c_str(),
                                     ec.message().c_str()));
  }
  return Status::OK();
}

Status LocalDirTransport::RaiseFence(uint64_t token) {
  DQM_ASSIGN_OR_RETURN(uint64_t current, Fence());
  if (token <= current) return Status::OK();  // monotonic: never lowers
  std::string text = StrFormat("%llu\n", static_cast<unsigned long long>(token));
  return io::AtomicWriteFile(
      io::fpn::kRepl, dir_ + "/" + kFenceFile,
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                               text.size()));
}

Result<uint64_t> LocalDirTransport::Fence() {
  const std::string path = dir_ + "/" + kFenceFile;
  Result<std::vector<uint8_t>> bytes = io::ReadFile(io::fpn::kRepl, path);
  // Only a missing file means "never fenced": a FENCE that exists but
  // cannot be read must not let a zombie primary ship.
  if (bytes.status().code() == StatusCode::kNotFound) return 0;
  if (!bytes.ok()) return bytes.status();
  std::string_view text(reinterpret_cast<const char*>(bytes->data()),
                        bytes->size());
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return ParseU64(text, path);
}

// --- SessionReplicator -----------------------------------------------------

SessionReplicator::SessionReplicator(
    std::shared_ptr<EstimationSession> session,
    std::shared_ptr<ReplicationTransport> transport, uint64_t fencing_token)
    : session_(std::move(session)),
      transport_(std::move(transport)),
      fencing_token_(fencing_token),
      durability_(session_->durability_engine()) {}

Result<std::unique_ptr<SessionReplicator>> SessionReplicator::Start(
    std::shared_ptr<EstimationSession> session,
    std::shared_ptr<ReplicationTransport> transport) {
  if (session == nullptr || transport == nullptr) {
    return Status::InvalidArgument("Start: null session or transport");
  }
  SessionDurability* durability = session->durability_engine();
  if (durability == nullptr) {
    return Status::FailedPrecondition(StrFormat(
        "session '%s' is not durable — replication ships the WAL, so there "
        "must be one",
        session->name().c_str()));
  }
  DQM_ASSIGN_OR_RETURN(
      SessionManifest manifest,
      ReadManifestFile(SessionManifestPath(durability->dir())));

  // A transport already fenced past our token belongs to a newer primary:
  // refuse to start rather than spin on rejected Puts.
  DQM_ASSIGN_OR_RETURN(uint64_t fence, transport->Fence());
  if (fence > manifest.fencing_token) {
    return Status::FailedPrecondition(StrFormat(
        "transport is fenced at %llu, past this session's token %llu — a "
        "standby was promoted; this primary must not ship",
        static_cast<unsigned long long>(fence),
        static_cast<unsigned long long>(manifest.fencing_token)));
  }
  // Claim the fence at our own token so an even older primary bounces.
  DQM_RETURN_NOT_OK(transport->RaiseFence(manifest.fencing_token));
  std::string manifest_text = ManifestContent(manifest);
  DQM_RETURN_NOT_OK(transport->Put(
      kManifestArtifact,
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(manifest_text.data()),
          manifest_text.size()),
      manifest.fencing_token));

  std::unique_ptr<SessionReplicator> replicator(new SessionReplicator(
      std::move(session), std::move(transport), manifest.fencing_token));

  // Initial sync: checkpoint (if any) + the already-durable WAL tail, so a
  // standby attached mid-life starts from the full durable prefix. The
  // durability reads happen before taking mutex_: they acquire the WAL
  // mutex (kWal), which ranks below kReplication and so must never be
  // taken while mutex_ is held. Anything that becomes durable after these
  // reads is covered by the catch-up event below.
  const uint64_t wal_generation = durability->WalGeneration();
  const uint64_t durable_wal_size = durability->DurableWalSize();
  {
    MutexLock lock(replicator->mutex_);
    DQM_ASSIGN_OR_RETURN(
        replicator->wal_fd_,
        io::Open(io::fpn::kRepl.open, durability->wal_path(),
                 O_RDONLY | O_CLOEXEC));
    replicator->shipped_generation_ = wal_generation;
    replicator->shipped_offset_ = crowd::kWalHeaderBytes;
    Result<std::vector<uint8_t>> ckpt_or =
        io::ReadFile(io::fpn::kRepl, durability->checkpoint_path());
    if (!ckpt_or.ok() && ckpt_or.status().code() != StatusCode::kNotFound) {
      return ckpt_or.status();
    }
    if (ckpt_or.ok()) {
      const std::vector<uint8_t>& ckpt = *ckpt_or;
      DQM_ASSIGN_OR_RETURN(
          crowd::CheckpointData data,
          crowd::DecodeCheckpoint(std::span<const uint8_t>(ckpt),
                                  durability->checkpoint_path()));
      DQM_RETURN_NOT_OK(replicator->transport_->Put(
          CheckpointArtifactName(data.wal_generation),
          std::span<const uint8_t>(ckpt), replicator->fencing_token_));
      replicator->stats_.checkpoints_shipped++;
      CounterFor(telemetry::metric_names::kReplicaCheckpointsShippedTotal)
          .Increment();
      replicator->shipped_votes_ = data.num_events;
      replicator->shipped_generation_ =
          std::max(replicator->shipped_generation_, data.wal_generation);
    }
    if (replicator->shipped_generation_ == wal_generation) {
      DQM_RETURN_NOT_OK(replicator->ShipSegmentLocked(
          replicator->shipped_generation_, durable_wal_size));
    }
    replicator->stats_.shipped_generation = replicator->shipped_generation_;
    replicator->stats_.shipped_votes = replicator->shipped_votes_;
  }

  // From here every acknowledged fsync / checkpoint ships synchronously.
  SessionReplicator* raw = replicator.get();
  durability->SetShipHook(
      [raw](const SessionDurability::ShipEvent& event) {
        raw->OnShipEvent(event);
      });
  // Cover anything that became durable between the initial sync and the
  // hook install (the ship path is offset-based, so replays are no-ops).
  SessionDurability::ShipEvent catch_up;
  catch_up.kind = SessionDurability::ShipEvent::Kind::kWalDurable;
  catch_up.generation = durability->WalGeneration();
  catch_up.durable_size = durability->DurableWalSize();
  raw->OnShipEvent(catch_up);
  return replicator;
}

SessionReplicator::~SessionReplicator() { Stop(); }

void SessionReplicator::Stop() {
  // SetShipHook serializes with in-flight hook invocations (WAL mutex), so
  // after it returns no OnShipEvent is running. Take our own mutex only
  // afterwards — kReplication ranks above kWal and must not be held across
  // the uninstall.
  durability_->SetShipHook(nullptr);
  MutexLock lock(mutex_);
  if (stopped_) return;
  stopped_ = true;
  if (wal_fd_ >= 0) {
    ::close(wal_fd_);
    wal_fd_ = -1;
  }
}

ReplicationStats SessionReplicator::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void SessionReplicator::OnShipEvent(const SessionDurability::ShipEvent& event) {
  MutexLock lock(mutex_);
  if (stopped_) return;
  Status status = ShipCheckpointLocked(event.generation);
  if (status.ok() && event.generation == shipped_generation_) {
    status = ShipSegmentLocked(event.generation, event.durable_size);
  }
  if (!status.ok()) {
    stats_.ship_errors++;
    CounterFor(telemetry::metric_names::kReplicaShipErrorsTotal).Increment();
    DQM_LOG(Warning) << "replication ship for session '" << session_->name()
                     << "' fell behind (will catch up with the next "
                        "durability event): "
                     << status.message();
  }
  stats_.shipped_generation = shipped_generation_;
  stats_.shipped_votes = shipped_votes_;
  // Unshipped durable bytes — 0 the moment shipping caught up.
  static telemetry::Gauge* lag_bytes = telemetry::MetricsRegistry::Global()
      .GetGauge(telemetry::metric_names::kReplicaLagBytes);
  lag_bytes->Set(event.generation == shipped_generation_ &&
                         event.durable_size > shipped_offset_
                     ? static_cast<double>(event.durable_size - shipped_offset_)
                     : 0.0);
}

Status SessionReplicator::ShipCheckpointLocked(uint64_t generation) {
  if (generation == shipped_generation_) return Status::OK();
  // A checkpoint rename-committed before the WAL reset that bumped the
  // generation, so the file we read is at least `generation`.
  DQM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> ckpt,
      io::ReadFile(io::fpn::kRepl, durability_->checkpoint_path()));
  DQM_ASSIGN_OR_RETURN(
      crowd::CheckpointData data,
      crowd::DecodeCheckpoint(std::span<const uint8_t>(ckpt),
                              durability_->checkpoint_path()));
  if (data.wal_generation < generation) {
    return Status::Internal(StrFormat(
        "checkpoint file carries generation %llu but the WAL advanced to "
        "%llu",
        static_cast<unsigned long long>(data.wal_generation),
        static_cast<unsigned long long>(generation)));
  }
  DQM_RETURN_NOT_OK(transport_->Put(CheckpointArtifactName(data.wal_generation),
                                    std::span<const uint8_t>(ckpt),
                                    fencing_token_));
  shipped_generation_ = data.wal_generation;
  shipped_offset_ = crowd::kWalHeaderBytes;
  next_seq_ = 1;
  shipped_votes_ = data.num_events;
  stats_.checkpoints_shipped++;
  CounterFor(telemetry::metric_names::kReplicaCheckpointsShippedTotal)
      .Increment();
  GarbageCollectLocked();
  return Status::OK();
}

Status SessionReplicator::ShipSegmentLocked(uint64_t generation,
                                            uint64_t durable_size) {
  if (durable_size <= shipped_offset_) return Status::OK();  // nothing new
  crowd::WalSegment segment;
  segment.generation = generation;
  segment.seq = next_seq_;
  segment.start_offset = shipped_offset_;
  segment.fencing_token = fencing_token_;
  segment.payload.resize(durable_size - shipped_offset_);
  DQM_RETURN_NOT_OK(io::ReadExactAt(io::fpn::kRepl.read, wal_fd_,
                                    segment.payload.data(),
                                    segment.payload.size(), shipped_offset_,
                                    durability_->wal_path()));
  // A segment must scan clean end to end before it ships: the bytes below
  // durable_size are fsync-acknowledged, so anything else is local
  // corruption — better caught here than replicated.
  DQM_ASSIGN_OR_RETURN(
      crowd::WalScanResult scan,
      crowd::ScanWalRecords(
          std::span<const uint8_t>(segment.payload), session_->num_items(),
          [](std::span<const crowd::VoteEvent>) { return Status::OK(); },
          scan_scratch_));
  if (scan.torn || scan.clean_end != segment.payload.size()) {
    return Status::Internal(StrFormat(
        "durable WAL range [%llu, %llu) of '%s' does not scan clean — "
        "refusing to ship it",
        static_cast<unsigned long long>(shipped_offset_),
        static_cast<unsigned long long>(durable_size),
        durability_->wal_path().c_str()));
  }
  segment.cum_votes = shipped_votes_ + scan.votes;
  std::vector<uint8_t> encoded;
  crowd::EncodeWalSegment(segment, encoded);
  DQM_RETURN_NOT_OK(transport_->Put(SegmentArtifactName(generation, next_seq_),
                                    std::span<const uint8_t>(encoded),
                                    fencing_token_));
  shipped_offset_ = durable_size;
  shipped_votes_ = segment.cum_votes;
  next_seq_++;
  stats_.segments_shipped++;
  CounterFor(telemetry::metric_names::kReplicaSegmentsShippedTotal)
      .Increment();
  return Status::OK();
}

void SessionReplicator::GarbageCollectLocked() {
  Result<std::vector<std::string>> names = transport_->List();
  if (!names.ok()) return;  // best effort
  for (const std::string& name : names.value()) {
    ArtifactId id = ParseArtifactName(name);
    bool stale = (id.kind == ArtifactId::Kind::kCheckpoint ||
                  id.kind == ArtifactId::Kind::kSegment) &&
                 id.generation < shipped_generation_;
    if (stale) (void)transport_->Delete(name);
  }
}

// --- StandbyApplier --------------------------------------------------------

StandbyApplier::StandbyApplier(DqmEngine& engine,
                               std::shared_ptr<ReplicationTransport> transport,
                               Options options, SessionManifest manifest)
    : engine_(engine),
      transport_(std::move(transport)),
      options_(std::move(options)),
      manifest_(std::move(manifest)) {
  telemetry::MetricsRegistry::Global().AcquireGauge(
      telemetry::metric_names::kReplicaLagVotes,
      {{"session", manifest_.name}});
}

StandbyApplier::~StandbyApplier() {
  telemetry::MetricsRegistry::Global().ReleaseGauge(
      telemetry::metric_names::kReplicaLagVotes,
      {{"session", manifest_.name}});
}

Result<std::unique_ptr<StandbyApplier>> StandbyApplier::Open(
    DqmEngine& engine, std::shared_ptr<ReplicationTransport> transport,
    const Options& options) {
  if (transport == nullptr) {
    return Status::InvalidArgument("Open: null transport");
  }
  DQM_ASSIGN_OR_RETURN(std::vector<uint8_t> manifest_bytes,
                       transport->Get(kManifestArtifact));
  DQM_ASSIGN_OR_RETURN(
      SessionManifest manifest,
      ParseManifestContent(
          std::string_view(reinterpret_cast<const char*>(manifest_bytes.data()),
                           manifest_bytes.size()),
          "manifest artifact"));
  if (manifest.specs.empty()) {
    return Status::FailedPrecondition(StrFormat(
        "manifest for '%s' records no estimator specs — only spec-configured "
        "sessions can be rebuilt on a standby",
        manifest.name.c_str()));
  }
  std::unique_ptr<StandbyApplier> applier(new StandbyApplier(
      engine, std::move(transport), options, std::move(manifest)));
  // First Poll opens the warm session (from the best shipped checkpoint or
  // from scratch) and applies everything already shipped.
  DQM_RETURN_NOT_OK(applier->Poll());
  return applier;
}

SessionOptions StandbyApplier::BuildSessionOptions() const {
  SessionOptions options;
  Result<SessionOptions> parsed = ParsePublishCadenceSpec(manifest_.cadence);
  if (parsed.ok()) options = parsed.value();
  options.publish_every_votes = manifest_.publish_every_votes;
  // Pin the primary's RESOLVED stripe layout (0 = serialized path → 1;
  // 0 in SessionOptions would re-run auto-resolution on this machine).
  options.ingest_stripes =
      manifest_.ingest_stripes == 0 ? 1 : manifest_.ingest_stripes;
  options.durability_dir = options_.durability_dir;
  options.wal_group_commit_votes = manifest_.wal_group_commit_votes;
  options.wal_group_commit_ms = manifest_.wal_group_commit_ms;
  options.checkpoint_every_votes = manifest_.checkpoint_every_votes;
  options.durability_failure_policy = manifest_.failure_policy;
  return options;
}

Status StandbyApplier::ResyncFromCheckpoint(uint64_t generation,
                                            std::span<const uint8_t> ckpt) {
  const bool rebuilding = session_ != nullptr;
  if (rebuilding) {
    (void)engine_.CloseSession(manifest_.name);
    session_.reset();
  }
  if (!options_.durability_dir.empty()) {
    // Standby state is entirely derived from the transport, so the local
    // session directory is disposable — wipe it rather than trip
    // OpenSession's already-holds-state guard.
    std::error_code ec;
    fs::remove_all(
        options_.durability_dir + "/" + PercentEncode(manifest_.name), ec);
  }
  DQM_ASSIGN_OR_RETURN(
      std::shared_ptr<EstimationSession> session,
      engine_.OpenSession(
          manifest_.name, manifest_.num_items,
          std::span<const std::string>(manifest_.specs),
          BuildSessionOptions()));
  session_ = std::move(session);
  applied_votes_ = 0;
  if (!ckpt.empty()) {
    DQM_ASSIGN_OR_RETURN(
        crowd::CheckpointData data,
        crowd::DecodeCheckpoint(ckpt, CheckpointArtifactName(generation)));
    DQM_RETURN_NOT_OK(crowd::EmitCheckpointVotes(
        data, [this](std::span<const crowd::VoteEvent> votes) {
          return session_->AddVotes(votes);
        }));
    if (session_->committed_votes() != data.num_events) {
      return Status::Internal(StrFormat(
          "checkpoint restore on standby '%s' committed %llu votes, "
          "checkpoint says %llu",
          manifest_.name.c_str(),
          static_cast<unsigned long long>(session_->committed_votes()),
          static_cast<unsigned long long>(data.num_events)));
    }
    applied_votes_ = data.num_events;
    generation = data.wal_generation;
  }
  applied_generation_ = generation;
  next_seq_ = 1;
  expected_offset_ = crowd::kWalHeaderBytes;
  divergent_ = false;
  opened_ = true;
  if (rebuilding) {
    resyncs_++;
    CounterFor(telemetry::metric_names::kReplicaResyncsTotal).Increment();
  }
  session_->Publish();
  return Status::OK();
}

void StandbyApplier::NoteDivergence(const std::string& why) {
  if (divergent_) return;
  divergent_ = true;
  divergences_++;
  CounterFor(telemetry::metric_names::kReplicaDivergencesTotal).Increment();
  DQM_LOG(Warning) << "standby '" << manifest_.name
                   << "' diverged from the shipped stream (" << why
                   << ") — holding applies until a checkpoint resync";
}

Status StandbyApplier::ApplySegment(const crowd::WalSegment& segment) {
  if (segment.generation != applied_generation_) {
    NoteDivergence(StrFormat(
        "segment content says generation %llu, expected %llu",
        static_cast<unsigned long long>(segment.generation),
        static_cast<unsigned long long>(applied_generation_)));
    return Status::OK();
  }
  if (segment.seq != next_seq_) {
    NoteDivergence(StrFormat("segment seq %llu, expected %llu",
                             static_cast<unsigned long long>(segment.seq),
                             static_cast<unsigned long long>(next_seq_)));
    return Status::OK();
  }
  if (segment.start_offset != expected_offset_) {
    NoteDivergence(StrFormat(
        "segment starts at WAL offset %llu, expected %llu (overlap or gap)",
        static_cast<unsigned long long>(segment.start_offset),
        static_cast<unsigned long long>(expected_offset_)));
    return Status::OK();
  }
  // Validate end to end BEFORE applying a single vote: a shipped segment is
  // applied whole or not at all — a torn tail means a torn artifact, never
  // a silently shortened one.
  DQM_ASSIGN_OR_RETURN(
      crowd::WalScanResult precheck,
      crowd::ScanWalRecords(
          std::span<const uint8_t>(segment.payload), manifest_.num_items,
          [](std::span<const crowd::VoteEvent>) { return Status::OK(); },
          scan_scratch_));
  if (precheck.torn || precheck.clean_end != segment.payload.size()) {
    NoteDivergence(StrFormat(
        "segment %llu payload is torn after %llu clean bytes of %llu",
        static_cast<unsigned long long>(segment.seq),
        static_cast<unsigned long long>(precheck.clean_end),
        static_cast<unsigned long long>(segment.payload.size())));
    return Status::OK();
  }
  if (applied_votes_ + precheck.votes != segment.cum_votes) {
    NoteDivergence(StrFormat(
        "segment %llu claims cumulative %llu votes, replica computes %llu",
        static_cast<unsigned long long>(segment.seq),
        static_cast<unsigned long long>(segment.cum_votes),
        static_cast<unsigned long long>(applied_votes_ + precheck.votes)));
    return Status::OK();
  }
  DQM_ASSIGN_OR_RETURN(
      crowd::WalScanResult applied,
      crowd::ScanWalRecords(
          std::span<const uint8_t>(segment.payload), manifest_.num_items,
          [this](std::span<const crowd::VoteEvent> votes) {
            return session_->AddVotes(votes);
          },
          scan_scratch_));
  (void)applied;
  applied_votes_ = segment.cum_votes;
  expected_offset_ = segment.start_offset + segment.payload.size();
  next_seq_++;
  max_token_seen_ = std::max(max_token_seen_, segment.fencing_token);
  CounterFor(telemetry::metric_names::kReplicaSegmentsAppliedTotal)
      .Increment();
  return Status::OK();
}

Status StandbyApplier::Poll() {
  if (promoted_) {
    return Status::FailedPrecondition(StrFormat(
        "standby '%s' was promoted — it is a primary now, stop polling",
        manifest_.name.c_str()));
  }
  DQM_ASSIGN_OR_RETURN(std::vector<std::string> names, transport_->List());
  uint64_t best_ckpt = 0;
  struct SegmentRef {
    uint64_t generation;
    uint64_t seq;
    const std::string* name;
  };
  std::vector<SegmentRef> segments;
  for (const std::string& name : names) {
    ArtifactId id = ParseArtifactName(name);
    if (id.kind == ArtifactId::Kind::kCheckpoint) {
      best_ckpt = std::max(best_ckpt, id.generation);
    } else if (id.kind == ArtifactId::Kind::kSegment) {
      segments.push_back({id.generation, id.seq, &name});
    }
  }
  // (Re)build the warm session whenever a newer checkpoint appeared, on
  // first poll, or to heal a divergence (replaying the full shipped stream
  // from the best checkpoint is the recovery path — identical to how a
  // fresh standby would come up).
  if (!opened_ || divergent_ || best_ckpt > applied_generation_) {
    if (best_ckpt > 0) {
      DQM_ASSIGN_OR_RETURN(std::vector<uint8_t> ckpt,
                           transport_->Get(CheckpointArtifactName(best_ckpt)));
      DQM_RETURN_NOT_OK(
          ResyncFromCheckpoint(best_ckpt, std::span<const uint8_t>(ckpt)));
    } else {
      // No checkpoint shipped yet: the stream starts at generation 1 with
      // an empty session.
      DQM_RETURN_NOT_OK(ResyncFromCheckpoint(1, {}));
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentRef& a, const SegmentRef& b) {
              return a.generation != b.generation ? a.generation < b.generation
                                                  : a.seq < b.seq;
            });
  uint64_t votes_before = applied_votes_;
  for (const SegmentRef& ref : segments) {
    if (divergent_) break;
    if (ref.generation < applied_generation_) continue;  // pre-GC leftovers
    if (ref.generation > applied_generation_) {
      // Segments from a generation whose checkpoint has not arrived yet —
      // nothing to anchor them to; wait for the checkpoint.
      break;
    }
    if (ref.seq < next_seq_) continue;  // duplicate delivery — idempotent
    if (ref.seq > next_seq_) {
      NoteDivergence(StrFormat("gap: next shipped segment is %llu, expected "
                               "%llu",
                               static_cast<unsigned long long>(ref.seq),
                               static_cast<unsigned long long>(next_seq_)));
      break;
    }
    DQM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, transport_->Get(*ref.name));
    Result<crowd::WalSegment> segment =
        crowd::DecodeWalSegment(std::span<const uint8_t>(bytes), *ref.name);
    if (!segment.ok()) {
      // Torn or corrupt artifact — divergence, not a hard error: the
      // primary (or a re-ship) can still heal it.
      NoteDivergence(segment.status().message());
      break;
    }
    max_cum_votes_seen_ =
        std::max(max_cum_votes_seen_, segment.value().cum_votes);
    DQM_RETURN_NOT_OK(ApplySegment(segment.value()));
  }
  max_cum_votes_seen_ = std::max(max_cum_votes_seen_, applied_votes_);
  telemetry::MetricsRegistry::Global()
      .AcquireGauge(telemetry::metric_names::kReplicaLagVotes,
                    {{"session", manifest_.name}})
      ->Set(static_cast<double>(max_cum_votes_seen_ - applied_votes_));
  telemetry::MetricsRegistry::Global().ReleaseGauge(
      telemetry::metric_names::kReplicaLagVotes, {{"session", manifest_.name}});
  if (applied_votes_ != votes_before) session_->Publish();
  return Status::OK();
}

Result<StandbyApplier::PromotionReport> StandbyApplier::Promote() {
  if (promoted_) {
    return Status::FailedPrecondition(
        StrFormat("standby '%s' is already promoted", manifest_.name.c_str()));
  }
  // Final drain: everything the transport holds right now is part of the
  // durable prefix we take over. A divergence here is fine — we promote the
  // longest clean prefix, which is exactly the durable-prefix guarantee.
  DQM_RETURN_NOT_OK(Poll());
  DQM_ASSIGN_OR_RETURN(uint64_t fence, transport_->Fence());
  uint64_t new_token =
      std::max({fence, max_token_seen_, manifest_.fencing_token}) + 1;
  DQM_RETURN_NOT_OK(transport_->RaiseFence(new_token));
  if (SessionDurability* durability = session_->durability_engine()) {
    // Persist the new epoch: if this promoted primary later replicates (or
    // is itself recovered), it ships with a token that outranks the old
    // primary's forever.
    const std::string path = SessionManifestPath(durability->dir());
    DQM_ASSIGN_OR_RETURN(SessionManifest manifest, ReadManifestFile(path));
    manifest.fencing_token = new_token;
    DQM_RETURN_NOT_OK(WriteManifestFile(path, manifest));
  }
  manifest_.fencing_token = new_token;
  promoted_ = true;
  CounterFor(telemetry::metric_names::kReplicaPromotionsTotal).Increment();
  session_->Publish();
  DQM_LOG(Info) << "standby '" << manifest_.name
                << "' promoted: fencing token " << new_token << ", "
                << applied_votes_ << " votes applied at generation "
                << applied_generation_;
  PromotionReport report;
  report.fencing_token = new_token;
  report.applied_votes = applied_votes_;
  report.generation = applied_generation_;
  return report;
}

}  // namespace dqm::engine
