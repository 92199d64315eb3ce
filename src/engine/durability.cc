#include "engine/durability.h"

#include <sys/stat.h>

#include <chrono>
#include <filesystem>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "crowd/io.h"
#include "telemetry/metric_names.h"

namespace dqm::engine {

namespace {

namespace io = ::dqm::crowd::io;

constexpr char kManifestFile[] = "MANIFEST";
constexpr char kWalFile[] = "wal.log";
constexpr char kCheckpointFile[] = "checkpoint.bin";

/// Durability-wide metrics, resolved once (the function-local-static
/// pattern every hot path in the repo uses).
struct DurabilityMetrics {
  telemetry::Counter* appends;
  telemetry::Counter* votes;
  telemetry::Counter* bytes;
  telemetry::Counter* fsyncs;
  telemetry::Counter* replayed;
  telemetry::Counter* torn;
  telemetry::Counter* seals;
  telemetry::Counter* dropped;
  telemetry::Counter* checkpoints;
  telemetry::Counter* degraded_votes;
  telemetry::Counter* degraded_rearms;
  telemetry::Gauge* sessions_degraded;
  telemetry::Histogram* fsync_ns;
  telemetry::Histogram* checkpoint_ns;

  DurabilityMetrics() {
    namespace names = telemetry::metric_names;
    auto& registry = telemetry::MetricsRegistry::Global();
    appends = registry.GetCounter(names::kWalAppendsTotal);
    votes = registry.GetCounter(names::kWalVotesTotal);
    bytes = registry.GetCounter(names::kWalBytesWrittenTotal);
    fsyncs = registry.GetCounter(names::kWalFsyncsTotal);
    replayed = registry.GetCounter(names::kWalReplayedVotesTotal);
    torn = registry.GetCounter(names::kWalTornRecordsTotal);
    seals = registry.GetCounter(names::kWalSealsTotal);
    dropped = registry.GetCounter(names::kWalDroppedVotesTotal);
    checkpoints = registry.GetCounter(names::kCheckpointsTotal);
    degraded_votes = registry.GetCounter(names::kDegradedVotesTotal);
    degraded_rearms = registry.GetCounter(names::kDegradedRearmsTotal);
    sessions_degraded = registry.GetGauge(names::kSessionsDegraded);
    fsync_ns = registry.GetHistogram(names::kWalFsyncNs);
    checkpoint_ns = registry.GetHistogram(names::kCheckpointWriteNs);
  }
};

DurabilityMetrics& Metrics() {
  static DurabilityMetrics* metrics = new DurabilityMetrics();
  return *metrics;
}

bool IsUnreservedChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
         c == '~';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string PercentEncode(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (IsUnreservedChar(c)) {
      out.push_back(c);
    } else {
      unsigned char b = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[b >> 4]);
      out.push_back(kHex[b & 0xF]);
    }
  }
  return out;
}

Result<std::string> PercentDecode(std::string_view encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    char c = encoded[i];
    if (c != '%') {
      out.push_back(c);
      continue;
    }
    if (i + 2 >= encoded.size()) {
      return Status::InvalidArgument(StrFormat(
          "truncated percent escape in '%.*s'",
          static_cast<int>(encoded.size()), encoded.data()));
    }
    int hi = HexValue(encoded[i + 1]);
    int lo = HexValue(encoded[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument(StrFormat(
          "bad percent escape in '%.*s'", static_cast<int>(encoded.size()),
          encoded.data()));
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

std::string ManifestContent(const SessionManifest& m) {
  const SessionOptions& o = m.options;
  std::vector<std::string> encoded_specs;
  encoded_specs.reserve(m.specs.size());
  for (const std::string& spec : m.specs) {
    encoded_specs.push_back(PercentEncode(spec));
  }
  // The cadence in its ParsePublishCadenceSpec spelling.
  std::string cadence = "every_batch";
  if (o.cadence == PublishCadence::kManual) cadence = "manual";
  if (o.cadence == PublishCadence::kEveryNVotes) {
    cadence = StrFormat("every_n_votes:%llu", static_cast<unsigned long long>(
                                                  o.publish_every_votes));
  }
  return StrFormat(
      "name=%s\n"
      "num_items=%llu\n"
      "specs=%s\n"
      "cadence=%s\n"
      "ingest_stripes=%llu\n"
      "publish_every_votes=%llu\n"
      "wal_group_commit_votes=%llu\n"
      "wal_group_commit_ms=%llu\n"
      "checkpoint_every_votes=%llu\n"
      "durability_failure_policy=%s\n"
      "fencing_token=%llu\n",
      PercentEncode(m.name).c_str(),
      static_cast<unsigned long long>(m.num_items),
      Join(encoded_specs, ",").c_str(), cadence.c_str(),
      static_cast<unsigned long long>(o.ingest_stripes),
      static_cast<unsigned long long>(o.publish_every_votes),
      static_cast<unsigned long long>(o.wal_group_commit_votes),
      static_cast<unsigned long long>(o.wal_group_commit_ms),
      static_cast<unsigned long long>(o.checkpoint_every_votes),
      DurabilityFailurePolicyName(o.durability_failure_policy),
      static_cast<unsigned long long>(m.fencing_token));
}

Status WriteManifestFile(const std::string& path, const SessionManifest& m) {
  const std::string content = ManifestContent(m);
  return io::AtomicWriteFile(
      io::fpn::kManifest, path,
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(content.data()), content.size()));
}

Result<SessionManifest> ParseManifestContent(std::string_view content,
                                             const std::string& context) {
  SessionManifest m;
  // Earlier builds recorded the serialized path as 0 (and the oldest
  // manifests have no ingest_stripes key at all); both resolve to 1.
  uint64_t stripes = 1;
  const std::pair<std::string_view, uint64_t*> numeric_keys[] = {
      {"num_items", &m.num_items},
      {"ingest_stripes", &stripes},
      {"publish_every_votes", &m.options.publish_every_votes},
      {"wal_group_commit_votes", &m.options.wal_group_commit_votes},
      {"wal_group_commit_ms", &m.options.wal_group_commit_ms},
      {"checkpoint_every_votes", &m.options.checkpoint_every_votes},
      {"fencing_token", &m.fencing_token},
  };
  bool saw_name = false;
  bool saw_items = false;
  for (std::string_view line : Split(content, '\n')) {
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(StrFormat(
          "%s: malformed manifest line '%.*s'", context.c_str(),
          static_cast<int>(line.size()), line.data()));
    }
    std::string_view key = line.substr(0, eq);
    std::string_view value = line.substr(eq + 1);
    if (key == "name") {
      DQM_ASSIGN_OR_RETURN(m.name, PercentDecode(value));
      saw_name = true;
    } else if (key == "specs") {
      m.specs.clear();
      if (!value.empty()) {
        for (std::string_view spec : Split(value, ',')) {
          DQM_ASSIGN_OR_RETURN(std::string decoded, PercentDecode(spec));
          m.specs.push_back(std::move(decoded));
        }
      }
    } else if (key == "cadence") {
      DQM_ASSIGN_OR_RETURN(m.options,
                           ParsePublishCadenceSpec(value, m.options));
    } else if (key == "durability_failure_policy") {
      DQM_ASSIGN_OR_RETURN(m.options.durability_failure_policy,
                           ParseDurabilityFailurePolicy(value));
    }
    for (const auto& [numeric_key, field] : numeric_keys) {
      if (key != numeric_key) continue;
      DQM_ASSIGN_OR_RETURN(
          *field, ParseU64(value, "manifest key " + std::string(key)));
      saw_items |= field == &m.num_items;
    }
    // Unknown keys are skipped: a manifest written by a newer build stays
    // recoverable by this one.
  }
  if (!saw_name || !saw_items) {
    return Status::InvalidArgument(StrFormat(
        "%s: manifest is missing required keys (name, num_items)",
        context.c_str()));
  }
  m.options.ingest_stripes = std::max<uint64_t>(stripes, 1);
  return m;
}

Result<SessionManifest> ReadManifestFile(const std::string& path) {
  DQM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       io::ReadFile(io::fpn::kManifest, path));
  return ParseManifestContent(
      std::string_view(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size()),
      path);
}

std::string SessionManifestPath(const std::string& session_dir) {
  return session_dir + "/" + kManifestFile;
}

// --- SessionDurability -----------------------------------------------------

SessionDurability::SessionDurability(const std::string& dir,
                                     const SessionManifest& manifest)
    : dir_(dir), name_(manifest.name), options_(manifest.options) {}

std::string SessionDurability::wal_path() const {
  return dir_ + "/" + kWalFile;
}

std::string SessionDurability::checkpoint_path() const {
  return dir_ + "/" + kCheckpointFile;
}

Result<std::unique_ptr<SessionDurability>> SessionDurability::Create(
    const std::string& dir, const SessionManifest& manifest) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::exists(dir, ec)) {
    if (!fs::is_empty(dir, ec)) {
      return Status::FailedPrecondition(StrFormat(
          "durability dir '%s' already holds session state; recover it via "
          "RecoverSessions instead of opening fresh",
          dir.c_str()));
    }
  } else {
    // Record the directories create_directories is about to make (deepest
    // first) so each new dirent can be fsynced into its parent below —
    // otherwise the session directory itself can vanish at power loss even
    // though every vote record inside it was fsync'd.
    std::vector<std::string> created;
    for (fs::path p(dir); !p.empty() && !fs::exists(p, ec);
         p = p.parent_path()) {
      created.push_back(p.string());
    }
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::IOError(
          StrFormat("mkdir '%s': %s", dir.c_str(), ec.message().c_str()));
    }
    for (auto it = created.rbegin(); it != created.rend(); ++it) {
      DQM_RETURN_NOT_OK(
          io::FsyncParentDir(io::fpn::kManifest.dirsync, *it));
    }
  }
  // Manifest before WAL: a directory with a manifest is recoverable; one
  // without (a crash inside Create) is skipped by RecoverSessions with a
  // warning instead of surfacing a half-created session.
  DQM_RETURN_NOT_OK(WriteManifestFile(SessionManifestPath(dir), manifest));
  return Open(dir, manifest);
}

Result<std::unique_ptr<SessionDurability>> SessionDurability::Attach(
    const std::string& dir, const SessionManifest& manifest) {
  struct stat st;
  if (::stat(SessionManifestPath(dir).c_str(), &st) != 0) {
    return Status::NotFound(
        StrFormat("'%s' is not a session durability dir (no %s)", dir.c_str(),
                  kManifestFile));
  }
  return Open(dir, manifest);
}

Result<std::unique_ptr<SessionDurability>> SessionDurability::Open(
    const std::string& dir, const SessionManifest& manifest) {
  std::unique_ptr<SessionDurability> durability(
      new SessionDurability(dir, manifest));
  DQM_ASSIGN_OR_RETURN(crowd::VoteWal wal,
                       crowd::VoteWal::Open(durability->wal_path()));
  {
    MutexLock lock(durability->wal_mutex_);
    durability->wal_ = std::move(wal);
  }
  // A fresh wal.log (just created, or recreated after a crash between the
  // manifest commit and the WAL's creation) is a new dirent the manifest's
  // atomic write did not sync; it needs its own fsync to survive power
  // loss.
  DQM_RETURN_NOT_OK(io::FsyncParentDir(io::fpn::kManifest.dirsync,
                                       durability->wal_path()));
  durability->checkpoint_bytes_gauge_ =
      telemetry::MetricsRegistry::Global().AcquireGauge(
          telemetry::metric_names::kCheckpointBytes,
          {{"session", durability->name_}});
  if (durability->options_.wal_group_commit_ms > 0) {
    durability->flusher_ =
        std::thread([raw = durability.get()] { raw->FlusherLoop(); });
  }
  return durability;
}

SessionDurability::~SessionDurability() {
  if (flusher_.joinable()) {
    {
      MutexLock lock(wal_mutex_);
      stop_flusher_ = true;
    }
    flusher_cv_.NotifyAll();
    flusher_.join();
  }
  {
    MutexLock lock(wal_mutex_);
    if (wal_.is_open() &&
        (wal_.buffered_bytes() > 0 || pending_votes_ > 0)) {
      Status status = FlushLocked();
      if (!status.ok()) {
        DQM_LOG(Error) << "WAL close flush failed: " << status.message();
      }
    }
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    // The gauge counts LIVE degraded sessions; this one is going away.
    Metrics().sessions_degraded->Add(-1.0);
  }
  if (checkpoint_bytes_gauge_ != nullptr) {
    telemetry::MetricsRegistry::Global().ReleaseGauge(
        telemetry::metric_names::kCheckpointBytes,
        {{"session", name_}});
  }
}

void SessionDurability::FlusherLoop() {
  MutexLock lock(wal_mutex_);
  while (!stop_flusher_) {
    flusher_cv_.WaitFor(
        wal_mutex_, std::chrono::milliseconds(options_.wal_group_commit_ms));
    if (stop_flusher_) break;
    // The flusher's own kill/skip point: error and return actions drop
    // this wake (the next one retries); delay stalls the flusher with the
    // WAL lock held, modeling a slow device backing up the appenders.
    if (auto injected = failpoint::Eval(fpn::kFlusherWake);
        injected.op != failpoint::EvalResult::Op::kNone) {
      continue;
    }
    if (pending_votes_ > 0 || wal_.buffered_bytes() > 0) {
      Status status = FlushLocked();
      if (!status.ok()) {
        DQM_LOG(Error) << "timed WAL flush for '" << wal_.path()
                       << "' failed: " << status.message();
      }
    }
  }
}

void SessionDurability::SetShipHook(
    std::function<void(const ShipEvent&)> hook) {
  MutexLock lock(wal_mutex_);
  ship_hook_ = std::move(hook);
}

Status SessionDurability::FlushLocked() {
  DurabilityMetrics& tm = Metrics();
  const uint64_t before = wal_.bytes_written();
  const bool was_sealed = wal_.sealed();
  const bool timed = telemetry::Enabled();
  const uint64_t start = timed ? telemetry::NowNanos() : 0;
  Status status = wal_.Sync();
  if (timed) tm.fsync_ns->Record(telemetry::NowNanos() - start);
  tm.fsyncs->Increment();
  tm.bytes->Add(wal_.bytes_written() - before);
  if (status.ok()) {
    pending_votes_ = 0;
    failpoint::Eval(fpn::kAfterFsync);
    if (ship_hook_) {
      // Fired before the commit is acknowledged to the caller (we are still
      // inside its AppendBatch/Flush), so a crash inside the ship path can
      // only lose votes that were never acked — the no-lost-ack guarantee
      // the failover drill asserts.
      ShipEvent event;
      event.generation = wal_.generation();
      event.durable_size = wal_.durable_size();
      ship_hook_(event);
    }
  }
  if (!status.ok() && !was_sealed) {
    // The failure sealed the WAL and dropped everything unsynced: those
    // votes exist only in the in-memory session until the next checkpoint
    // re-snapshots them. Zero the group-commit gauge so it tracks the (now
    // empty) backlog instead of forcing a doomed sync per batch, and count
    // the loss where an operator can see it.
    tm.seals->Increment();
    tm.dropped->Add(pending_votes_);
    if (options_.durability_failure_policy ==
        DurabilityFailurePolicy::kDegradeToVolatile) {
      // Everything unsynced was acknowledged to callers; under degradation
      // those votes stay committed in memory, so account them as acked-
      // without-durability before the gauge is zeroed.
      EnterDegradedLocked(status);
      degraded_votes_.fetch_add(pending_votes_, std::memory_order_acq_rel);
      tm.degraded_votes->Add(pending_votes_);
    }
    pending_votes_ = 0;
  }
  return status;
}

void SessionDurability::EnterDegradedLocked(const Status& cause) {
  if (degraded_.load(std::memory_order_relaxed)) return;
  degraded_.store(true, std::memory_order_release);
  Metrics().sessions_degraded->Add(1.0);
  DQM_LOG(Warning) << "session '" << name_
                   << "': durability DEGRADED to volatile mode ("
                   << cause.message()
                   << "); commits continue in memory only until a "
                      "checkpoint re-arms the WAL";
}

Status SessionDurability::AppendBatch(
    std::span<const crowd::VoteEvent> votes) {
  if (votes.empty()) return Status::OK();
  DurabilityMetrics& tm = Metrics();
  MutexLock lock(wal_mutex_);
  if (wal_.sealed()) {
    if (options_.durability_failure_policy ==
        DurabilityFailurePolicy::kDegradeToVolatile) {
      // Volatile mode: the batch is accepted into memory with no durable
      // record. EnterDegradedLocked is idempotent but normally a no-op
      // here (the seal that got us here already flipped the flag).
      EnterDegradedLocked(wal_.SealedStatus());
      degraded_votes_.fetch_add(votes.size(), std::memory_order_acq_rel);
      tm.degraded_votes->Add(votes.size());
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      failpoint::Eval(fpn::kAfterAppend);
      return Status::OK();
    }
    // A sealed WAL cannot take new records without breaking the on-disk
    // superset invariant (they would sit past the failure point). Reject
    // until a checkpoint commit resets the log.
    return wal_.SealedStatus();
  }
  wal_.Append(votes);
  pending_votes_ += votes.size();
  tm.appends->Increment();
  tm.votes->Add(votes.size());
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  failpoint::Eval(fpn::kAfterAppend);
  if (pending_votes_ >= options_.wal_group_commit_votes) {
    Status status = FlushLocked();
    if (!status.ok()) {
      if (options_.durability_failure_policy ==
          DurabilityFailurePolicy::kDegradeToVolatile) {
        // FlushLocked just accounted this batch (it was part of the
        // unsynced backlog) and flipped the session degraded; the caller
        // applies it in memory, so the in-flight marker stands.
        return Status::OK();
      }
      // The record never reached the file (the WAL dropped its buffer), so
      // the caller must reject the batch: un-count the in-flight marker it
      // will never apply.
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      return status;
    }
  }
  return Status::OK();
}

void SessionDurability::NoteApplied() {
  in_flight_.fetch_sub(1, std::memory_order_release);
}

Status SessionDurability::Flush() {
  MutexLock lock(wal_mutex_);
  if (wal_.sealed()) {
    // Degraded sessions are volatile BY POLICY: a flush has nothing to do
    // and callers (close paths, CLI) should not error on it. The degraded
    // flag and dropped-vote count are the honest signal.
    if (options_.durability_failure_policy ==
        DurabilityFailurePolicy::kDegradeToVolatile) {
      return Status::OK();
    }
    // A sealed WAL has nothing buffered, but reporting OK would claim a
    // durability point that does not exist — the session holds applied
    // votes the log dropped.
    return wal_.SealedStatus();
  }
  if (wal_.buffered_bytes() == 0 && pending_votes_ == 0) return Status::OK();
  return FlushLocked();
}

Status SessionDurability::CommitCheckpoint(
    const std::function<Result<crowd::CheckpointData>(uint64_t generation)>&
        build) {
  DurabilityMetrics& tm = Metrics();
  const bool timed = telemetry::Enabled();
  const uint64_t start = timed ? telemetry::NowNanos() : 0;
  MutexLock lock(wal_mutex_);
  // Quiesce: new appends are blocked by the WAL mutex; batches already
  // appended (their records die with the Reset below) must finish applying
  // before the snapshot is cut, or their votes would exist nowhere after a
  // crash. Appliers don't need this mutex to finish, so the spin is
  // deadlock-free.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  const uint64_t next_generation = wal_.generation() + 1;
  Result<crowd::CheckpointData> data = build(next_generation);
  if (!data.ok()) return data.status();
  DQM_RETURN_NOT_OK(crowd::WriteCheckpointFile(checkpoint_path(), *data));
  tm.checkpoints->Increment();
  if (checkpoint_bytes_gauge_ != nullptr) {
    struct stat st;
    if (::stat(checkpoint_path().c_str(), &st) == 0) {
      checkpoint_bytes_gauge_->Set(static_cast<double>(st.st_size));
    }
  }
  failpoint::Eval(fpn::kAfterCheckpointWrite);
  // A crash here leaves checkpoint generation G+1 next to a WAL at G —
  // Recover detects exactly that and discards the (now superseded) WAL.
  DQM_RETURN_NOT_OK(wal_.Reset(next_generation));
  pending_votes_ = 0;
  if (degraded_.load(std::memory_order_relaxed)) {
    // The checkpoint that just committed snapshots every vote accepted
    // while degraded, and Reset unsealed the WAL: durability is re-armed.
    // dropped_durability_votes() stays as the audit trail.
    degraded_.store(false, std::memory_order_release);
    tm.sessions_degraded->Add(-1.0);
    tm.degraded_rearms->Increment();
    DQM_LOG(Info) << "session '" << name_
                  << "': durability re-armed by checkpoint (generation "
                  << next_generation << ") after "
                  << degraded_votes_.load(std::memory_order_relaxed)
                  << " votes were acknowledged without durability";
  }
  failpoint::Eval(fpn::kAfterWalReset);
  if (ship_hook_) {
    ShipEvent event;
    event.generation = next_generation;
    event.durable_size = wal_.durable_size();
    ship_hook_(event);
  }
  if (timed) tm.checkpoint_ns->Record(telemetry::NowNanos() - start);
  return Status::OK();
}

Result<RecoveryStats> SessionDurability::Recover(
    size_t num_items,
    const std::function<Status(const crowd::CheckpointData&)>&
        restore_checkpoint,
    const std::function<Status(std::span<const crowd::VoteEvent>)>& replay) {
  DurabilityMetrics& tm = Metrics();
  MutexLock lock(wal_mutex_);
  RecoveryStats stats;
  uint64_t checkpoint_generation = 0;
  const std::string cp = checkpoint_path();
  struct stat st;
  if (::stat(cp.c_str(), &st) == 0) {
    DQM_ASSIGN_OR_RETURN(crowd::CheckpointData data,
                         crowd::ReadCheckpointFile(cp));
    if (data.num_items != num_items) {
      return Status::Internal(StrFormat(
          "checkpoint '%s' snapshots %llu items but the session has %zu",
          cp.c_str(), static_cast<unsigned long long>(data.num_items),
          num_items));
    }
    DQM_RETURN_NOT_OK(restore_checkpoint(data));
    stats.had_checkpoint = true;
    stats.checkpoint_votes = data.num_events;
    checkpoint_generation = data.wal_generation;
    if (checkpoint_bytes_gauge_ != nullptr) {
      checkpoint_bytes_gauge_->Set(static_cast<double>(st.st_size));
    }
  }
  const uint64_t wal_generation = wal_.generation();
  bool replay_tail = true;
  if (checkpoint_generation == 0) {
    if (wal_generation != 1) {
      // A WAL only moves past generation 1 via a checkpoint commit, whose
      // snapshot file was rename-committed *first* — its absence means the
      // directory lost a durable file, which recovery must not paper over.
      return Status::Internal(StrFormat(
          "WAL '%s' is at generation %llu but no checkpoint exists",
          wal_.path().c_str(),
          static_cast<unsigned long long>(wal_generation)));
    }
  } else if (wal_generation == checkpoint_generation) {
    // Normal shape: the WAL is the tail that post-dates the snapshot.
  } else if (wal_generation < checkpoint_generation) {
    // Crash between the checkpoint rename and the WAL reset: every record
    // in this WAL is already inside the snapshot. Complete the interrupted
    // commit by discarding them now.
    DQM_LOG(Warning) << "WAL '" << wal_.path() << "' (generation "
                     << wal_generation
                     << ") predates its checkpoint (generation "
                     << checkpoint_generation
                     << "); completing the interrupted checkpoint commit";
    DQM_RETURN_NOT_OK(wal_.Reset(checkpoint_generation));
    replay_tail = false;
  } else {
    return Status::Internal(StrFormat(
        "WAL '%s' generation %llu is ahead of checkpoint generation %llu",
        wal_.path().c_str(), static_cast<unsigned long long>(wal_generation),
        static_cast<unsigned long long>(checkpoint_generation)));
  }
  if (replay_tail) {
    DQM_ASSIGN_OR_RETURN(crowd::VoteWal::ReplayStats tail,
                         wal_.ReplayAndTruncate(num_items, replay));
    stats.replayed_votes = tail.votes;
    stats.torn_records = tail.torn_records;
    tm.replayed->Add(tail.votes);
    tm.torn->Add(tail.torn_records);
  }
  return stats;
}

size_t SessionDurability::RetainedBytes() const {
  MutexLock lock(wal_mutex_);
  return wal_.RetainedBytes();
}

}  // namespace dqm::engine
