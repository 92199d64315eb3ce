#include "engine/engine.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/durability.h"
#include "telemetry/metrics.h"
#include "telemetry/metric_names.h"

namespace dqm::engine {

namespace {

/// Inverse of ParsePublishCadenceSpec — the spelling the manifest records.
std::string CadenceSpecString(const SessionOptions& options) {
  switch (options.cadence) {
    case PublishCadence::kEveryBatch:
      return "every_batch";
    case PublishCadence::kManual:
      return "manual";
    case PublishCadence::kEveryNVotes:
      return StrFormat(
          "every_n_votes:%llu",
          static_cast<unsigned long long>(options.publish_every_votes));
  }
  return "every_batch";
}

DurabilityOptions MakeDurabilityOptions(const std::string& name,
                                        const SessionOptions& options) {
  DurabilityOptions durability;
  durability.dir = options.durability_dir + "/" + PercentEncode(name);
  durability.session_name = name;
  durability.group_commit_votes = options.wal_group_commit_votes;
  durability.group_commit_ms = options.wal_group_commit_ms;
  durability.checkpoint_every_votes = options.checkpoint_every_votes;
  durability.failure_policy = options.durability_failure_policy;
  return durability;
}

Result<std::unique_ptr<SessionDurability>> CreateSessionDurability(
    const std::string& name, size_t num_items,
    std::span<const std::string> specs, const SessionOptions& options,
    bool supports_concurrent_ingest) {
  SessionManifest manifest;
  manifest.name = name;
  manifest.num_items = num_items;
  manifest.specs.assign(specs.begin(), specs.end());
  manifest.cadence = CadenceSpecString(options);
  // Record the RESOLVED stripe count (0 = serialized): an "auto" request
  // resolves against the hardware it first ran on, and recovery must
  // rebuild that layout — not re-roll it on whatever machine recovers.
  manifest.ingest_stripes =
      ResolveIngestStripes(options, supports_concurrent_ingest);
  manifest.publish_every_votes = options.publish_every_votes;
  manifest.wal_group_commit_votes = options.wal_group_commit_votes;
  manifest.wal_group_commit_ms = options.wal_group_commit_ms;
  manifest.checkpoint_every_votes = options.checkpoint_every_votes;
  manifest.failure_policy = options.durability_failure_policy;
  return SessionDurability::Create(MakeDurabilityOptions(name, options),
                                   manifest);
}

}  // namespace

Result<SessionOptions> SessionOptionsFromManifest(
    const SessionManifest& manifest, const std::string& durability_root) {
  DQM_ASSIGN_OR_RETURN(SessionOptions options,
                       ParsePublishCadenceSpec(manifest.cadence));
  options.publish_every_votes = manifest.publish_every_votes;
  // 0 in the manifest means the serialized path was resolved at create
  // time; 1 pins it (0 in SessionOptions would re-run auto-resolution).
  options.ingest_stripes =
      manifest.ingest_stripes == 0 ? 1 : manifest.ingest_stripes;
  options.durability_dir = durability_root;
  options.wal_group_commit_votes = manifest.wal_group_commit_votes;
  options.wal_group_commit_ms = manifest.wal_group_commit_ms;
  options.checkpoint_every_votes = manifest.checkpoint_every_votes;
  options.durability_failure_policy = manifest.failure_policy;
  return options;
}

DqmEngine::DqmEngine(const Options& options)
    : num_shards_(options.num_shards),
      shards_(std::make_unique<Shard[]>(options.num_shards)) {
  // invariant: Options defaults and callers guarantee a shard exists.
  DQM_CHECK_GT(num_shards_, 0u);
}

DqmEngine::Shard& DqmEngine::ShardFor(std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % num_shards_];
}

Status DqmEngine::PrecheckName(const std::string& name) const {
  // Cheap pre-check: don't pay the O(num_items) session (or pipeline)
  // construction just to discover a bad or duplicate name.
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  Shard& shard = ShardFor(name);
  MutexLock lock(shard.mutex);
  if (shard.sessions.contains(name)) {
    return Status::AlreadyExists(
        StrFormat("session '%s' is already open", name.c_str()));
  }
  return Status::OK();
}

Status DqmEngine::InsertSession(
    const std::shared_ptr<EstimationSession>& session) {
  Shard& shard = ShardFor(session->name());
  MutexLock lock(shard.mutex);
  if (!shard.sessions.emplace(session->name(), session).second) {
    return Status::AlreadyExists(StrFormat("session '%s' is already open",
                                           session->name().c_str()));
  }
  return Status::OK();
}

Result<std::shared_ptr<EstimationSession>> DqmEngine::OpenSession(
    const std::string& name, size_t num_items,
    std::span<const std::string> specs,
    const SessionOptions& session_options) {
  // Name first (cheap), then the specs: a bad or duplicate name never pays
  // the pipeline construction, and a typo'd spec never half-opens a
  // session.
  DQM_RETURN_NOT_OK(PrecheckName(name));
  DQM_ASSIGN_OR_RETURN(core::DataQualityMetric metric,
                       core::DataQualityMetric::Create(num_items, specs));
  std::unique_ptr<SessionDurability> durability;
  if (!session_options.durability_dir.empty()) {
    // Directory + manifest + empty WAL exist before the session does, so
    // from the first accepted batch onward the write-ahead invariant holds.
    DQM_ASSIGN_OR_RETURN(
        durability,
        CreateSessionDurability(name, num_items, specs, session_options,
                                metric.SupportsConcurrentIngest()));
  }
  // Constructed outside the shard lock; a racing open of the same name is
  // resolved by the insert (first writer wins).
  auto session = std::make_shared<EstimationSession>(
      name, std::move(metric), session_options, std::move(durability));
  DQM_RETURN_NOT_OK(InsertSession(session));
  return session;
}

Result<std::vector<std::string>> DqmEngine::ListSessionDirs(
    const std::string& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return Status::NotFound(StrFormat(
        "durability root '%s' is not a directory", root.c_str()));
  }
  std::vector<std::string> dirs;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory()) dirs.push_back(entry.path().string());
  }
  if (ec) {
    return Status::IOError(StrFormat("scanning '%s': %s", root.c_str(),
                                     ec.message().c_str()));
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

Result<DqmEngine::RecoveredSession> DqmEngine::RecoverSessionDir(
    const std::string& dir, const std::string& root,
    SessionManifest manifest) {
  DQM_ASSIGN_OR_RETURN(SessionOptions options,
                       SessionOptionsFromManifest(manifest, root));
  DQM_RETURN_NOT_OK(PrecheckName(manifest.name));
  DQM_ASSIGN_OR_RETURN(
      core::DataQualityMetric metric,
      core::DataQualityMetric::Create(manifest.num_items, manifest.specs));
  DurabilityOptions durability_options =
      MakeDurabilityOptions(manifest.name, options);
  // Trust the directory actually scanned over the re-derived encoding, in
  // case the tree was relocated by hand.
  durability_options.dir = dir;
  DQM_ASSIGN_OR_RETURN(std::unique_ptr<SessionDurability> durability,
                       SessionDurability::Attach(durability_options));
  auto session = std::make_shared<EstimationSession>(
      manifest.name, std::move(metric), options, std::move(durability));
  DQM_ASSIGN_OR_RETURN(EstimationSession::RecoveryReport report,
                       session->RecoverFromDurability());
  DQM_RETURN_NOT_OK(InsertSession(session));
  RecoveredSession row;
  row.name = manifest.name;
  row.num_items = manifest.num_items;
  row.votes_restored = report.votes_restored;
  row.torn_records = report.torn_records;
  row.had_checkpoint = report.had_checkpoint;
  // A session can come up serving with its durability already compromised
  // (e.g. a fault sealed the WAL during the recovery-time flush under
  // degrade_to_volatile) — surface that per session instead of letting
  // "recovered" read as "crash-safe again".
  if (SessionDurability* durability_engine = session->durability_engine()) {
    row.degraded =
        durability_engine->degraded() || durability_engine->wal_sealed();
  }
  return row;
}

Result<std::vector<DqmEngine::SessionRecoveryOutcome>>
DqmEngine::RecoverSessionDirs(const std::string& root, bool stop_at_failure) {
  DQM_ASSIGN_OR_RETURN(std::vector<std::string> dirs, ListSessionDirs(root));
  std::vector<SessionRecoveryOutcome> outcomes(dirs.size());
  for (size_t i = 0; i < dirs.size(); ++i) {
    SessionRecoveryOutcome& outcome = outcomes[i];
    outcome.dir = dirs[i];
    Result<SessionManifest> manifest =
        ReadManifestFile(SessionManifestPath(outcome.dir));
    if (manifest.status().code() == StatusCode::kNotFound) {
      // No manifest means OpenSession crashed before the rename-commit —
      // by the write order there can be no WAL with accepted votes in such
      // a directory, so skipping loses nothing.
      DQM_LOG(Warning) << "recovery: skipping '" << outcome.dir
                       << "': " << manifest.status().message();
      outcome.state = SessionRecoveryOutcome::State::kSkipped;
      outcome.detail = manifest.status().message();
      continue;
    }
    // A manifest that exists but cannot be read or parsed may guard
    // acknowledged votes: it fails the directory instead of skipping it.
    Status failure = manifest.status();
    if (failure.ok()) {
      outcome.name = manifest->name;
      Result<RecoveredSession> row =
          RecoverSessionDir(outcome.dir, root, std::move(manifest).value());
      if (row.ok()) {
        outcome.state = SessionRecoveryOutcome::State::kRecovered;
        outcome.report = std::move(row).value();
        continue;
      }
      failure = row.status();
    }
    if (stop_at_failure) return failure;
    outcome.state = SessionRecoveryOutcome::State::kFailed;
    outcome.detail = failure.message();
    DQM_LOG(Warning) << "recovery: '" << outcome.dir
                     << "' failed: " << outcome.detail;
  }
  return outcomes;
}

Result<std::vector<DqmEngine::RecoveredSession>> DqmEngine::RecoverSessions(
    const std::string& root) {
  DQM_ASSIGN_OR_RETURN(std::vector<SessionRecoveryOutcome> outcomes,
                       RecoverSessionDirs(root, /*stop_at_failure=*/true));
  std::vector<RecoveredSession> recovered;
  for (SessionRecoveryOutcome& outcome : outcomes) {
    if (outcome.state == SessionRecoveryOutcome::State::kRecovered) {
      recovered.push_back(std::move(outcome.report));
    }
  }
  std::sort(recovered.begin(), recovered.end(),
            [](const RecoveredSession& a, const RecoveredSession& b) {
              return a.name < b.name;
            });
  return recovered;
}

Result<std::vector<DqmEngine::SessionRecoveryOutcome>>
DqmEngine::RecoverSessionsKeepGoing(const std::string& root) {
  return RecoverSessionDirs(root, /*stop_at_failure=*/false);
}

Result<std::shared_ptr<EstimationSession>> DqmEngine::GetSession(
    const std::string& name) const {
  Shard& shard = ShardFor(name);
  MutexLock lock(shard.mutex);
  auto it = shard.sessions.find(name);
  if (it == shard.sessions.end()) {
    return Status::NotFound(
        StrFormat("no open session named '%s'", name.c_str()));
  }
  return it->second;
}

Status DqmEngine::Ingest(const std::string& name,
                         std::span<const crowd::VoteEvent> votes) {
  Result<std::shared_ptr<EstimationSession>> session = GetSession(name);
  if (!session.ok()) return session.status();
  // The shard lock is already released: vote application only contends on
  // this session's own mutex.
  return (*session)->AddVotes(votes);
}

Status DqmEngine::Publish(const std::string& name) {
  Result<std::shared_ptr<EstimationSession>> session = GetSession(name);
  if (!session.ok()) return session.status();
  (*session)->Publish();
  return Status::OK();
}

Result<Snapshot> DqmEngine::Query(const std::string& name) const {
  Result<std::shared_ptr<EstimationSession>> session = GetSession(name);
  if (!session.ok()) return session.status();
  return (*session)->snapshot();
}

Status DqmEngine::QueryInto(const std::string& name, Snapshot& out) const {
  Result<std::shared_ptr<EstimationSession>> session = GetSession(name);
  if (!session.ok()) return session.status();
  (*session)->SnapshotInto(out);
  return Status::OK();
}

std::vector<std::pair<std::string, Snapshot>> DqmEngine::QueryAll() const {
  // Collect handles shard by shard, then snapshot with no locks held: a
  // slow estimator read never extends any shard's critical section.
  std::vector<std::pair<std::string, std::shared_ptr<EstimationSession>>>
      sessions;
  for (size_t i = 0; i < num_shards_; ++i) {
    // Bind the shard once: the analysis ties shard.sessions to shard.mutex
    // through the one local, where an index expression would defeat it.
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    for (const auto& [name, session] : shard.sessions) {
      sessions.emplace_back(name, session);
    }
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<std::string, Snapshot>> snapshots;
  snapshots.reserve(sessions.size());
  for (const auto& [name, session] : sessions) {
    snapshots.emplace_back(name, session->snapshot());
  }
  return snapshots;
}

Status DqmEngine::CloseSession(const std::string& name) {
  Shard& shard = ShardFor(name);
  MutexLock lock(shard.mutex);
  if (shard.sessions.erase(name) == 0) {
    return Status::NotFound(
        StrFormat("no open session named '%s'", name.c_str()));
  }
  return Status::OK();
}

Status DqmEngine::MigrateSession(const std::string& name, DqmEngine& target,
                                 const std::string& target_durability_root) {
  if (&target == this) {
    return Status::InvalidArgument(StrFormat(
        "cannot migrate session '%s' to its own engine", name.c_str()));
  }
  DQM_ASSIGN_OR_RETURN(std::shared_ptr<EstimationSession> session,
                       GetSession(name));
  // Durable barrier first: after this, everything the export cut will see
  // is also on disk at the source, so a crash mid-migration loses nothing
  // (the source stays registered until the hand-off completes).
  DQM_RETURN_NOT_OK(session->FlushDurability());
  DQM_ASSIGN_OR_RETURN(crowd::CheckpointData state, session->ExportState());
  SessionOptions options = session->options();
  options.durability_dir = target_durability_root;
  DQM_ASSIGN_OR_RETURN(
      std::shared_ptr<EstimationSession> moved,
      target.OpenSession(name, session->num_items(), session->specs(),
                         options));
  // The synthetic replay rebuilds tallies and pair counts bit-identically
  // through the target's ordinary ingest path (and write-ahead logs them
  // when the target is durable).
  Status restored = moved->ImportState(state);
  if (!restored.ok()) {
    // Roll back the half-built target; the source keeps serving.
    Status closed = target.CloseSession(name);
    (void)closed;
    return restored;
  }
  moved->Publish();
  DQM_RETURN_NOT_OK(CloseSession(name));
  static telemetry::Counter* migrated =
      telemetry::MetricsRegistry::Global().GetCounter(
          telemetry::metric_names::kSessionsMigratedTotal);
  migrated->Increment();
  return Status::OK();
}

size_t DqmEngine::num_sessions() const {
  size_t count = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    count += shard.sessions.size();
  }
  return count;
}

void DqmEngine::RefreshTelemetry() const {
  // Handle collection mirrors QueryAll: shard by shard under the shard
  // locks. A session's name hashes to exactly one shard and each shard map
  // holds it at most once, so a live session contributes exactly one handle
  // no matter how much open/close churn races this walk.
  std::vector<std::shared_ptr<EstimationSession>> sessions;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    for (const auto& [name, session] : shard.sessions) {
      sessions.push_back(session);
    }
  }
  size_t retained = 0;
  for (const auto& session : sessions) {
    retained += session->RetainedBytes();
  }
  static telemetry::Gauge* sessions_open =
      telemetry::MetricsRegistry::Global().GetGauge(
          telemetry::metric_names::kEngineSessionsOpen);
  static telemetry::Gauge* retained_bytes =
      telemetry::MetricsRegistry::Global().GetGauge(
          telemetry::metric_names::kEngineRetainedBytes);
  // Set, not Add: the gauges are a point-in-time roll-up, so sessions that
  // closed since the last refresh simply stop contributing — the
  // double-report hazard of accumulating per-session deltas cannot arise.
  sessions_open->Set(static_cast<double>(sessions.size()));
  retained_bytes->Set(static_cast<double>(retained));
}

std::vector<std::string> DqmEngine::SessionNames() const {
  std::vector<std::string> names;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    for (const auto& [name, session] : shard.sessions) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace dqm::engine
