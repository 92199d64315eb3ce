#include "engine/engine.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "engine/durability.h"
#include "telemetry/metrics.h"
#include "telemetry/metric_names.h"

namespace dqm::engine {

namespace {

/// Resolves SessionOptions::ingest_stripes against a panel's capability:
/// 1 = the serialized commit path, otherwise the stripe count k >= 2 the
/// session runs with. Stripe on explicit request (>= 2), or automatically
/// when the cadence is coalesced, with enough stripes that a producer per
/// core rarely collides (the log clamps further so every stripe spans at
/// least a cache line of tallies) — never by default under kEveryBatch: a
/// single producer gains nothing from stripes, while a striped publish per
/// batch locks every stripe and pays the O(num_items) tally audit once per
/// num_items votes on top of the O(batch) commit the serialized path pays
/// alone. A resolved value resolves to itself.
size_t ResolveIngestStripes(const SessionOptions& options,
                            bool supports_concurrent_ingest) {
  const bool want_striping =
      options.ingest_stripes >= 2 ||
      (options.ingest_stripes == 0 &&
       options.cadence != PublishCadence::kEveryBatch);
  if (!want_striping || !supports_concurrent_ingest) return 1;
  return options.ingest_stripes == 0
             ? std::clamp<size_t>(ThreadPool::DefaultThreadCount(), 2, 8)
             : options.ingest_stripes;
}

}  // namespace

DqmEngine::Shard& DqmEngine::ShardFor(std::string_view name) const {
  return shards_[std::hash<std::string_view>{}(name) % kNumShards];
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

Result<std::shared_ptr<EstimationSession>> DqmEngine::StartSession(
    SessionManifest manifest, const std::string& dir,
    RecoveryStats* recovered) {
  // Name first (cheap), then the specs: a bad or duplicate name never pays
  // the pipeline construction, and a typo'd spec never half-opens a
  // session.
  DQM_RETURN_NOT_OK(PrecheckName(manifest.name));
  DQM_ASSIGN_OR_RETURN(
      core::DataQualityMetric metric,
      core::DataQualityMetric::Create(manifest.num_items, manifest.specs));
  // The one options resolution: an "auto" stripe request resolves against
  // the hardware the session first runs on, and the manifest records the
  // result so recovery rebuilds that layout instead of re-rolling it. An
  // order-sensitive panel (SWITCH) cannot be restored from a checkpoint's
  // counts, so it keeps WAL-only durability.
  const bool order_free = metric.SupportsConcurrentIngest();
  manifest.options.ingest_stripes =
      ResolveIngestStripes(manifest.options, order_free);
  if (!order_free) manifest.options.checkpoint_every_votes = 0;
  std::unique_ptr<SessionDurability> durability;
  if (!dir.empty()) {
    // Directory + manifest + WAL exist before the session does, so from the
    // first accepted batch onward the write-ahead invariant holds.
    DQM_ASSIGN_OR_RETURN(durability,
                         recovered == nullptr
                             ? SessionDurability::Create(dir, manifest)
                             : SessionDurability::Attach(dir, manifest));
  }
  // Constructed outside the shard lock; a racing open of the same name is
  // resolved by the insert (first writer wins).
  auto session = std::make_shared<EstimationSession>(
      manifest.name, std::move(metric), manifest.options,
      std::move(durability));
  if (recovered != nullptr) {
    DQM_ASSIGN_OR_RETURN(*recovered, session->RecoverFromDurability());
  }
  DQM_RETURN_NOT_OK(InsertSession(session));
  return session;
}

Result<std::shared_ptr<EstimationSession>> DqmEngine::OpenSession(
    const std::string& name, size_t num_items,
    std::span<const std::string> specs,
    const SessionOptions& session_options) {
  SessionManifest manifest;
  manifest.name = name;
  manifest.num_items = num_items;
  manifest.specs.assign(specs.begin(), specs.end());
  manifest.options = session_options;
  const std::string& root = session_options.durability_dir;
  return StartSession(std::move(manifest),
                      root.empty() ? "" : root + "/" + PercentEncode(name),
                      /*recovered=*/nullptr);
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
  manifest.options.durability_dir = root;
  RecoveryStats stats;
  // The directory actually scanned is trusted over the name's encoding, in
  // case the tree was relocated by hand.
  DQM_ASSIGN_OR_RETURN(std::shared_ptr<EstimationSession> session,
                       StartSession(std::move(manifest), dir, &stats));
  RecoveredSession row;
  row.name = session->name();
  row.num_items = session->num_items();
  row.votes_restored = stats.checkpoint_votes + stats.replayed_votes;
  row.torn_records = stats.torn_records;
  row.had_checkpoint = stats.had_checkpoint;
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
  for (size_t i = 0; i < kNumShards; ++i) {
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
  // The restore rebuilds tallies and pair counts bit-identically in
  // O(items + pairs) and publishes them; a durable target commits them as
  // its first checkpoint.
  Status restored = moved->ImportState(state);
  if (!restored.ok()) {
    // Roll back the half-built target; the source keeps serving.
    Status closed = target.CloseSession(name);
    (void)closed;
    return restored;
  }
  DQM_RETURN_NOT_OK(CloseSession(name));
  static telemetry::Counter* migrated =
      telemetry::MetricsRegistry::Global().GetCounter(
          telemetry::metric_names::kSessionsMigratedTotal);
  migrated->Increment();
  return Status::OK();
}

size_t DqmEngine::num_sessions() const {
  size_t count = 0;
  for (size_t i = 0; i < kNumShards; ++i) {
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
  for (size_t i = 0; i < kNumShards; ++i) {
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
  for (size_t i = 0; i < kNumShards; ++i) {
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
