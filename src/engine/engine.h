#ifndef DQM_ENGINE_ENGINE_H_
#define DQM_ENGINE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "core/dqm.h"
#include "engine/session.h"

namespace dqm::engine {

/// The SessionOptions of the session `manifest` records, rebuilt to serve
/// under `durability_root` ("" = in memory) — what recovery and a standby
/// open. The recorded (resolved) stripe count is pinned, its 0 (the
/// serialized path) as 1, so the layout is the same on any machine.
/// InvalidArgument when the recorded cadence does not parse.
Result<SessionOptions> SessionOptionsFromManifest(
    const SessionManifest& manifest, const std::string& durability_root);

/// Concurrent registry of named estimation sessions — the serving layer for
/// monitoring many datasets at once.
///
/// The registry is sharded by session-name hash: opening, closing, and
/// looking up sessions only takes the owning shard's mutex, and every
/// per-vote operation happens on the session's own lock *after* the shard
/// lock is released. Ingesting into one dataset therefore never blocks
/// queries or ingestion on any other, and lookups on different shards never
/// contend at all.
///
/// Typical use:
///
///     dqm::engine::DqmEngine engine;
///     const std::vector<std::string> specs = {"switch", "chao92"};
///     engine.OpenSession("restaurants", num_pairs, specs);
///     engine.Ingest("restaurants", batch);        // from any thread
///     Snapshot s = engine.Query("restaurants").value();
///     // s.estimated_total_errors, s.quality_score, ...
class DqmEngine {
 public:
  struct Options {
    /// Number of registry shards. More shards = less lock contention on
    /// open/lookup with many concurrent datasets; must be positive.
    size_t num_shards = 16;
  };

  DqmEngine() : DqmEngine(Options()) {}
  explicit DqmEngine(const Options& options);

  DqmEngine(const DqmEngine&) = delete;
  DqmEngine& operator=(const DqmEngine&) = delete;

  /// Creates a session for a universe of `num_items` items, configured by
  /// registry spec strings: the session runs every listed estimator on the
  /// one vote stream and snapshots carry one row per spec (spec order; the
  /// first spec is the primary estimator). Fails with AlreadyExists when
  /// the name is taken and InvalidArgument for an empty name; invalid specs
  /// are reported as InvalidArgument / NotFound before the session is
  /// created.
  ///
  /// A session's log never keeps the raw votes: it keeps the compacted
  /// per-(worker, item) count matrix when the panel reads it (EM-VOTING;
  /// crowd::RetentionPolicy::kCounts, memory O(#distinct pairs)) and only
  /// the per-item tallies otherwise (kTallies, memory O(#items)), regardless
  /// of how many votes stream through.
  ///
  /// `session_options` are the serving knobs: publish cadence and ingest
  /// striping (see SessionOptions). Producer-order-independent panels (no
  /// SWITCH) get the striped multi-producer commit path; with a coalesced
  /// cadence (kEveryNVotes / kManual) many writer threads can ingest into
  /// the one session while a single publisher runs the estimator pipeline.
  ///
  /// When SessionOptions::durability_dir is set this also creates the
  /// session's durability directory (`<dir>/<percent-encoded name>/` with
  /// manifest + WAL) and every accepted batch is write-ahead logged before
  /// it is applied. FailedPrecondition when that directory already holds
  /// state — an existing durable session must be re-opened through
  /// RecoverSessions, never overwritten by OpenSession.
  Result<std::shared_ptr<EstimationSession>> OpenSession(
      const std::string& name, size_t num_items,
      std::span<const std::string> specs,
      const SessionOptions& session_options = SessionOptions());

  /// One session rebuilt by RecoverSessions.
  struct RecoveredSession {
    std::string name;
    uint64_t num_items = 0;
    /// Checkpoint-restored plus WAL-replayed votes.
    uint64_t votes_restored = 0;
    /// Trailing WAL records dropped (and truncated away) as torn.
    uint64_t torn_records = 0;
    bool had_checkpoint = false;
    /// True when the session came up serving but with durability already
    /// degraded to volatile mode (or its WAL sealed) — it recovered, but it
    /// is NOT crash-safe until a checkpoint re-arms it. Operators triaging
    /// a keep-going recovery need this distinction surfaced, not buried in
    /// logs.
    bool degraded = false;
  };

  /// Scans `root` (a SessionOptions::durability_dir) and re-opens every
  /// durable session found under it: reads each subdirectory's manifest,
  /// rebuilds the exact serving configuration (estimator panel, cadence,
  /// recorded stripe layout), restores the latest checkpoint, replays the
  /// WAL tail (truncating a torn final record), publishes the recovered
  /// estimates, and registers the session under its original name.
  /// Returns per-session reports sorted by name. Subdirectories without a
  /// manifest (a crash inside OpenSession before the manifest committed)
  /// are skipped with a warning. Anything else fails the whole call — a
  /// manifest that exists but cannot be read or parsed, a corrupt
  /// checkpoint, an unreadable WAL — silent data loss is not an option
  /// here.
  Result<std::vector<RecoveredSession>> RecoverSessions(
      const std::string& root);

  /// One subdirectory's fate under RecoverSessionsKeepGoing.
  struct SessionRecoveryOutcome {
    enum class State : uint8_t {
      /// Session rebuilt and registered; `report` is valid.
      kRecovered,
      /// No manifest at all — a crash inside OpenSession before the
      /// manifest committed. Nothing durable can live here; not an error.
      kSkipped,
      /// Recovery failed (unreadable or unparsable manifest, corrupt
      /// checkpoint, unreadable WAL, name collision, ...); `detail` carries
      /// the failure message.
      kFailed,
    };
    /// Durability subdirectory this outcome describes.
    std::string dir;
    /// Session name from the manifest; empty when there was none to read
    /// (kSkipped, or a kFailed before the manifest parsed).
    std::string name;
    State state = State::kFailed;
    /// Why the session was skipped or failed; empty on kRecovered.
    std::string detail;
    /// Valid only when state == kRecovered.
    RecoveredSession report;
  };

  /// Like RecoverSessions, but a broken session directory does not abort
  /// the scan: every subdirectory gets an outcome row and the healthy
  /// sessions still come up. This is the operator-facing triage mode
  /// (`dqm_engine_cli --recover --recover_keep_going`) — the strict
  /// variant remains the right default for programmatic recovery, where
  /// partially coming up must not masquerade as success. Outcomes are
  /// sorted by directory; this call itself only fails when `root` cannot
  /// be scanned at all.
  Result<std::vector<SessionRecoveryOutcome>> RecoverSessionsKeepGoing(
      const std::string& root);

  /// Looks up an open session (NotFound otherwise). The returned handle
  /// stays valid after CloseSession — closing only unregisters the name.
  Result<std::shared_ptr<EstimationSession>> GetSession(
      const std::string& name) const;

  /// Appends a batch of votes to the named session.
  Status Ingest(const std::string& name,
                std::span<const crowd::VoteEvent> votes);

  /// Publishes a fresh snapshot of the named session — the explicit flush
  /// for sessions opened with a kManual / kEveryNVotes cadence.
  Status Publish(const std::string& name);

  /// Current estimate of the named session. The by-name lookup takes the
  /// shard lock; the snapshot read itself is lock-free. Hot readers should
  /// hold a GetSession handle and call `snapshot()` on it directly to skip
  /// the lookup entirely.
  Result<Snapshot> Query(const std::string& name) const;

  /// Allocation-free form of Query for polling readers: refreshes `out` in
  /// place (see EstimationSession::SnapshotInto). NotFound when no session
  /// carries `name`; `out` is untouched on error.
  Status QueryInto(const std::string& name, Snapshot& out) const;

  /// Snapshots of every open session, sorted by name — the one-call sweep
  /// report/monitoring surfaces use. Each snapshot is individually
  /// consistent (seqlock read); the set as a whole is not a cross-session
  /// transaction, and sessions opened or closed concurrently may or may not
  /// appear.
  std::vector<std::pair<std::string, Snapshot>> QueryAll() const;

  /// Unregisters a session. In-flight operations holding its handle finish
  /// safely; NotFound when no such session is open.
  Status CloseSession(const std::string& name);

  /// Planned movement of a session to another engine: flushes the source's
  /// WAL, exports its compacted state (quiescing ingest for the cut),
  /// rebuilds an identical session on `target` (same specs and serving
  /// options; `target_durability_root` gives the target its own durable
  /// home, "" = in-memory), verifies the restored vote count, publishes,
  /// and closes the source registration. The caller must stop routing
  /// traffic to the source before migrating — votes ingested after the
  /// export cut would stay behind. FailedPrecondition for panels whose
  /// state cannot be rebuilt from compacted counts (SWITCH); on any
  /// failure the source stays registered and serving, and a half-built
  /// target session is closed.
  Status MigrateSession(const std::string& name, DqmEngine& target,
                        const std::string& target_durability_root = "");

  size_t num_sessions() const;

  /// Names of all open sessions, sorted.
  std::vector<std::string> SessionNames() const;

  /// Refreshes the engine-level exported gauges — `dqm_engine_sessions_open`
  /// and the `dqm_engine_retained_bytes` roll-up — from the current session
  /// set. Each open session is counted exactly once even while sessions
  /// churn concurrently: the walk collects handles shard by shard under the
  /// shard locks (a session lives in exactly one shard, keyed by its name),
  /// then sums RetainedBytes with no registry lock held, and the gauges are
  /// Set (not accumulated) so a session closed mid-walk can at worst
  /// contribute one final point-in-time value — never a double count, and
  /// never a residue after it is gone: once every session is closed the
  /// next refresh returns both gauges to 0. Call it whenever a fresh
  /// reading is wanted (the CLI calls it before every metrics dump).
  void RefreshTelemetry() const;

 private:
  struct Shard {
    /// kEngineShard is the lowest rank in the lock hierarchy: a shard
    /// critical section may (via a session destroyed by CloseSession's
    /// erase) reach into the session/telemetry ranks, but nothing may take
    /// a shard lock while holding any other engine lock.
    mutable Mutex mutex{LockRank::kEngineShard, "engine-shard"};
    std::unordered_map<std::string, std::shared_ptr<EstimationSession>>
        sessions DQM_GUARDED_BY(mutex);
  };

  Shard& ShardFor(std::string_view name) const;

  /// Cheap empty-name / duplicate-name rejection, taken before any
  /// O(num_items) construction.
  Status PrecheckName(const std::string& name) const;

  /// Registers a constructed session under its name. AlreadyExists when a
  /// racing open of the same name won (first writer wins).
  Status InsertSession(const std::shared_ptr<EstimationSession>& session);

  /// Rebuilds and registers the session living in durability directory
  /// `dir` from its already-parsed manifest.
  Result<RecoveredSession> RecoverSessionDir(const std::string& dir,
                                             const std::string& root,
                                             SessionManifest manifest);

  /// The one recovery scan: an outcome per session directory of `root`, or
  /// with `stop_at_failure` the first failure's status.
  Result<std::vector<SessionRecoveryOutcome>> RecoverSessionDirs(
      const std::string& root, bool stop_at_failure);

  /// Lists the session subdirectories of a durability root, sorted.
  static Result<std::vector<std::string>> ListSessionDirs(
      const std::string& root);

  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace dqm::engine

#endif  // DQM_ENGINE_ENGINE_H_
