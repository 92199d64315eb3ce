#ifndef DQM_ENGINE_SESSION_H_
#define DQM_ENGINE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/align.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "core/dqm.h"
#include "crowd/vote.h"
#include "crowd/wal.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace dqm::engine {

/// One estimator's numbers inside a Snapshot. `name` is the estimator's
/// display name ("SWITCH", "CHAO92", ...) so report consumers can say which
/// estimator produced which number.
struct EstimatorEstimate {
  std::string name;
  double total_errors = 0.0;
  double undetected_errors = 0.0;
  double quality_score = 1.0;
};

/// Immutable point-in-time view of one session's estimates. Snapshots are
/// built by the (serialized) publish path, so all fields are mutually
/// consistent; readers obtain them without taking any lock.
///
/// A session runs a multi-estimator pipeline (see core::DataQualityMetric):
/// `estimates` has one row per configured estimator, in spec order. The
/// scalar estimate fields mirror row 0 — the primary estimator — so
/// single-method callers keep working unchanged.
struct Snapshot {
  /// Number of publishes; strictly increases per publish (== committed
  /// batches under the default every-batch cadence).
  uint64_t version = 0;
  uint64_t num_votes = 0;
  size_t num_items = 0;
  /// VOTING(I) — items whose current majority label is dirty.
  size_t majority_count = 0;
  /// NOMINAL(I) — items with at least one dirty vote.
  size_t nominal_count = 0;
  /// Primary estimator (== estimates[0]).
  double estimated_total_errors = 0.0;
  double estimated_undetected_errors = 0.0;
  /// 1 - undetected/N, clamped to [0, 1].
  double quality_score = 1.0;
  /// Display name of the primary estimator.
  std::string method_name;
  /// One row per configured estimator, in spec order.
  std::vector<EstimatorEstimate> estimates;
  /// Durability health, read from the session's durability engine at
  /// snapshot time (not part of the seqlock cell — it is health metadata,
  /// not published estimator state, and may be a publish newer than
  /// `version`). Always false/0 for in-memory sessions.
  bool durability_degraded = false;
  /// Cumulative votes acknowledged without a durable record (see
  /// SessionDurability::dropped_durability_votes).
  uint64_t dropped_durability_votes = 0;
};

/// Seqlock-published Snapshot storage: a version word plus the snapshot's
/// numeric fields, all `std::atomic`. The cell is sized at construction for
/// the session's estimator count — the fixed header plus three words per
/// estimator row. Writers (already serialized by the session's publish
/// lock) bump the sequence odd, store the fields, bump it even; readers
/// copy the fields and retry iff a write was in flight. Every access is an
/// atomic operation, so the protocol is fully visible to ThreadSanitizer —
/// unlike libstdc++'s `std::atomic<std::shared_ptr>`, whose internal
/// lock-bit scheme TSan flags as a race.
///
/// The sequence word lives on its own cache line
/// (std::hardware_destructive_interference_size, 64-byte fallback): readers
/// spin-check it on every load, and sharing its line with unrelated session
/// state would bounce that line between the publisher and every polling
/// core.
///
/// Estimator names are immutable per session and therefore not part of the
/// cell; Load() returns rows with empty names and the session fills them
/// in.
class SnapshotCell {
 public:
  /// Starts at the empty session's snapshot: version 0, no votes, every
  /// quality score 1.
  SnapshotCell(size_t num_estimators, size_t num_items);

  /// Publishes `report` as snapshot `version`; row 0 fills the primary
  /// header fields. `report` must carry exactly the configured number of
  /// estimator rows. Callers must serialize Store() invocations.
  void Store(uint64_t version,
             const core::DataQualityMetric::QualityReport& report);

  /// Returns a consistent copy; lock-free (retries only while a concurrent
  /// Store is mid-flight). Row names are left empty.
  Snapshot Load() const;

  /// As Load(), but reuses `snapshot`'s row storage: a reader that polls
  /// with the same Snapshot object performs zero heap allocations per read
  /// after the first. Row names are left untouched.
  void LoadInto(Snapshot& snapshot) const;

 private:
  static constexpr size_t kHeaderWords = 8;
  size_t num_words() const { return kHeaderWords + 3 * num_estimators_; }

  size_t num_estimators_;
  alignas(kCacheLineBytes) std::atomic<uint64_t> seq_{0};
  alignas(kCacheLineBytes) std::unique_ptr<std::atomic<uint64_t>[]> words_;
};

/// When a session turns committed votes into a published snapshot.
enum class PublishCadence {
  /// Publish after every committed AddVotes batch — the historical default,
  /// bit-compatible with pre-cadence sessions.
  kEveryBatch,
  /// Publish whenever the session's total committed-vote count crosses a
  /// multiple of SessionOptions::publish_every_votes — the committer whose
  /// batch crosses the boundary publishes. The coalescing configuration:
  /// producers stream batches, one of them runs the estimator pipeline
  /// every ~N votes. The schedule is a function of the committed total
  /// alone (identical on the striped and serialized paths, and unaffected
  /// by interleaved explicit Publish() calls).
  kEveryNVotes,
  /// Only explicit Publish() calls publish. Readers see the initial empty
  /// snapshot until then.
  kManual,
};

/// What a session does when its WAL seals (an I/O failure survived the
/// retry budget): fail-stop rejects every later batch until a checkpoint
/// reset; degrade-to-volatile keeps committing in memory, loudly flagging
/// itself (snapshots, dqm_sessions_degraded) and counting every vote acked
/// without a durable record, then re-arms at the next successful
/// checkpoint reset.
enum class DurabilityFailurePolicy : uint8_t {
  kFailStop = 0,
  kDegradeToVolatile = 1,
};

/// Canonical spellings, as accepted by --durability_failure_policy and the
/// manifest: "fail_stop" | "degrade_to_volatile".
const char* DurabilityFailurePolicyName(DurabilityFailurePolicy policy);
Result<DurabilityFailurePolicy> ParseDurabilityFailurePolicy(
    std::string_view text);

/// Per-session serving knobs (all orthogonal to the estimator panel). The
/// one declaration of a session's configuration: a durable session's
/// MANIFEST records these (resolved, minus durability_dir), and recovery,
/// a standby and migration open sessions from them.
struct SessionOptions {
  PublishCadence cadence = PublishCadence::kEveryBatch;
  /// Threshold for PublishCadence::kEveryNVotes (clamped to >= 1).
  uint64_t publish_every_votes = 4096;
  /// Ingest-stripe request, choosing between the two locking modes of the
  /// one commit sequence (see EstimationSession, "Commit paths"). DqmEngine
  /// resolves it once per session, to 1 or the stripe count k >= 2, and
  /// the session, its manifest and a migration carry that value. 0 = auto:
  /// hardware-scaled striping whenever the estimator panel is
  /// producer-order independent AND the cadence is coalesced
  /// (kEveryNVotes / kManual) — under the default kEveryBatch a single
  /// producer gains nothing from stripes, while a striped publish per batch
  /// locks every stripe, so auto keeps the historical configuration
  /// serialized. 1 = not striped: the serialized mode. k >= 2 = ask for k
  /// stripes under any cadence (clamped to the item universe). Panels
  /// containing an order-sensitive estimator (SWITCH) stay serialized
  /// regardless.
  size_t ingest_stripes = 0;
  /// Root directory for durable sessions ("" = in-memory only, the
  /// historical behavior). Each session gets its own subdirectory
  /// (percent-encoded name) holding manifest, WAL, and checkpoint; votes
  /// are write-ahead logged before being applied, and
  /// DqmEngine::RecoverSessions(root) rebuilds every session after a crash.
  std::string durability_dir;
  /// WAL group commit: fsync once this many votes accumulated since the
  /// last sync (>= 1; 1 = fsync every batch). Also the ParseWalGroupCommitSpec
  /// "N" spelling.
  uint64_t wal_group_commit_votes = 256;
  /// Optional time-based group commit: fsync at most this many ms after a
  /// vote was buffered (0 = off). The "Nms" spelling.
  uint64_t wal_group_commit_ms = 0;
  /// Checkpoint the compacted log state whenever the committed-vote total
  /// crosses a multiple of this, truncating the WAL (0 = no scheduled
  /// checkpoint; recovery replays the whole WAL past the one ImportState
  /// commits). DqmEngine resolves it to 0 for
  /// order-sensitive panels (SWITCH), which get WAL-only durability — a
  /// checkpoint keeps counts, not the arrival order those estimators
  /// consume.
  uint64_t checkpoint_every_votes = 0;
  /// What the session does when its WAL seals after an I/O failure:
  /// fail_stop (reject batches until a checkpoint reset — the default) or
  /// degrade_to_volatile (keep committing in memory, flagged in snapshots
  /// and dqm_sessions_degraded, re-arming at the next checkpoint).
  DurabilityFailurePolicy durability_failure_policy =
      DurabilityFailurePolicy::kFailStop;
};

/// Parses "every_batch" | "manual" | "every_n_votes[:N]" (e.g.
/// "every_n_votes:8192") into `base`'s cadence fields — the spelling the
/// CLI / bench flags use. InvalidArgument on anything else.
Result<SessionOptions> ParsePublishCadenceSpec(std::string_view spec,
                                               SessionOptions base = {});

/// Parses the WAL group-commit spelling the CLI / bench flags use into
/// `base`'s wal_group_commit fields: "N" (votes) or "Nms" (milliseconds;
/// keeps the vote threshold too — whichever fires first syncs).
/// InvalidArgument on anything else.
Result<SessionOptions> ParseWalGroupCommitSpec(std::string_view spec,
                                               SessionOptions base = {});

class SessionDurability;

/// What recovery rebuilt from a session's durable state
/// (SessionDurability::Recover, through
/// EstimationSession::RecoverFromDurability).
struct RecoveryStats {
  /// Votes restored from the checkpoint snapshot.
  uint64_t checkpoint_votes = 0;
  /// Votes replayed from the WAL tail.
  uint64_t replayed_votes = 0;
  /// Torn/corrupt trailing WAL records truncated away.
  uint64_t torn_records = 0;
  bool had_checkpoint = false;
};

/// One live estimation stream: a `core::DataQualityMetric` (possibly with
/// several attached estimators) made safe for concurrent use. Readers poll
/// `snapshot()` lock-free (a seqlock copy), so a hot query path never
/// contends with ingestion. Writers commit through `AddVotes`; how commits
/// become snapshots is governed by SessionOptions.
///
/// ## Commit paths
///
/// `AddVotes` is one sequence on every session: validate, then WAL append
/// + `core::DataQualityMetric::CommitVotes` + WAL NoteApplied, then the
/// commit counters and span, the publish cadence, and the checkpoint
/// schedule. The two paths differ only in whether the session mutex is
/// held around the middle step.
///
/// *Striped* (producer-order-independent panels — every estimator reads
/// only the vote statistics of the pipeline's log: CHAO92 family, VOTING,
/// NOMINAL, EM-VOTING): the mutex is not taken; `CommitVotes` commits
/// tallies into per-item-range stripes of the shared log, each with its
/// own lock, so N producers ingest into ONE session concurrently. The
/// publish path pauses committers, reconciles, runs the estimator
/// pipeline, and stores the seqlock snapshot. Tallies/counts are
/// bit-identical to any serialized feed of the same votes; EM estimates
/// agree within their declared tolerance (float summation order follows
/// the stripe layout).
///
/// *Serialized* (panels with an order-sensitive estimator, e.g. SWITCH, or
/// SessionOptions::ingest_stripes == 1): WAL append and apply run under the
/// session mutex, so batches from different threads are applied in
/// lock-acquisition order, vote order within a batch preserved. Order
/// across concurrent writers is unspecified, so order-sensitive panels
/// should be fed by a single producer per session. The mutex is released
/// between apply and publish (the publish takes it again), so under
/// several concurrent producers a kEveryBatch publish may already include
/// a later batch of another producer. `version` still counts batches (one
/// publish per batch), and a single producer's snapshots are exactly those
/// of a publish under the same lock hold.
class EstimationSession {
 public:
  /// Wraps an already-configured pipeline (the engine's OpenSession path).
  /// `session_options` must already be resolved (DqmEngine does it):
  /// ingest_stripes k >= 2 stripes the pipeline's log, anything else keeps
  /// the serialized path; checkpoint_every_votes is 0 for an
  /// order-sensitive panel (aborts otherwise). `durability`, when non-null,
  /// write-ahead logs every committed batch (the engine constructs it from
  /// SessionOptions::durability_dir).
  EstimationSession(std::string name, core::DataQualityMetric metric,
                    const SessionOptions& session_options = SessionOptions(),
                    std::unique_ptr<SessionDurability> durability = nullptr);

  EstimationSession(const EstimationSession&) = delete;
  EstimationSession& operator=(const EstimationSession&) = delete;

  /// Releases the session's per-session telemetry gauges (so the exposition
  /// surface forgets sessions that closed once every handle drops).
  ~EstimationSession();

  const std::string& name() const { return name_; }
  size_t num_items() const { return num_items_; }

  /// Commits a batch of votes (and publishes a fresh snapshot when the
  /// cadence says so). The batch is all-or-nothing: a vote with an item id
  /// >= num_items(), a worker id above crowd::kMaxWorkerId, a task id above
  /// crowd::kMaxTaskId, or a vote byte other than 0/1 rejects the whole
  /// batch with InvalidArgument before it reaches the WAL or a single vote
  /// is applied (crowd::VotesInBounds — the same rule recovery and the
  /// replication scan hold every WAL record to).
  Status AddVotes(std::span<const crowd::VoteEvent> votes)
      DQM_EXCLUDES(mutex_);

  /// Single-vote convenience wrapper (one batch of one vote).
  Status AddVote(const crowd::VoteEvent& event) {
    return AddVotes(std::span<const crowd::VoteEvent>(&event, 1));
  }

  /// Publishes a snapshot of everything committed so far — the explicit
  /// flush for kManual / kEveryNVotes cadences (harmless, if pointless,
  /// under kEveryBatch). Safe from any thread; publishes serialize.
  void Publish() DQM_EXCLUDES(mutex_);

  /// Current estimates, without blocking on writers.
  Snapshot snapshot() const;

  /// As snapshot(), but reuses `out`'s storage: the estimator-name strings
  /// and row vector are written in place, so a hot reader polling with the
  /// same Snapshot object allocates nothing per query in steady state
  /// (names are carried once per session and string assignment reuses the
  /// receiver's capacity).
  void SnapshotInto(Snapshot& out) const;

  /// True when this session took the striped multi-producer commit path.
  bool concurrent_ingest() const { return striped_; }

  /// Votes committed so far (>= the published num_votes between publishes).
  uint64_t committed_votes() const {
    return committed_votes_.load(std::memory_order_relaxed);
  }

  /// The session's resolved options: ingest_stripes is the stripe count
  /// it runs with (1 = serialized), so a migrated session keeps its
  /// source's layout.
  const SessionOptions& options() const { return options_; }

  /// Name of the primary estimation method ("SWITCH", "CHAO92", ...).
  std::string_view method_name() const { return estimator_names_.front(); }

  /// Display names of every configured estimator, in spec order.
  const std::vector<std::string>& estimator_names() const {
    return estimator_names_;
  }

  /// Approximate heap bytes this session retains for vote storage — the
  /// engine's RetainedBytes gauge roll-up reads this. Takes the session
  /// mutex (and, per stripe, the stripe locks), so it is safe against live
  /// committers and publishes. Must NOT be called from inside the publish
  /// path (the stripe locks would be re-acquired — the debug lock-order
  /// checker turns that mistake into an immediate abort).
  size_t RetainedBytes() const DQM_EXCLUDES(mutex_);

  /// The session's span ring: recent commit / reconcile / estimate /
  /// publish spans for post-hoc "why was this publish slow" forensics.
  /// Snapshot() is lock-free and safe from any thread.
  const telemetry::FlightRecorder& flight_recorder() const { return flight_; }

  /// True when this session write-ahead logs its votes.
  bool durable() const { return durability_ != nullptr; }

  /// The verbatim estimator spec strings the wrapped metric was built
  /// from — what MigrateSession uses to rebuild the panel elsewhere.
  std::vector<std::string> specs() const { return metric_.specs(); }

  /// The session's durability engine — the attach point for replication
  /// (ship hooks, durable WAL boundary). nullptr for in-memory sessions.
  SessionDurability* durability_engine() { return durability_.get(); }

  /// Snapshots this session's full compacted state as checkpoint data
  /// (generation 1), quiescing ingest for the duration — the source half of
  /// a migration: ImportState restores the result into a fresh session
  /// with bit-identical tallies and pair counts.
  /// FailedPrecondition for order-sensitive panels (SWITCH), whose state
  /// the compacted counts do not carry and which cannot move this way.
  Result<crowd::CheckpointData> ExportState() DQM_EXCLUDES(mutex_);

  /// The target half: restores `state` (an ExportState result or a decoded
  /// checkpoint) into this empty session in O(items + pairs)
  /// (crowd::ResponseLog::RestoreCheckpoint), counts its votes as
  /// committed, and publishes once. A durable session then commits the
  /// restored state as its first checkpoint, so recovery finds it; nothing
  /// goes through the WAL. FailedPrecondition for an order-sensitive panel
  /// or a session that already holds votes. Used by migration and by a
  /// standby's checkpoint resync.
  Status ImportState(const crowd::CheckpointData& state) DQM_EXCLUDES(mutex_);

  /// Replays this session's durable state (checkpoint + WAL tail) into the
  /// pipeline and publishes one snapshot of the recovered estimates. Call
  /// exactly once, before the first AddVotes, on a freshly constructed
  /// session (DqmEngine::RecoverSessions does, and surfaces the stats per
  /// session).
  Result<RecoveryStats> RecoverFromDurability() DQM_EXCLUDES(mutex_);

  /// Forces the WAL to disk (write + fsync) regardless of the group-commit
  /// cadence — the explicit durability barrier. No-op for in-memory
  /// sessions.
  Status FlushDurability() DQM_EXCLUDES(mutex_);

 private:
  /// Refreshes the report scratch from the metric and stores it in the
  /// seqlock cell. Caller holds mutex_ and the log's ingest pause.
  void PublishLocked() DQM_REQUIRES(mutex_);

  /// Restores `data` into the empty pipeline and counts its votes as
  /// committed: the one restore step of recovery, migration and a standby.
  /// Callers hold mutex_; not annotated, because recovery calls it from
  /// the callback it hands SessionDurability::Recover, which the analysis
  /// cannot see is under the lock.
  Status Restore(const crowd::CheckpointData& data);

  /// Commits a checkpoint of the current state: quiesces the WAL, cuts the
  /// snapshot (reconcile pause + CheckpointFromLog), rename-commits it and
  /// resets the WAL. Durable sessions only.
  Status CheckpointLocked() DQM_REQUIRES(mutex_);

  /// Commits a checkpoint when the committed total crossed a
  /// checkpoint_every_votes boundary with this batch (the crossing
  /// committer pays), through CheckpointLocked under mutex_. Failures are
  /// logged, not returned — the votes are already applied AND in the WAL,
  /// so the session stays correct and recoverable either way.
  void MaybeCheckpoint(uint64_t after, uint64_t batch) DQM_EXCLUDES(mutex_);

  const std::string name_;
  const size_t num_items_;
  const SessionOptions options_;
  /// Write-ahead log + checkpoints; null for in-memory sessions. Owns its
  /// own kWal-ranked mutex (see engine/durability.h for the commit
  /// protocol); declared before metric_ so appends outlive nothing.
  std::unique_ptr<SessionDurability> durability_;
  bool striped_ = false;
  /// Total votes committed; drives the kEveryNVotes trigger on the striped
  /// path without any shared lock.
  std::atomic<uint64_t> committed_votes_{0};
  mutable Mutex mutex_{LockRank::kSession, "session"};
  /// Deliberately NOT guarded by mutex_: on the striped path concurrent
  /// committers call metric_.CommitVotes under the log's per-stripe locks
  /// with mutex_ unheld; only the serialized commit path and the publish
  /// path touch it under mutex_. The striped/serialized split (striped_,
  /// fixed at construction) is the real guard.
  core::DataQualityMetric metric_;
  uint64_t version_ DQM_GUARDED_BY(mutex_) = 0;
  /// Publish scratch, guarded by mutex_: the publish path refreshes it in
  /// place and stores it straight into the cell, so publishing performs no
  /// heap allocations in steady state.
  core::DataQualityMetric::QualityReport report_scratch_
      DQM_GUARDED_BY(mutex_);
  const std::vector<std::string> estimator_names_;  // immutable
  SnapshotCell snapshot_;
  /// Per-session×estimator exported gauges (refcounted in the global
  /// registry; released by the destructor). Row order = estimator_names_.
  std::vector<telemetry::Gauge*> quality_gauges_;
  std::vector<telemetry::Gauge*> total_errors_gauges_;
  telemetry::FlightRecorder flight_;
};

}  // namespace dqm::engine

#endif  // DQM_ENGINE_SESSION_H_
