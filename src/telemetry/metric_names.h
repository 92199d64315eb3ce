#ifndef DQM_TELEMETRY_METRIC_NAMES_H_
#define DQM_TELEMETRY_METRIC_NAMES_H_

// The single home of every exported metric name. Instrumentation sites refer
// to these constants instead of spelling the string; tools/dqm_lint.py
// enforces both halves of the contract — a "dqm_*" string literal anywhere
// else in src/ is a lint error, and every name declared here must match the
// canonical grammar `[a-z][a-z0-9_]*` (the `name{k=v,...}` exposition
// identity adds sorted labels on top, at the registry layer).
//
// Keeping the names in one translation-unit-visible table is what makes the
// exposition surface reviewable: a metrics rename is one diff hunk here plus
// the call sites the compiler then finds for free.

namespace dqm::telemetry::metric_names {

// --- Striped ingest (crowd/response_log.cc) -------------------------------
/// Stripe-lock acquisitions by committers, labeled stripe="<index>".
inline constexpr char kStripeLockAcquisitionsTotal[] =
    "dqm_stripe_lock_acquisitions_total";
/// The subset of acquisitions that had to block.
inline constexpr char kStripeLockContendedTotal[] =
    "dqm_stripe_lock_contended_total";
/// Nanoseconds committers spent blocked on stripe locks.
inline constexpr char kStripeLockWaitNsTotal[] =
    "dqm_stripe_lock_wait_ns_total";
/// Nanoseconds stripe locks were held (sampled 1 in 64).
inline constexpr char kStripeLockHoldNsTotal[] =
    "dqm_stripe_lock_hold_ns_total";
/// Publish-side pause phase: acquiring every stripe lock.
inline constexpr char kPublishPauseNs[] = "dqm_publish_pause_ns";
/// Publish-side fold phase: the stripe fold (plus the tally audit when one
/// is due) under the pause.
inline constexpr char kPublishFoldNs[] = "dqm_publish_fold_ns";
/// Hottest stripe's share of a perfectly even spread (1.0 = balanced).
inline constexpr char kStripeImbalanceRatio[] = "dqm_stripe_imbalance_ratio";

// --- Dawid-Skene EM (crowd/dawid_skene.cc) --------------------------------
inline constexpr char kEmFitsTotal[] = "dqm_em_fits_total";
inline constexpr char kEmSweepsTotal[] = "dqm_em_sweeps_total";
inline constexpr char kEmConvergedTotal[] = "dqm_em_converged_total";
inline constexpr char kEmLastConvergenceDelta[] =
    "dqm_em_last_convergence_delta";

// --- Engine registry (engine/engine.cc) -----------------------------------
inline constexpr char kEngineSessionsOpen[] = "dqm_engine_sessions_open";
inline constexpr char kEngineRetainedBytes[] = "dqm_engine_retained_bytes";

// --- Session serving paths (engine/session.cc) ----------------------------
inline constexpr char kSeqlockReadRetriesTotal[] =
    "dqm_seqlock_read_retries_total";
inline constexpr char kCommitBatchesTotal[] = "dqm_commit_batches_total";
inline constexpr char kCommitVotesTotal[] = "dqm_commit_votes_total";
inline constexpr char kPublishesTotal[] = "dqm_publishes_total";
inline constexpr char kPublishDeferredTotal[] = "dqm_publish_deferred_total";
inline constexpr char kCommitBatchVotes[] = "dqm_commit_batch_votes";
inline constexpr char kCommitLatencyNs[] = "dqm_commit_latency_ns";
inline constexpr char kPublishLatencyNs[] = "dqm_publish_latency_ns";
inline constexpr char kPublishEstimateNs[] = "dqm_publish_estimate_ns";
/// Per-session×estimator gauges, labeled estimator=..., session=...
inline constexpr char kSessionQuality[] = "dqm_session_quality";
inline constexpr char kSessionTotalErrors[] = "dqm_session_total_errors";

// --- Durability: write-ahead log (engine/durability.cc) -------------------
/// Record batches appended to WAL user-space buffers.
inline constexpr char kWalAppendsTotal[] = "dqm_wal_appends_total";
/// Votes carried by those batches.
inline constexpr char kWalVotesTotal[] = "dqm_wal_votes_total";
/// Bytes handed to write(2) (record framing included).
inline constexpr char kWalBytesWrittenTotal[] = "dqm_wal_bytes_written_total";
/// fsync(2) calls issued by the group-commit cadence, flushes, and closes.
inline constexpr char kWalFsyncsTotal[] = "dqm_wal_fsyncs_total";
/// Wall time of each fsync(2).
inline constexpr char kWalFsyncNs[] = "dqm_wal_fsync_ns";
/// Votes replayed from WAL tails during recovery.
inline constexpr char kWalReplayedVotesTotal[] =
    "dqm_wal_replayed_votes_total";
/// Torn or corrupt trailing records truncated during recovery.
inline constexpr char kWalTornRecordsTotal[] = "dqm_wal_torn_records_total";
/// WAL seal events: a write/fsync failure made the log reject all further
/// appends until a checkpoint reset.
inline constexpr char kWalSealsTotal[] = "dqm_wal_seals_total";
/// Unsynced votes dropped from the WAL by a failed flush (they live only
/// in the in-memory session until the next checkpoint re-snapshots them).
inline constexpr char kWalDroppedVotesTotal[] = "dqm_wal_dropped_votes_total";
/// Transient-errno (EINTR/EAGAIN) syscall retries absorbed by the
/// durability I/O wrappers (crowd/io.cc) before anything sealed.
inline constexpr char kWalRetriesTotal[] = "dqm_wal_retries_total";
/// Transient errors that exhausted the bounded retry budget and surfaced
/// to the caller (usually sealing the WAL).
inline constexpr char kWalRetryExhaustedTotal[] =
    "dqm_wal_retry_exhausted_total";

// --- Durability: degradation (engine/durability.cc) -----------------------
/// Sessions currently running with durability degraded to volatile mode
/// (their WAL directory is failing; commits continue in memory only).
inline constexpr char kSessionsDegraded[] = "dqm_sessions_degraded";
/// Votes acknowledged while degraded, i.e. committed without any durable
/// record — what a crash during degradation would lose.
inline constexpr char kDegradedVotesTotal[] = "dqm_degraded_votes_total";
/// Sessions that re-armed durability after a successful checkpoint reset.
inline constexpr char kDegradedRearmsTotal[] = "dqm_degraded_rearms_total";

// --- Fault injection (common/failpoint.h, telemetry/failpoints.cc) --------
/// Armed failpoint evaluations, labeled failpoint="<name>". Pushed from
/// the failpoint registry by SyncFailpointMetrics (exposition surfaces
/// call it before collecting).
inline constexpr char kFailpointHitsTotal[] = "dqm_failpoint_hits_total";

// --- Durability: checkpoints (engine/durability.cc) -----------------------
/// Checkpoints committed (snapshot written + WAL reset).
inline constexpr char kCheckpointsTotal[] = "dqm_checkpoints_total";
/// Wall time of a checkpoint commit (quiesce + serialize + rename + reset).
inline constexpr char kCheckpointWriteNs[] = "dqm_checkpoint_write_ns";
/// Size of the most recent checkpoint file, labeled session=...
inline constexpr char kCheckpointBytes[] = "dqm_checkpoint_bytes";

// --- Replication (engine/replication.cc) ----------------------------------
/// Durable primary votes not yet applied on the standby, labeled
/// session=... Drains to 0 on an idle, healthy pair.
inline constexpr char kReplicaLagVotes[] = "dqm_replica_lag_votes";
/// Durable primary WAL bytes not yet shipped, labeled session=...
inline constexpr char kReplicaLagBytes[] = "dqm_replica_lag_bytes";
/// WAL segments (raw durable WAL ranges) shipped by primaries.
inline constexpr char kReplicaSegmentsShippedTotal[] =
    "dqm_replica_segments_shipped_total";
/// Checkpoint artifacts shipped by primaries.
inline constexpr char kReplicaCheckpointsShippedTotal[] =
    "dqm_replica_checkpoints_shipped_total";
/// Ship attempts that failed (transport error or fencing rejection); the
/// primary keeps serving and the standby resyncs from a fresh checkpoint.
inline constexpr char kReplicaShipErrorsTotal[] =
    "dqm_replica_ship_errors_total";
/// Segments (shipped WAL ranges) a standby verified and applied.
inline constexpr char kReplicaSegmentsAppliedTotal[] =
    "dqm_replica_segments_applied_total";
/// Divergence events a standby detected (a gap in WAL offsets, a torn or
/// corrupt record, a segment holding fewer or more votes than its name
/// says) — each forces a checkpoint resync.
inline constexpr char kReplicaDivergencesTotal[] =
    "dqm_replica_divergences_total";
/// Full standby resyncs from a shipped checkpoint.
inline constexpr char kReplicaResyncsTotal[] = "dqm_replica_resyncs_total";
/// Artifact pushes rejected by the transport fence (a zombie primary
/// writing with a stale fencing token).
inline constexpr char kReplicaFenceRejectionsTotal[] =
    "dqm_replica_fence_rejections_total";
/// Standby promotions to serving primary.
inline constexpr char kReplicaPromotionsTotal[] =
    "dqm_replica_promotions_total";
/// Planned session migrations between engines.
inline constexpr char kSessionsMigratedTotal[] =
    "dqm_sessions_migrated_total";

}  // namespace dqm::telemetry::metric_names

#endif  // DQM_TELEMETRY_METRIC_NAMES_H_
