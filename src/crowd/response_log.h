#ifndef DQM_CROWD_RESPONSE_LOG_H_
#define DQM_CROWD_RESPONSE_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/align.h"
#include "common/mutex.h"
#include "common/status.h"
#include "crowd/vote.h"
#include "telemetry/metrics.h"

namespace dqm::crowd {

struct CheckpointData;  // crowd/wal.h

/// Compacted columnar realization of the paper's response matrix `I`:
/// per-(worker, item) dirty/clean vote counts in flat parallel arrays, with
/// an open-addressed (worker, item) -> slot index so appending a vote is
/// O(1) amortized and never allocates except on table growth.
///
/// This is the state the matrix-based consumers (Dawid-Skene EM) actually
/// need: each EM sweep touches every distinct pair once, independent of how
/// many raw votes piled onto it, and steady-state memory is O(#distinct
/// pairs) instead of O(#votes). Slots are appended in first-arrival order,
/// so two stores fed the same vote stream — whether incrementally or by a
/// one-shot replay — are element-for-element identical, which is what keeps
/// count-based fits bit-reproducible across retention policies.
class CompactedVoteStore {
 public:
  CompactedVoteStore() = default;

  /// Folds one vote into its (worker, item) slot, creating it on first
  /// contact.
  void Add(uint32_t worker, uint32_t item, Vote vote);

  /// Adds `dirty` and `clean` votes to the (worker, item) slot at once, as
  /// that many Add calls would (the dirty ones first).
  void AddCounts(uint32_t worker, uint32_t item, uint32_t dirty,
                 uint32_t clean);

  /// Number of distinct (worker, item) pairs seen.
  size_t num_pairs() const { return workers_.size(); }

  /// Columnar views, all of length num_pairs(), indexed by slot in
  /// first-arrival order.
  const std::vector<uint32_t>& workers() const { return workers_; }
  const std::vector<uint32_t>& items() const { return items_; }
  const std::vector<uint32_t>& dirty_counts() const { return dirty_; }
  const std::vector<uint32_t>& clean_counts() const { return clean_; }

  /// Bytes of heap owned by the store (capacity, not size) — the number the
  /// retention-policy memory claims are made of.
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  size_t FindOrInsertSlot(uint32_t worker, uint32_t item);
  void GrowIndex();

  // Slot-major parallel arrays (the columnar matrix).
  std::vector<uint32_t> workers_;
  std::vector<uint32_t> items_;
  std::vector<uint32_t> dirty_;
  std::vector<uint32_t> clean_;
  // Open-addressed index over (worker, item): each cell holds a slot id or
  // kEmptySlot. Power-of-two sized, linear probing, grown at 3/4 load.
  std::vector<uint32_t> index_;
};

/// What a ResponseLog retains beyond the per-item tallies and the
/// positive-vote fingerprint, which every log keeps.
enum class RetentionPolicy {
  /// Every raw VoteEvent is kept in arrival order. Required by the replay
  /// consumers — PermuteTasks, log serialization, SWITCH diagnostics replays
  /// — and the default of a bare log.
  kFullEvents,
  /// The compacted per-(worker, item) count matrix is kept: steady-state
  /// memory is O(#distinct pairs), not O(#votes). What a pipeline whose
  /// panel reads the matrix (EM-VOTING) runs on. events() is unavailable.
  kCounts,
  /// Nothing beyond the tallies: memory O(#items), independent of history.
  /// What every other pipeline runs on. events() is unavailable.
  kTallies,
};

/// Aggregates derivable from the per-item tally columns in one pass: the
/// reference every incrementally kept count of a ResponseLog is audited
/// against (ResponseLog::AuditTallies). The loop is branch-free over two flat
/// SoA columns, so the autovectorizer can chew through it.
struct TallyScanResult {
  uint64_t nominal_count = 0;    // #items with at least one dirty vote
  uint64_t majority_count = 0;   // #items with 2 * positive > total
  uint64_t total_votes = 0;      // sum of the total column
  uint64_t positive_votes = 0;   // sum of the positive column
};
TallyScanResult ScanTallies(std::span<const uint32_t> positive,
                            std::span<const uint32_t> total);

/// The ordered collection of worker votes: the concrete realization of the
/// paper's response matrix `I` (plus arrival history under kFullEvents).
///
/// The one owner of the vote statistics every estimator reads (Section 3):
/// per-item tallies, the NOMINAL / VOTING counts, n^+ and the positive-vote
/// fingerprint f_j are maintained incrementally, so appending an event is
/// O(1) and estimators can be evaluated after every task without rescanning.
/// Both commit paths run the same per-vote update (CountVote) over a
/// VoteStats record: the whole log's on the serialized path, one stripe's
/// on the striped path. It bumps the item's flat tally counters, moves the
/// item from f_j to f_{j+1} on a dirty vote (counting the item into NOMINAL
/// when j == 0), moves VOTING with one branch-free compare of the item's
/// tallies before the vote, raises the task / worker bounds and, under
/// kCounts, folds the vote into the pair matrix.
///
/// ## Concurrent ingest (the striped commit path)
///
/// A kCounts or kTallies log can additionally be switched into *concurrent
/// ingest* mode (EnableConcurrentIngest): the item universe is partitioned
/// into cache-line-aligned stripes, each with its own lock and its own
/// VoteStats (under kCounts including its CompactedVoteStore shard).
/// `AppendConcurrent` then commits batches from any number of producer
/// threads at once — a commit touches only the stripes its items map to —
/// so N producers scale until the stripes saturate.
///
/// `PauseAndReconcile` blocks committers and sums the stripe VoteStats into
/// the log's (stripes partition the items, so every sum is exact). A publish
/// therefore costs O(stripes x deepest pile), independent of num_items. The
/// O(num_items) tally scan (ScanTallies) survives as an audit of every
/// reconciled count (AuditTallies); it runs at a log's first reconcile, then
/// once at least num_items() votes were committed since the last audit (at
/// most one item read per committed vote), on every checkpoint cut
/// (CheckpointFromLog), and at every reconcile in builds with DQM_DCHECK
/// live. The counts are cumulative, so a tally and a stripe count that
/// diverge never agree again: a committer racing the pause guard still
/// aborts, within num_items() committed votes.
///
/// Read accessors reflect the most recent reconcile and may only race-free
/// be called while the returned pause guard is held (or while no committer
/// is running). Tallies, counts and the fingerprint reconciled this way are
/// bit-identical to a serialized Append of the same votes in any order;
/// compacted-matrix *slot order* depends on the commit interleaving, which
/// float-summing consumers (EM) must tolerate.
class ResponseLog {
 public:
  /// `num_items` = N, the size of the record (or pair) universe.
  explicit ResponseLog(size_t num_items,
                       RetentionPolicy retention = RetentionPolicy::kFullEvents);

  size_t num_items() const { return positive_.size(); }
  size_t num_events() const { return stats_.num_events; }

  RetentionPolicy retention() const { return retention_; }

  /// Number of distinct tasks / workers seen so far (max id + 1).
  size_t num_tasks() const { return stats_.task_bound; }
  size_t num_workers() const { return stats_.worker_bound; }

  /// Appends one vote. `event.item` must be < num_items(). Serialized-path
  /// only: aborts once concurrent ingest is enabled (use AppendConcurrent).
  void Append(const VoteEvent& event);

  /// Restores `data` (a CheckpointData cut by CheckpointFromLog, or a
  /// decoded checkpoint file) into this empty log in O(items + pairs), on
  /// either ingest mode: it sets the tally columns, under kCounts adds each
  /// pair's counts in slot order to the matrix (to the shard of the stripe
  /// that owns the item, in concurrent ingest mode), and derives every
  /// VoteStats — fingerprint, NOMINAL, VOTING, totals, bounds — from its
  /// items' tallies. The result equals, field for field and slot for slot,
  /// a log that appended the checkpoint's counts as votes in slot order
  /// (dirty before clean, every vote at task num_tasks - 1, and under
  /// kTallies at worker num_workers - 1). A kPairs checkpoint restores
  /// into a kCounts or kTallies log, a kTallies one into a kTallies log
  /// only (it holds no pairs). FailedPrecondition for a kFullEvents log, a
  /// log that already holds votes, or a variant the log cannot hold;
  /// InvalidArgument when the item count or the column shape does not fit
  /// the log. Takes every stripe lock, so no committer may hold one.
  // Writes the stripe stats under the pause guard's stripe locks, which the
  // analysis cannot model (see LockAllStripes).
  Status RestoreCheckpoint(const CheckpointData& data)
      DQM_NO_THREAD_SAFETY_ANALYSIS;

  /// All events in arrival order. Only available under kFullEvents — a
  /// kCounts or kTallies log has, by design, forgotten arrival history
  /// (aborts via DQM_CHECK).
  const std::vector<VoteEvent>& events() const;

  /// The compacted per-(worker, item) count matrix, maintained incrementally
  /// under kCounts; null under every other policy and in concurrent ingest
  /// mode, where the matrix is sharded across stripes (consume it through
  /// AppendCountMatrixBlocks instead).
  const CompactedVoteStore* compacted() const {
    return retention_ == RetentionPolicy::kCounts && concurrent_ == nullptr
               ? &stats_.counts
               : nullptr;
  }

  /// Appends every live count-matrix block to `out`: the single compacted
  /// store serialized, one shard per stripe in concurrent ingest mode.
  /// kCounts only — any other log keeps no matrix, by construction, and
  /// aborts.
  // Reads every stripe's count shard without naming its lock: callers hold
  // the PauseAndReconcile guard (all stripe locks) or run quiescent — a
  // dynamic contract the analysis cannot express.
  void AppendCountMatrixBlocks(std::vector<const CompactedVoteStore*>& out)
      const DQM_NO_THREAD_SAFETY_ANALYSIS;

  /// n_i^+ — votes marking `item` dirty.
  uint32_t positive_votes(size_t item) const { return positive_[item]; }
  /// n_i — total votes on `item`.
  uint32_t total_votes(size_t item) const { return total_[item]; }
  /// The full per-item tally columns (length num_items()) — the SoA inputs
  /// of the vectorized tally audit (ScanTallies).
  std::span<const uint32_t> positive_counts() const { return positive_; }
  std::span<const uint32_t> total_counts() const { return total_; }
  /// n^+ — total positive votes across items.
  uint64_t total_positive_votes() const { return stats_.total_positive; }
  /// Total votes across items.
  uint64_t total_votes_all() const { return stats_.num_events; }

  /// The positive-vote fingerprint: entry j is f_j, the number of items with
  /// exactly j dirty votes (entry 0 is always 0; empty before the first
  /// dirty vote). Kept at commit on both paths — by Append serialized, and
  /// in concurrent ingest mode as the sum of the per-stripe histograms as of
  /// the most recent reconcile — so reading it costs nothing per item.
  std::span<const uint64_t> positive_fingerprint() const {
    return stats_.positive_f;
  }

  /// Majority label of `item`: dirty iff n_i^+ > n_i / 2 (strictly more
  /// dirty than clean votes; ties and unseen items default to clean, the
  /// paper's default label).
  bool MajorityDirty(size_t item) const {
    return positive_[item] * 2 > total_[item];
  }

  /// Approximate heap bytes retained for vote storage — the raw event
  /// vector under kFullEvents, the compacted matrix (including every
  /// concurrent-ingest stripe shard) under kCounts — plus the per-item
  /// tallies, the positive-vote fingerprint and, in concurrent ingest mode,
  /// the stripe fingerprints. The number the retention-policy memory
  /// comparison (bench_engine_throughput's long-session sweep) reports. In
  /// concurrent ingest mode each stripe's lock is taken (one at a time)
  /// while its shard is measured, so the read is safe against live
  /// committers; do NOT call it while holding the PauseAndReconcile guard
  /// (the stripe locks are not recursive).
  size_t RetainedBytes() const;

  /// NOMINAL(I): items with at least one dirty vote (Section 2.2.1).
  size_t NominalCount() const { return stats_.nominal; }

  /// VOTING(I) = c_majority: items whose majority label is dirty
  /// (Section 2.2.2).
  size_t MajorityCount() const {
    return static_cast<size_t>(stats_.majority);
  }

  // --- Concurrent ingest -------------------------------------------------

  /// Switches an empty kCounts or kTallies log into concurrent ingest mode
  /// with at most `num_stripes` item-range stripes (clamped so every stripe
  /// spans at least one cache line of tally counters; at least one stripe
  /// always exists). Under kCounts each stripe keeps a CompactedVoteStore
  /// shard; under kTallies a commit is nothing but flat counter increments.
  void EnableConcurrentIngest(size_t num_stripes);

  bool concurrent_ingest() const { return concurrent_ != nullptr; }

  /// Stripes actually in use (0 when concurrent ingest is not enabled).
  size_t num_stripes() const;

  /// Commits a batch of votes; safe to call from any number of threads
  /// concurrently once EnableConcurrentIngest was called. Items must be
  /// < num_items(). Each stripe the batch touches is locked once; stripes
  /// are visited starting from a rotating offset so concurrent committers
  /// do not convoy behind each other on stripe 0, and a stripe that is busy
  /// when first reached is retried after the rest of the batch instead of
  /// blocking.
  void AppendConcurrent(std::span<const VoteEvent> events);

  /// RAII guard blocking every AppendConcurrent committer while alive.
  class IngestPause {
   public:
    IngestPause() = default;
    IngestPause(IngestPause&& other) noexcept : log_(other.log_) {
      other.log_ = nullptr;
    }
    IngestPause& operator=(IngestPause&& other) noexcept {
      if (this != &other) {
        Release();
        log_ = other.log_;
        other.log_ = nullptr;
      }
      return *this;
    }
    IngestPause(const IngestPause&) = delete;
    IngestPause& operator=(const IngestPause&) = delete;
    ~IngestPause() { Release(); }

   private:
    friend class ResponseLog;
    explicit IngestPause(ResponseLog* log) : log_(log) {}
    void Release();
    ResponseLog* log_ = nullptr;
  };

  /// Locks every stripe (ascending — committers hold at most one stripe at
  /// a time, so this cannot deadlock) and folds the per-stripe counters,
  /// VOTING counts and fingerprints into the canonical aggregate fields in
  /// O(stripes x deepest pile); audits them with AuditTallies when the vote
  /// budget is spent (see the class comment). While the returned guard is
  /// alive committers block and every read accessor is race-free and
  /// current — the publish window in which the estimator pipeline runs.
  /// No-op (empty guard) when concurrent ingest is not enabled.
  [[nodiscard]] IngestPause PauseAndReconcile();

  /// Recomputes NOMINAL, VOTING, the vote totals and the fingerprint's
  /// sums with one O(num_items) ScanTallies pass and aborts (DQM_CHECK, in
  /// every build) unless the kept counts equal them. Serialized logs, or a
  /// striped log under its pause guard.
  void AuditTallies() const;

 private:
  /// A positive-vote fingerprint (entry j = #items with exactly j dirty
  /// votes), cache-line allocated so a stripe's copy never false-shares.
  using Fingerprint = std::vector<uint64_t, CacheAlignedAllocator<uint64_t>>;

  /// The vote statistics both commit paths keep at commit: the whole log's
  /// (serialized), or one stripe's (striped; ReconcileLocked sums them).
  struct VoteStats {
    /// The pair-count matrix (or this stripe's shard of it); empty unless
    /// kCounts.
    CompactedVoteStore counts;
    /// Positive-vote fingerprint (entry j = #items with exactly j dirty
    /// votes). A stripe's is cache-line allocated in whole lines, so
    /// neighboring committers never false-share it.
    Fingerprint positive_f;
    uint64_t num_events = 0;
    uint64_t total_positive = 0;
    /// NOMINAL: #items with at least one dirty vote.
    uint64_t nominal = 0;
    /// VOTING (#items with 2 * positive > total): a vote adds or subtracts
    /// one when it flips its item.
    int64_t majority = 0;
    /// max task id + 1
    uint64_t task_bound = 0;
    /// max worker id + 1
    uint64_t worker_bound = 0;
  };

  /// Moves an item with `from` dirty votes to `from + 1` in `f`: f_from to
  /// f_{from+1}. Requires f_from > 0 for from >= 1 (checked in every build).
  static void PromoteInFingerprint(Fingerprint& f, uint32_t from);

  /// The per-vote statistics update of both commit paths: the item's
  /// tallies plus `stats` (see the class comment). The caller owns `stats`
  /// and the item's tally lines (the stripe lock on the striped path).
  inline void CountVote(VoteStats& stats, const VoteEvent& event);

  /// Per-stripe mutable ingest state, aligned so two producers committing
  /// into neighboring stripes never bounce a cache line between cores (the
  /// "small fix" half of this: the stripe lock and its counters share the
  /// stripe's line, not their neighbor's).
  struct alignas(kCacheLineBytes) Stripe {
    /// kStripe rank: stripes nest inside the session mutex (publish) and
    /// under each other only in ascending address order (LockAllStripes).
    Mutex mutex{LockRank::kStripe, "response-log-stripe"};
    /// This stripe's items' statistics, kept at commit.
    VoteStats stats DQM_GUARDED_BY(mutex);
    // Lock telemetry, guarded by `mutex` like everything else in the stripe
    // (plain fields — the commit hot path pays no extra atomics for them).
    // Deltas since the last reconcile; ReconcileLocked folds them into the
    // per-stripe registry counters and zeroes them.
    uint64_t lock_acquisitions DQM_GUARDED_BY(mutex) = 0;
    /// acquisitions that had to block
    uint64_t lock_contended DQM_GUARDED_BY(mutex) = 0;
    /// blocked time (contended path only)
    uint64_t lock_wait_ns DQM_GUARDED_BY(mutex) = 0;
    /// held time, sampled 1 in 64
    uint64_t lock_hold_ns DQM_GUARDED_BY(mutex) = 0;
  };
  /// Per-stripe registry counters (created once at EnableConcurrentIngest,
  /// labeled stripe="<index>") the plain Stripe stats fold into.
  struct StripeMetrics {
    telemetry::Counter* acquisitions = nullptr;
    telemetry::Counter* contended = nullptr;
    telemetry::Counter* wait_ns = nullptr;
    telemetry::Counter* hold_ns = nullptr;
  };
  struct ConcurrentState {
    size_t num_stripes = 0;
    uint32_t stripe_shift = 0;  // stripe(item) = item >> stripe_shift
    std::atomic<uint64_t> rotation{0};
    std::unique_ptr<Stripe[]> stripes;
    std::vector<StripeMetrics> stripe_metrics;
  };

  /// Commits the votes `events[indices]` (all mapping to `stripe`) and
  /// counts the lock acquisition; the caller holds the stripe lock.
  void CommitToStripeLocked(Stripe& stripe, std::span<const VoteEvent> events,
                            std::span<const uint32_t> indices, bool timed)
      DQM_REQUIRES(stripe.mutex);

  // The next three work on the dynamically sized set of stripe locks (one
  // per stripe, acquired in a loop), which the thread-safety analysis cannot
  // model — the debug lock-order checker covers them at run time instead
  // (same-rank locks must be taken in ascending address order).
  void LockAllStripes() DQM_NO_THREAD_SAFETY_ANALYSIS;
  void UnlockAllStripes() DQM_NO_THREAD_SAFETY_ANALYSIS;
  /// Sums the stripe VoteStats into stats_; caller holds every stripe lock
  /// (via LockAllStripes).
  void ReconcileLocked() DQM_NO_THREAD_SAFETY_ANALYSIS;

  /// Per-item tally column whose base address starts on a cache line: the
  /// stripe partition (multiples of kCacheLineBytes / sizeof(uint32_t)
  /// items) then maps stripes to fully disjoint lines, so concurrent
  /// committers on neighboring stripes never false-share.
  using TallyColumn = std::vector<uint32_t, CacheAlignedAllocator<uint32_t>>;

  RetentionPolicy retention_;
  std::vector<VoteEvent> events_;    // kFullEvents only
  TallyColumn positive_;
  TallyColumn total_;
  /// Kept by Append serialized; in concurrent ingest mode the sum of the
  /// stripe stats (`counts` then stays empty: the matrix lives in the stripe
  /// shards), written only by ReconcileLocked.
  VoteStats stats_;
  /// Concurrent ingest: the reconcile at or past this many committed votes
  /// audits the tallies (0, so the first reconcile always does).
  uint64_t next_audit_events_ = 0;
  /// Heap-held so the log stays movable (a mutex is not).
  std::unique_ptr<ConcurrentState> concurrent_;
};

}  // namespace dqm::crowd

#endif  // DQM_CROWD_RESPONSE_LOG_H_
