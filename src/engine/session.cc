#include "engine/session.h"

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "crowd/wal.h"
#include "engine/durability.h"
#include "telemetry/metric_names.h"

namespace dqm::engine {

SnapshotCell::SnapshotCell(size_t num_estimators, size_t num_items)
    : num_estimators_(num_estimators),
      words_(std::make_unique<std::atomic<uint64_t>[]>(num_words())) {
  // invariant: a metric always carries at least one estimator.
  DQM_CHECK_GT(num_estimators_, 0u);
  core::DataQualityMetric::QualityReport empty;
  empty.num_items = num_items;
  empty.estimators.resize(num_estimators);
  Store(0, empty);
}

void SnapshotCell::Store(
    uint64_t version, const core::DataQualityMetric::QualityReport& report) {
  // invariant: the cell is sized for this pipeline's estimator count.
  DQM_CHECK_EQ(report.estimators.size(), num_estimators_);
  // Boehm's seqlock recipe ("Can seqlocks get along with programming
  // language memory models?"): odd sequence marks a write in flight.
  uint64_t seq = seq_.load(std::memory_order_relaxed);
  seq_.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  auto put = [this](size_t index, uint64_t word) {
    words_[index].store(word, std::memory_order_relaxed);
  };
  const core::DataQualityMetric::EstimatorReport& primary =
      report.estimators.front();
  put(0, version);
  put(1, report.num_votes);
  put(2, static_cast<uint64_t>(report.num_items));
  put(3, static_cast<uint64_t>(report.majority_count));
  put(4, static_cast<uint64_t>(report.nominal_count));
  put(5, std::bit_cast<uint64_t>(primary.total_errors));
  put(6, std::bit_cast<uint64_t>(primary.undetected_errors));
  put(7, std::bit_cast<uint64_t>(primary.quality_score));
  for (size_t i = 0; i < num_estimators_; ++i) {
    const core::DataQualityMetric::EstimatorReport& row =
        report.estimators[i];
    put(kHeaderWords + 3 * i + 0, std::bit_cast<uint64_t>(row.total_errors));
    put(kHeaderWords + 3 * i + 1,
        std::bit_cast<uint64_t>(row.undetected_errors));
    put(kHeaderWords + 3 * i + 2, std::bit_cast<uint64_t>(row.quality_score));
  }
  seq_.store(seq + 2, std::memory_order_release);
}

Snapshot SnapshotCell::Load() const {
  Snapshot snapshot;
  LoadInto(snapshot);
  return snapshot;
}

void SnapshotCell::LoadInto(Snapshot& snapshot) const {
  // Retries (a Store in flight, or one that landed mid-copy) are the
  // seqlock's contention signal; the counter lives at function scope so the
  // metric is registered — at zero — from the first uncontended read.
  static telemetry::Counter* retries =
      telemetry::MetricsRegistry::Global().GetCounter(
          telemetry::metric_names::kSeqlockReadRetriesTotal);
  // The rows vector is sized before the retry loop (a no-op when the caller
  // reuses a Snapshot): a hot reader polling the cell pays no allocation
  // per read, let alone per retry.
  snapshot.estimates.resize(num_estimators_);
  for (;;) {
    uint64_t before = seq_.load(std::memory_order_acquire);
    if (before & 1) {
      retries->Increment();
      std::this_thread::yield();  // a Store is mid-flight
      continue;
    }
    auto get = [this](size_t index) {
      return words_[index].load(std::memory_order_relaxed);
    };
    snapshot.version = get(0);
    snapshot.num_votes = get(1);
    snapshot.num_items = static_cast<size_t>(get(2));
    snapshot.majority_count = static_cast<size_t>(get(3));
    snapshot.nominal_count = static_cast<size_t>(get(4));
    snapshot.estimated_total_errors = std::bit_cast<double>(get(5));
    snapshot.estimated_undetected_errors = std::bit_cast<double>(get(6));
    snapshot.quality_score = std::bit_cast<double>(get(7));
    for (size_t i = 0; i < num_estimators_; ++i) {
      EstimatorEstimate& row = snapshot.estimates[i];
      row.total_errors = std::bit_cast<double>(get(kHeaderWords + 3 * i));
      row.undetected_errors =
          std::bit_cast<double>(get(kHeaderWords + 3 * i + 1));
      row.quality_score =
          std::bit_cast<double>(get(kHeaderWords + 3 * i + 2));
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) == before) return;
    retries->Increment();
  }
}

Result<SessionOptions> ParsePublishCadenceSpec(std::string_view spec,
                                               SessionOptions base) {
  if (spec == "every_batch") {
    base.cadence = PublishCadence::kEveryBatch;
    return base;
  }
  if (spec == "manual") {
    base.cadence = PublishCadence::kManual;
    return base;
  }
  constexpr std::string_view kEveryN = "every_n_votes";
  if (spec.substr(0, kEveryN.size()) == kEveryN) {
    base.cadence = PublishCadence::kEveryNVotes;
    std::string_view rest = spec.substr(kEveryN.size());
    if (rest.empty()) return base;  // keep the default threshold
    if (rest[0] != ':') {
      return Status::InvalidArgument(StrFormat(
          "bad publish cadence '%.*s': expected every_n_votes[:N]",
          static_cast<int>(spec.size()), spec.data()));
    }
    rest.remove_prefix(1);
    DQM_ASSIGN_OR_RETURN(uint64_t n,
                         ParseU64(rest, "publish cadence every_n_votes:N"));
    if (n == 0) {
      return Status::InvalidArgument(
          "publish cadence every_n_votes: N must be positive");
    }
    base.publish_every_votes = n;
    return base;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown publish cadence '%.*s' (every_batch | every_n_votes[:N] | "
      "manual)",
      static_cast<int>(spec.size()), spec.data()));
}

const char* DurabilityFailurePolicyName(DurabilityFailurePolicy policy) {
  switch (policy) {
    case DurabilityFailurePolicy::kFailStop:
      return "fail_stop";
    case DurabilityFailurePolicy::kDegradeToVolatile:
      return "degrade_to_volatile";
  }
  return "fail_stop";
}

Result<DurabilityFailurePolicy> ParseDurabilityFailurePolicy(
    std::string_view text) {
  if (text == "fail_stop") return DurabilityFailurePolicy::kFailStop;
  if (text == "degrade_to_volatile") {
    return DurabilityFailurePolicy::kDegradeToVolatile;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown durability failure policy '%.*s' (want fail_stop or "
      "degrade_to_volatile)",
      static_cast<int>(text.size()), text.data()));
}

Result<SessionOptions> ParseWalGroupCommitSpec(std::string_view spec,
                                               SessionOptions base) {
  std::string_view digits = spec;
  const bool is_ms = digits.ends_with("ms");
  if (is_ms) digits.remove_suffix(2);
  DQM_ASSIGN_OR_RETURN(uint64_t n,
                       ParseU64(digits, "WAL group commit (N or Nms)"));
  if (n == 0) {
    return Status::InvalidArgument(
        "WAL group commit threshold must be positive");
  }
  if (is_ms) {
    base.wal_group_commit_ms = n;
  } else {
    base.wal_group_commit_votes = n;
  }
  return base;
}

namespace {

/// Engine-wide hot-path metrics, resolved once. Latency histograms are fed
/// only while telemetry::Enabled() (they need clock reads); the counters
/// and the size histogram are always on — their per-hit cost is one
/// relaxed fetch_add (plus a CLZ for the histogram), cheaper than a branch
/// worth skipping them over.
struct SessionMetrics {
  telemetry::Counter* batches;
  telemetry::Counter* votes;
  telemetry::Counter* publishes;
  telemetry::Counter* deferred;  // cadence said "not yet" after a commit
  telemetry::Histogram* batch_votes;
  telemetry::Histogram* commit_ns;
  telemetry::Histogram* publish_ns;
  telemetry::Histogram* estimate_ns;

  SessionMetrics() {
    auto& registry = telemetry::MetricsRegistry::Global();
    batches = registry.GetCounter(telemetry::metric_names::kCommitBatchesTotal);
    votes = registry.GetCounter(telemetry::metric_names::kCommitVotesTotal);
    publishes = registry.GetCounter(telemetry::metric_names::kPublishesTotal);
    deferred = registry.GetCounter(telemetry::metric_names::kPublishDeferredTotal);
    batch_votes = registry.GetHistogram(telemetry::metric_names::kCommitBatchVotes);
    commit_ns = registry.GetHistogram(telemetry::metric_names::kCommitLatencyNs);
    publish_ns = registry.GetHistogram(telemetry::metric_names::kPublishLatencyNs);
    estimate_ns = registry.GetHistogram(telemetry::metric_names::kPublishEstimateNs);
  }
};

SessionMetrics& Metrics() {
  static SessionMetrics* metrics = new SessionMetrics();  // never destroyed
  return *metrics;
}

/// True when a batch of `batch` votes that brought the committed total to
/// `after` crossed a multiple of `every` (clamped to >= 1): the schedule of
/// kEveryNVotes publishes and of checkpoints. The committer whose batch
/// crosses pays; a pure function of the committed total, so striped and
/// serialized sessions trigger at identical points for identical input.
bool CrossesMultiple(uint64_t after, uint64_t batch, uint64_t every) {
  const uint64_t n = std::max<uint64_t>(every, 1);
  return (after - batch) / n != after / n;
}

/// The InvalidArgument for a batch that fails crowd::VotesInBounds, naming
/// its first offending vote — built only once the batch is being rejected,
/// so the commit path pays one branch-free pass.
Status RejectedBatch(const std::string& session,
                     std::span<const crowd::VoteEvent> votes,
                     size_t num_items) {
  for (const crowd::VoteEvent& event : votes) {
    Status bounds = crowd::ValidateVoteBounds(event.task, event.worker,
                                              event.item, num_items);
    if (bounds.ok() && static_cast<uint8_t>(event.vote) > 1) {
      bounds = Status::OutOfRange(
          StrFormat("vote byte %u is neither 0 (clean) nor 1 (dirty)",
                    static_cast<unsigned>(event.vote)));
    }
    if (!bounds.ok()) {
      return Status::InvalidArgument(StrFormat(
          "session '%s': %s", session.c_str(), bounds.message().c_str()));
    }
  }
  return Status::InvalidArgument(StrFormat(
      "session '%s': batch fails the WAL's vote bounds", session.c_str()));
}

}  // namespace

EstimationSession::EstimationSession(
    std::string name, core::DataQualityMetric metric,
    const SessionOptions& session_options,
    std::unique_ptr<SessionDurability> durability)
    : name_(std::move(name)),
      num_items_(metric.num_items()),
      options_(session_options),
      durability_(std::move(durability)),
      metric_(std::move(metric)),
      estimator_names_(metric_.estimator_names()),
      snapshot_(estimator_names_.size(), num_items_) {
  // invariant: options arrive resolved (DqmEngine::StartSession): a
  // checkpoint serializes the counts the log keeps, which cannot restore an
  // order-sensitive panel (SWITCH), so such a panel never checkpoints.
  DQM_CHECK(options_.checkpoint_every_votes == 0 ||
            metric_.SupportsConcurrentIngest())
      << "checkpoint_every_votes must resolve to 0 for an order-sensitive "
         "panel";
  if (options_.ingest_stripes >= 2) {
    metric_.EnableConcurrentIngest(options_.ingest_stripes);
    striped_ = true;
  }
  // Per-session×estimator exported quality gauges, refreshed on every
  // publish. Acquired (refcounted), not pinned: when the last session
  // carrying a (session, estimator) identity dies, the gauge leaves the
  // exposition — closed sessions don't haunt the metrics page.
  auto& registry = telemetry::MetricsRegistry::Global();
  quality_gauges_.reserve(estimator_names_.size());
  total_errors_gauges_.reserve(estimator_names_.size());
  for (const std::string& estimator : estimator_names_) {
    telemetry::LabelSet labels{{"estimator", estimator}, {"session", name_}};
    quality_gauges_.push_back(
        registry.AcquireGauge(telemetry::metric_names::kSessionQuality, labels));
    quality_gauges_.back()->Set(1.0);  // empty session: all labels "correct"
    total_errors_gauges_.push_back(
        registry.AcquireGauge(telemetry::metric_names::kSessionTotalErrors, labels));
  }
}

EstimationSession::~EstimationSession() {
  auto& registry = telemetry::MetricsRegistry::Global();
  for (const std::string& estimator : estimator_names_) {
    telemetry::LabelSet labels{{"estimator", estimator}, {"session", name_}};
    registry.ReleaseGauge(telemetry::metric_names::kSessionQuality, labels);
    registry.ReleaseGauge(telemetry::metric_names::kSessionTotalErrors, labels);
  }
}

Status EstimationSession::AddVotes(std::span<const crowd::VoteEvent> votes) {
  // Validate up front so a bad batch is rejected atomically: the metric's own
  // range check aborts the process (DQM_CHECK), which a serving layer must
  // turn into a recoverable error instead. The rule is the WAL's own
  // (crowd::VotesInBounds), so no acknowledged vote is one that recovery or
  // the replication scan would later cut off as a torn record.
  if (!crowd::VotesInBounds(votes, num_items_)) [[unlikely]] {
    return RejectedBatch(name_, votes, num_items_);
  }
  if (votes.empty()) return Status::OK();

  SessionMetrics& tm = Metrics();
  const bool timed = telemetry::Enabled();
  // The commit span is end to end: WAL append (with the fsync and ship a
  // group-commit boundary runs inside it) plus the apply.
  const uint64_t commit_start = timed ? telemetry::NowNanos() : 0;
  // Write-ahead first: the batch is in the WAL (buffer or disk, per the
  // group-commit cadence) before a single vote is applied, so the log on
  // disk is always a superset of the applied state. A WAL failure rejects
  // the batch here.
  auto log_and_apply = [&]() -> Status {
    if (durability_ != nullptr) {
      DQM_RETURN_NOT_OK(durability_->AppendBatch(votes));
    }
    metric_.CommitVotes(votes);
    if (durability_ != nullptr) durability_->NoteApplied();
    return Status::OK();
  };
  Status committed;
  if (striped_) {
    // Stripe-local commits take no session mutex: N producers commit into
    // this session concurrently, bounded by stripe collisions rather than
    // lock hand-off latency. The checkpoint quiesce drains their
    // append->apply window through the WAL's in-flight count (NoteApplied).
    committed = log_and_apply();
  } else {
    // The order-sensitive apply runs under the session mutex, and the WAL
    // append with it (session -> WAL nests in rank order), so a checkpoint,
    // which holds the session mutex, never waits on a serialized batch.
    MutexLock lock(mutex_);
    committed = log_and_apply();
  }
  if (!committed.ok()) return committed;
  const uint64_t after =
      committed_votes_.fetch_add(votes.size(), std::memory_order_relaxed) +
      votes.size();
  tm.batches->Increment();
  tm.votes->Add(votes.size());
  tm.batch_votes->Record(votes.size());
  if (timed) {
    const uint64_t commit_end = telemetry::NowNanos();
    tm.commit_ns->Record(commit_end - commit_start);
    flight_.Record(telemetry::SpanKind::kCommit, commit_start, commit_end,
                   votes.size());
  }
  switch (options_.cadence) {
    case PublishCadence::kEveryBatch:
      Publish();
      break;
    case PublishCadence::kEveryNVotes:
      if (CrossesMultiple(after, votes.size(), options_.publish_every_votes)) {
        Publish();
      } else {
        tm.deferred->Increment();
      }
      break;
    case PublishCadence::kManual:
      tm.deferred->Increment();
      break;
  }
  if (durability_ != nullptr && options_.checkpoint_every_votes > 0) {
    MaybeCheckpoint(after, votes.size());
  }
  return Status::OK();
}

void EstimationSession::MaybeCheckpoint(uint64_t after, uint64_t batch) {
  if (!CrossesMultiple(after, batch, options_.checkpoint_every_votes)) return;
  MutexLock lock(mutex_);
  Status status = CheckpointLocked();
  if (!status.ok()) {
    // The batch is applied AND write-ahead logged, so failing to compact
    // the WAL into a snapshot loses nothing — recovery just replays a
    // longer tail. Log and serve on.
    DQM_LOG(Error) << "session '" << name_
                   << "': checkpoint failed: " << status.message();
  }
}

Status EstimationSession::CheckpointLocked() {
  return durability_->CommitCheckpoint(
      [this](uint64_t generation) -> Result<crowd::CheckpointData> {
        // Cut the snapshot with committers paused: the WAL quiesce already
        // drained appended-but-unapplied batches, the reconcile pause stops
        // the striped committers mid-air (serialized sessions are quiet
        // under mutex_ by construction), and the fold brings every derived
        // aggregate current before it is serialized.
        crowd::ResponseLog::IngestPause pause =
            metric_.ReconcileForEstimates();
        return crowd::CheckpointFromLog(metric_.log(), generation);
      });
}

void EstimationSession::Publish() {
  MutexLock lock(mutex_);
  const bool timed = telemetry::Enabled();
  const uint64_t publish_start = timed ? telemetry::NowNanos() : 0;
  {
    // Pause striped committers for the reconcile + report window:
    // estimators read the shared log directly, so the cut must hold still
    // while the pipeline runs (serialized committers are held off by
    // mutex_; their pause guard is empty). Committers blocked here resume
    // the moment the guard drops. (The pause/fold phase histograms are
    // recorded inside PauseAndReconcile, where the phases live.)
    crowd::ResponseLog::IngestPause pause = metric_.ReconcileForEstimates();
    if (timed && striped_) {
      flight_.Record(telemetry::SpanKind::kReconcile, publish_start,
                     telemetry::NowNanos(), metric_.num_votes());
    }
    PublishLocked();
  }
  if (timed) {
    const uint64_t publish_end = telemetry::NowNanos();
    Metrics().publish_ns->Record(publish_end - publish_start);
    flight_.Record(telemetry::SpanKind::kPublish, publish_start, publish_end,
                   version_);
  }
}

void EstimationSession::PublishLocked() {
  const bool timed = telemetry::Enabled();
  const uint64_t estimate_start = timed ? telemetry::NowNanos() : 0;
  ++version_;
  // Refresh the per-session scratch in place and store it straight into
  // the cell — after the first publish the whole publish path touches no
  // heap. Names are deliberately not carried here: they are immutable per
  // session and the cell does not store them (see SnapshotInto).
  metric_.ReportInto(report_scratch_);
  snapshot_.Store(version_, report_scratch_);
  // Export the freshly published estimates as per-session×estimator gauges
  // — the ChungKK17 quality signal as a first-class time series. Relaxed
  // stores; off the commit hot path (publishes are already coalesced).
  for (size_t i = 0; i < report_scratch_.estimators.size(); ++i) {
    quality_gauges_[i]->Set(report_scratch_.estimators[i].quality_score);
    total_errors_gauges_[i]->Set(report_scratch_.estimators[i].total_errors);
  }
  Metrics().publishes->Increment();
  if (timed) {
    const uint64_t estimate_end = telemetry::NowNanos();
    Metrics().estimate_ns->Record(estimate_end - estimate_start);
    flight_.Record(telemetry::SpanKind::kEstimate, estimate_start,
                   estimate_end, version_);
  }
}

Result<RecoveryStats> EstimationSession::RecoverFromDurability() {
  if (durability_ == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("session '%s' is not durable", name_.c_str()));
  }
  RecoveryStats stats;
  {
    // Recover invokes the restore callback under wal_mutex_ (rank 250), so
    // the callback must not acquire the session mutex (rank 200) — that is
    // the inversion of the session -> WAL edge the commit/checkpoint paths
    // establish. Instead hold mutex_ across the whole Recover call: same
    // ascending edge, and it gives the serialized replay the exact
    // exclusion the serialized commit path has. A striped commit only takes
    // per-stripe locks (rank 300), still ascending.
    MutexLock lock(mutex_);
    auto restore_checkpoint = [this](const crowd::CheckpointData& data) {
      return Restore(data);
    };
    auto replay = [this](std::span<const crowd::VoteEvent> votes) -> Status {
      metric_.CommitVotes(votes);
      committed_votes_.fetch_add(votes.size(), std::memory_order_relaxed);
      return Status::OK();
    };
    DQM_ASSIGN_OR_RETURN(
        stats, durability_->Recover(num_items_, restore_checkpoint, replay));
  }
  // Recovery replays into the log without publishing; one publish at the
  // end brings the snapshot (and the exported quality gauges) current so
  // queries against the recovered session see the recovered estimates.
  Publish();
  return stats;
}

Status EstimationSession::FlushDurability() {
  if (durability_ == nullptr) return Status::OK();
  return durability_->Flush();
}

Result<crowd::CheckpointData> EstimationSession::ExportState() {
  // An order-sensitive estimator (SWITCH) keeps state the compacted counts
  // do not carry.
  if (!metric_.SupportsConcurrentIngest()) {
    return Status::FailedPrecondition(StrFormat(
        "session '%s': the panel has an order-sensitive estimator; its state "
        "cannot be rebuilt from compacted counts",
        name_.c_str()));
  }
  // Same quiescing discipline as a checkpoint cut, minus the WAL protocol:
  // mutex_ stills the serialized path, and the reconcile pause stills
  // striped committers.
  MutexLock lock(mutex_);
  crowd::ResponseLog::IngestPause pause = metric_.ReconcileForEstimates();
  return crowd::CheckpointFromLog(metric_.log(), /*wal_generation=*/1);
}

Status EstimationSession::Restore(const crowd::CheckpointData& data) {
  // Refuses an order-sensitive panel and a log that holds votes.
  DQM_RETURN_NOT_OK(metric_.RestoreCheckpoint(data));
  committed_votes_.fetch_add(data.num_events, std::memory_order_relaxed);
  return Status::OK();
}

Status EstimationSession::ImportState(const crowd::CheckpointData& state) {
  {
    MutexLock lock(mutex_);
    DQM_RETURN_NOT_OK(Restore(state));
    // The restored votes exist in memory only: a durable session makes
    // them its first checkpoint, which is what recovery reads back.
    if (durability_ != nullptr) DQM_RETURN_NOT_OK(CheckpointLocked());
  }
  Publish();
  return Status::OK();
}

size_t EstimationSession::RetainedBytes() const {
  // The session mutex excludes concurrent publishes (whose pause guard
  // holds every stripe lock — the log's RetainedBytes takes them one at a
  // time and must not nest inside the pause). Committers racing on the
  // striped path hold single stripe locks only, which the log read waits
  // out per stripe.
  MutexLock lock(mutex_);
  size_t bytes = metric_.log().RetainedBytes();
  // WAL buffer + replay scratch ride on the same accounting: durable
  // sessions retain them for the session's lifetime (session -> WAL nests
  // in rank order).
  if (durability_ != nullptr) bytes += durability_->RetainedBytes();
  return bytes;
}

Snapshot EstimationSession::snapshot() const {
  Snapshot snapshot;
  SnapshotInto(snapshot);
  return snapshot;
}

void EstimationSession::SnapshotInto(Snapshot& out) const {
  snapshot_.LoadInto(out);
  out.method_name = estimator_names_.front();
  for (size_t i = 0; i < out.estimates.size(); ++i) {
    out.estimates[i].name = estimator_names_[i];
  }
  // Durability health rides outside the seqlock cell: set it every read so
  // a reused `out` never carries a stale flag.
  if (durability_ != nullptr) {
    out.durability_degraded = durability_->degraded();
    out.dropped_durability_votes = durability_->dropped_durability_votes();
  } else {
    out.durability_degraded = false;
    out.dropped_durability_votes = 0;
  }
}

}  // namespace dqm::engine
