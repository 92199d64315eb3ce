#ifndef DQM_CORE_DQM_H_
#define DQM_CORE_DQM_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "crowd/response_log.h"
#include "estimators/estimator.h"
#include "estimators/registry.h"

namespace dqm::core {

/// The user-facing Data Quality Metric (the library's quickstart API).
///
/// Feed it worker votes as they arrive; ask at any time how many errors the
/// dataset is estimated to contain, how many are still undetected, and what
/// that means as a quality score. Example:
///
///     dqm::core::DataQualityMetric metric(num_records);
///     for (auto& vote : collected_votes)
///       metric.AddVote(vote.task, vote.worker, vote.record, vote.is_dirty);
///     double total = metric.EstimatedTotalErrors();
///     double undetected = metric.EstimatedUndetectedErrors();
///     double quality = metric.QualityScore();  // in [0, 1]
///
/// The metric is a single-pass, multi-estimator pipeline: any number of
/// registered estimators can be attached to the same vote stream and every
/// AddVote feeds all of them at once, so comparing the paper's estimator
/// panel costs one log replay instead of one per method. The vote
/// statistics — tallies, n^+ and the positive-vote fingerprint — are kept
/// once, by the pipeline's log, and read by every estimator:
///
///     auto metric = dqm::core::DataQualityMetric::Create(
///         num_records, {"switch", "chao92", "vchao92?shift=2", "voting"});
///     for (auto& vote : collected_votes)
///       metric->AddVote(vote.task, vote.worker, vote.record, vote.is_dirty);
///     dqm::core::QualityReport report = metric->Report();
///
/// The single-method accessors (EstimatedTotalErrors etc.) always answer for
/// the *primary* estimator — the first spec.
///
/// The log retains what the panel reads and nothing more: the pair matrix
/// (crowd::RetentionPolicy::kCounts) when some estimator's registry entry
/// sets wants_pair_counts (EM-VOTING), only the tallies (kTallies)
/// otherwise. Arrival history is never kept; replay consumers keep their
/// own event vectors.
class DataQualityMetric {
 public:
  /// `num_items` — size of the record (or candidate-pair) universe N. The
  /// quickstart form: the paper's SWITCH estimator (the "switch" spec).
  explicit DataQualityMetric(size_t num_items);

  /// Builds a multi-estimator pipeline from registry spec strings. The
  /// first spec is the primary estimator (the one the single-method
  /// accessors answer for). InvalidArgument when `specs` is empty or a
  /// param is malformed; NotFound for unregistered estimator names.
  static Result<DataQualityMetric> Create(size_t num_items,
                                          std::span<const std::string> specs);
  /// Braced-list convenience: Create(n, {"switch", "chao92"}).
  static Result<DataQualityMetric> Create(
      size_t num_items, std::initializer_list<std::string> specs);
  /// As above from a comma-separated list ("switch,chao92,voting").
  static Result<DataQualityMetric> Create(size_t num_items,
                                          const std::string& spec_list);

  DataQualityMetric(DataQualityMetric&&) noexcept = default;
  DataQualityMetric& operator=(DataQualityMetric&&) noexcept = default;

  /// Records one worker vote: fans it out to every observing estimator,
  /// then appends it to the log (the TotalErrorEstimator::Observe ordering
  /// contract). Tasks must arrive in non-decreasing task id order
  /// (append-only stream).
  void AddVote(uint32_t task, uint32_t worker, uint32_t item, bool is_dirty);

  // --- Concurrent ingest (the engine's striped commit path) --------------

  /// True when this pipeline can ingest from many producer threads at once:
  /// no attached estimator needs the per-event Observe fan-out
  /// (order-sensitive estimators like SWITCH do). Such panels are
  /// producer-order independent: their state is a function of the
  /// per-(worker, item) vote multiset, so tallies and tally-derived
  /// estimates from any commit interleaving are bit-identical to a
  /// serialized feed.
  bool SupportsConcurrentIngest() const;

  /// Switches the internal log to striped concurrent ingest (requires
  /// SupportsConcurrentIngest() and no votes yet; aborts otherwise). The
  /// stripes keep per-(worker, item) matrix shards iff the log is kCounts.
  /// After this, votes arrive through CommitVotes — AddVote aborts.
  void EnableConcurrentIngest(size_t num_stripes);

  /// Commits a batch in order — the engine session's one commit call. On a
  /// striped pipeline it is the thread-safe stripe commit
  /// (ResponseLog::AppendConcurrent); otherwise each vote takes AddVote's
  /// step (the Observe fan-out, then the log append), and the caller
  /// serializes calls.
  /// Item ids must be < num_items(); the caller validates (the engine
  /// session does).
  void CommitVotes(std::span<const crowd::VoteEvent> votes);

  /// Restores a checkpoint into this pipeline's empty log
  /// (crowd::ResponseLog::RestoreCheckpoint), in O(items + pairs) on either
  /// ingest mode. FailedPrecondition for a panel with an order-sensitive
  /// estimator (SWITCH): it keeps state the checkpoint's counts do not
  /// carry.
  Status RestoreCheckpoint(const crowd::CheckpointData& data);

  /// Pauses committers and reconciles the striped log, which sums the
  /// positive-vote fingerprints its stripes keep at commit (Debug builds
  /// also compare the sum bucket by bucket with a rebuild from the
  /// tallies). Estimates / Report calls are valid while — and only while —
  /// the returned guard lives.
  /// No-op guard when concurrent ingest is not enabled.
  [[nodiscard]] crowd::ResponseLog::IngestPause ReconcileForEstimates();

  bool concurrent_ingest() const { return log_->concurrent_ingest(); }

  /// Estimated total number of dirty items |R_dirty| under the primary
  /// estimator.
  double EstimatedTotalErrors() const;

  /// Estimated errors not yet reflected in the current majority consensus:
  /// max(EstimatedTotalErrors() - MajorityCount(), 0). The "how many errors
  /// would more workers still find" number.
  double EstimatedUndetectedErrors() const;

  /// Quality score in [0, 1]: fraction of records whose current consensus
  /// label is believed correct, 1 - undetected/N.
  double QualityScore() const;

  /// One row per attached estimator plus the shared descriptive counts —
  /// the same numbers N independent single-method replays would produce,
  /// from one pass over the stream.
  struct EstimatorReport {
    /// Display name ("SWITCH", "CHAO92", ...).
    std::string name;
    /// The spec string the estimator was built from.
    std::string spec;
    double total_errors = 0.0;
    double undetected_errors = 0.0;
    double quality_score = 1.0;
  };
  struct QualityReport {
    uint64_t num_votes = 0;
    size_t num_items = 0;
    size_t majority_count = 0;
    size_t nominal_count = 0;
    /// Rows in spec order; row 0 is the primary estimator.
    std::vector<EstimatorReport> estimators;
  };
  QualityReport Report() const;

  /// Allocation-free form of Report() for hot publish paths: refreshes the
  /// numeric fields of `report` in place, reusing its row storage. The row
  /// names/specs are (re)written only when `report` does not already carry
  /// one row per attached estimator — pass the same QualityReport object to
  /// the same metric every call (the engine's per-session scratch pattern);
  /// a report previously filled by a *different* metric must be reset to
  /// `{}` first.
  void ReportInto(QualityReport& report) const;

  /// Number of attached estimators (>= 1).
  size_t num_estimators() const { return rows_.size(); }

  /// Display names in spec order (index 0 = primary).
  std::vector<std::string> estimator_names() const;

  /// The spec strings the pipeline was built from, verbatim, in order —
  /// enough to rebuild the same panel elsewhere.
  std::vector<std::string> specs() const;

  /// Descriptive counts from the underlying log.
  size_t MajorityCount() const { return log_->MajorityCount(); }
  size_t NominalCount() const { return log_->NominalCount(); }
  size_t num_votes() const { return log_->num_events(); }
  size_t num_items() const { return log_->num_items(); }

  /// The underlying log: the vote statistics every estimator reads.
  const crowd::ResponseLog& log() const { return *log_; }

  /// Name of the primary estimator.
  std::string_view method_name() const {
    return rows_.front().estimator->name();
  }

 private:
  struct Row {
    std::string spec;
    std::unique_ptr<estimators::TotalErrorEstimator> estimator;
  };

  DataQualityMetric() = default;

  /// Builds the log and the panel; shared by Create and the quickstart
  /// constructor.
  Status AttachSpecs(size_t num_items, std::span<const std::string> specs);

  /// The serialized path's per-vote step, shared by AddVote and
  /// CommitVotes: the Observe fan-out, then the log append.
  void ObserveAndAppend(const crowd::VoteEvent& event);

  /// Heap-pinned: estimators hold pointers to it, so the metric object
  /// itself stays cheaply movable.
  std::unique_ptr<crowd::ResponseLog> log_;
  std::vector<Row> rows_;
  /// Estimators whose needs_observe() is true, in row order — the per-event
  /// fan-out list (estimators that only read the view are skipped).
  std::vector<estimators::TotalErrorEstimator*> observing_;
};

}  // namespace dqm::core

#endif  // DQM_CORE_DQM_H_
