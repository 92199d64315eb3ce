#include "core/dqm.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/logging.h"
#include "estimators/f_statistics.h"

namespace dqm::core {

namespace {

/// Debug reference for the striped fingerprint: true iff `fingerprint`
/// equals, bucket by bucket, the O(items) rebuild from the per-item
/// dirty-vote counts.
[[maybe_unused]] bool MatchesRebuild(std::span<const uint64_t> fingerprint,
                                     std::span<const uint32_t> counts) {
  estimators::FStatistics reference;
  reference.RebuildFromCounts(counts);
  std::span<const uint64_t> expected = reference.fingerprint();
  for (size_t j = 0; j < std::max(fingerprint.size(), expected.size()); ++j) {
    if (estimators::FingerprintAt(fingerprint, j) !=
        estimators::FingerprintAt(expected, j)) {
      return false;
    }
  }
  return true;
}

}  // namespace

DataQualityMetric::DataQualityMetric(size_t num_items) {
  const std::string spec = "switch";
  Status status =
      AttachSpecs(num_items, std::span<const std::string>(&spec, 1));
  DQM_CHECK(status.ok()) << status.ToString();
}

Result<DataQualityMetric> DataQualityMetric::Create(
    size_t num_items, std::span<const std::string> specs) {
  DataQualityMetric metric;
  DQM_RETURN_NOT_OK(metric.AttachSpecs(num_items, specs));
  return metric;
}

Result<DataQualityMetric> DataQualityMetric::Create(
    size_t num_items, std::initializer_list<std::string> specs) {
  std::vector<std::string> copy(specs);
  return Create(num_items, std::span<const std::string>(copy));
}

Result<DataQualityMetric> DataQualityMetric::Create(
    size_t num_items, const std::string& spec_list) {
  std::vector<std::string> specs = estimators::SplitSpecList(spec_list);
  return Create(num_items, std::span<const std::string>(specs));
}

Status DataQualityMetric::AttachSpecs(size_t num_items,
                                      std::span<const std::string> specs) {
  if (specs.empty()) {
    return Status::InvalidArgument(
        "DataQualityMetric needs at least one estimator spec");
  }
  const estimators::EstimatorRegistry& registry =
      estimators::EstimatorRegistry::Global();

  // Pass 1: parse and resolve every spec so the pipeline knows — before the
  // log is built — whether it must retain the pair matrix.
  std::vector<estimators::EstimatorSpec> parsed;
  parsed.reserve(specs.size());
  bool wants_pair_counts = false;
  for (const std::string& spec : specs) {
    DQM_ASSIGN_OR_RETURN(estimators::EstimatorSpec one,
                         estimators::ParseEstimatorSpec(spec));
    DQM_ASSIGN_OR_RETURN(
        std::shared_ptr<const estimators::EstimatorRegistry::Entry> entry,
        registry.Find(one.name));
    wants_pair_counts = wants_pair_counts || entry->wants_pair_counts;
    parsed.push_back(std::move(one));
  }
  log_ = std::make_unique<crowd::ResponseLog>(
      num_items, wants_pair_counts ? crowd::RetentionPolicy::kCounts
                                   : crowd::RetentionPolicy::kTallies);

  // Pass 2: build each estimator against the log.
  for (size_t i = 0; i < parsed.size(); ++i) {
    DQM_ASSIGN_OR_RETURN(
        std::unique_ptr<estimators::TotalErrorEstimator> estimator,
        registry.Create(parsed[i], *log_));
    rows_.push_back(Row{specs[i], std::move(estimator)});
    if (rows_.back().estimator->needs_observe()) {
      observing_.push_back(rows_.back().estimator.get());
    }
  }
  return Status::OK();
}

bool DataQualityMetric::SupportsConcurrentIngest() const {
  return observing_.empty();
}

void DataQualityMetric::EnableConcurrentIngest(size_t num_stripes) {
  DQM_CHECK(SupportsConcurrentIngest())
      << "panel has an order-sensitive (observing) estimator; concurrent "
         "ingest would break it";
  log_->EnableConcurrentIngest(num_stripes);
}

void DataQualityMetric::CommitVotes(std::span<const crowd::VoteEvent> votes) {
  if (log_->concurrent_ingest()) {
    log_->AppendConcurrent(votes);
    return;
  }
  for (const crowd::VoteEvent& event : votes) ObserveAndAppend(event);
}

Status DataQualityMetric::RestoreCheckpoint(
    const crowd::CheckpointData& data) {
  if (!SupportsConcurrentIngest()) {
    return Status::FailedPrecondition(
        "the panel has an order-sensitive estimator; its state cannot be "
        "restored from a checkpoint's counts");
  }
  return log_->RestoreCheckpoint(data);
}

crowd::ResponseLog::IngestPause DataQualityMetric::ReconcileForEstimates() {
  crowd::ResponseLog::IngestPause pause = log_->PauseAndReconcile();
  DQM_DCHECK(!log_->concurrent_ingest() ||
             MatchesRebuild(log_->positive_fingerprint(),
                            log_->positive_counts()))
      << "striped positive-vote fingerprint diverged from the tallies";
  return pause;
}

void DataQualityMetric::AddVote(uint32_t task, uint32_t worker, uint32_t item,
                                bool is_dirty) {
  ObserveAndAppend(crowd::VoteEvent{
      task, worker, item,
      is_dirty ? crowd::Vote::kDirty : crowd::Vote::kClean});
}

void DataQualityMetric::ObserveAndAppend(const crowd::VoteEvent& event) {
  for (estimators::TotalErrorEstimator* estimator : observing_) {
    estimator->Observe(event);
  }
  log_->Append(event);
}

double DataQualityMetric::EstimatedTotalErrors() const {
  return rows_.front().estimator->Estimate();
}

double DataQualityMetric::EstimatedUndetectedErrors() const {
  double undetected =
      EstimatedTotalErrors() - static_cast<double>(log_->MajorityCount());
  return std::max(undetected, 0.0);
}

double DataQualityMetric::QualityScore() const {
  if (log_->num_items() == 0) return 1.0;
  double fraction =
      EstimatedUndetectedErrors() / static_cast<double>(log_->num_items());
  return std::clamp(1.0 - fraction, 0.0, 1.0);
}

DataQualityMetric::QualityReport DataQualityMetric::Report() const {
  QualityReport report;
  ReportInto(report);
  return report;
}

void DataQualityMetric::ReportInto(QualityReport& report) const {
  const crowd::ResponseLog& log = *log_;
  report.num_votes = log.num_events();
  report.num_items = log.num_items();
  report.majority_count = log.MajorityCount();
  report.nominal_count = log.NominalCount();
  if (report.estimators.size() != rows_.size()) {
    // First fill (or a mismatched report object): build the immutable name
    // and spec columns once; subsequent calls only touch the numbers.
    report.estimators.assign(rows_.size(), EstimatorReport{});
    for (size_t i = 0; i < rows_.size(); ++i) {
      report.estimators[i].name = std::string(rows_[i].estimator->name());
      report.estimators[i].spec = rows_[i].spec;
    }
  }
  double majority = static_cast<double>(report.majority_count);
  double items = static_cast<double>(report.num_items);
  for (size_t i = 0; i < rows_.size(); ++i) {
    EstimatorReport& entry = report.estimators[i];
    entry.total_errors = rows_[i].estimator->Estimate();
    entry.undetected_errors = std::max(entry.total_errors - majority, 0.0);
    entry.quality_score =
        report.num_items == 0
            ? 1.0
            : std::clamp(1.0 - entry.undetected_errors / items, 0.0, 1.0);
  }
}

std::vector<std::string> DataQualityMetric::estimator_names() const {
  std::vector<std::string> names;
  names.reserve(rows_.size());
  for (const Row& row : rows_) {
    names.emplace_back(row.estimator->name());
  }
  return names;
}

std::vector<std::string> DataQualityMetric::specs() const {
  std::vector<std::string> specs;
  specs.reserve(rows_.size());
  for (const Row& row : rows_) specs.push_back(row.spec);
  return specs;
}

}  // namespace dqm::core
