#include "core/dqm.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/logging.h"

namespace dqm::core {

namespace {

/// Debug reference for the striped fingerprint: true iff `f` equals, bucket
/// by bucket, the O(items) rebuild from the per-item dirty-vote counts.
[[maybe_unused]] bool MatchesRebuild(const estimators::FStatistics& f,
                                     std::span<const uint32_t> counts) {
  estimators::FStatistics reference;
  reference.RebuildFromCounts(counts);
  return f.histogram() == reference.histogram();
}

}  // namespace

DataQualityMetric::DataQualityMetric(size_t num_items,
                                     crowd::RetentionPolicy retention,
                                     PrivateTag)
    : state_(std::make_unique<PipelineState>(num_items, retention)) {
  state_->view.log = &state_->log;
}

DataQualityMetric::DataQualityMetric(size_t num_items)
    : DataQualityMetric(num_items, crowd::RetentionPolicy::kFullEvents,
                        PrivateTag()) {
  const std::string spec = "switch";
  Status status = AttachSpecs(std::span<const std::string>(&spec, 1));
  DQM_CHECK(status.ok()) << status.ToString();
}

Result<DataQualityMetric> DataQualityMetric::Create(
    size_t num_items, std::span<const std::string> specs,
    crowd::RetentionPolicy retention) {
  DataQualityMetric metric(num_items, retention, PrivateTag());
  DQM_RETURN_NOT_OK(metric.AttachSpecs(specs));
  return metric;
}

Result<DataQualityMetric> DataQualityMetric::Create(
    size_t num_items, std::initializer_list<std::string> specs,
    crowd::RetentionPolicy retention) {
  std::vector<std::string> copy(specs);
  return Create(num_items, std::span<const std::string>(copy), retention);
}

Result<DataQualityMetric> DataQualityMetric::Create(
    size_t num_items, const std::string& spec_list,
    crowd::RetentionPolicy retention) {
  std::vector<std::string> specs = estimators::SplitSpecList(spec_list);
  return Create(num_items, std::span<const std::string>(specs), retention);
}

Status DataQualityMetric::AttachSpecs(std::span<const std::string> specs) {
  if (specs.empty()) {
    return Status::InvalidArgument(
        "DataQualityMetric needs at least one estimator spec");
  }
  const estimators::EstimatorRegistry& registry =
      estimators::EstimatorRegistry::Global();

  // Pass 1: parse and resolve every spec so the pipeline knows — before any
  // estimator is built — whether the positive-vote fingerprint must be
  // maintained.
  std::vector<estimators::EstimatorSpec> parsed;
  parsed.reserve(specs.size());
  for (const std::string& spec : specs) {
    DQM_ASSIGN_OR_RETURN(estimators::EstimatorSpec one,
                         estimators::ParseEstimatorSpec(spec));
    DQM_ASSIGN_OR_RETURN(
        std::shared_ptr<const estimators::EstimatorRegistry::Entry> entry,
        registry.Find(one.name));
    if (entry->wants_positive_fingerprint) state_->maintain_positive_f = true;
    if (entry->wants_pair_counts) state_->need_pair_counts = true;
    parsed.push_back(std::move(one));
  }
  state_->view.positive_f =
      state_->maintain_positive_f ? &state_->positive_f : nullptr;

  // Pass 2: build each estimator against the view.
  for (size_t i = 0; i < parsed.size(); ++i) {
    DQM_ASSIGN_OR_RETURN(
        std::unique_ptr<estimators::TotalErrorEstimator> estimator,
        registry.Create(parsed[i], state_->view));
    rows_.push_back(Row{specs[i], std::move(estimator)});
    if (rows_.back().estimator->needs_observe()) {
      observing_.push_back(rows_.back().estimator.get());
    }
  }
  return Status::OK();
}

bool DataQualityMetric::SupportsConcurrentIngest() const {
  return observing_.empty() &&
         state_->log.retention() == crowd::RetentionPolicy::kCounts;
}

void DataQualityMetric::EnableConcurrentIngest(size_t num_stripes) {
  DQM_CHECK(SupportsConcurrentIngest())
      << "panel has an order-sensitive (observing) estimator or retains "
         "full events; concurrent ingest would break it";
  state_->log.EnableConcurrentIngest(num_stripes, state_->need_pair_counts);
}

void DataQualityMetric::CommitVotesConcurrent(
    std::span<const crowd::VoteEvent> votes) {
  state_->log.AppendConcurrent(votes);
}

crowd::ResponseLog::IngestPause DataQualityMetric::ReconcileForEstimates() {
  crowd::ResponseLog::IngestPause pause = state_->log.PauseAndReconcile();
  if (state_->maintain_positive_f && state_->log.concurrent_ingest()) {
    // The striped log keeps the fingerprint per stripe at commit and sums it
    // at reconcile; load that sum (bit-identical to the incremental AddVote
    // stream) in O(deepest pile).
    state_->positive_f.AssignFingerprint(state_->log.positive_fingerprint());
    DQM_DCHECK(MatchesRebuild(state_->positive_f,
                              state_->log.positive_counts()))
        << "striped positive-vote fingerprint diverged from the tallies";
  }
  return pause;
}

void DataQualityMetric::AddVote(uint32_t task, uint32_t worker, uint32_t item,
                                bool is_dirty) {
  crowd::VoteEvent event{task, worker, item,
                         is_dirty ? crowd::Vote::kDirty : crowd::Vote::kClean};
  PipelineState& state = *state_;
  if (is_dirty && state.maintain_positive_f) {
    // Bounds check before the tally read — everywhere else Append's own
    // check fires before any indexing.
    DQM_CHECK_LT(item, state.log.num_items()) << "item id out of range";
    // The item moves from frequency `count` to `count + 1` (keyed on the
    // pre-append tally).
    uint32_t count = state.log.positive_votes(item);
    if (count == 0) {
      state.positive_f.AddSingleton();
    } else {
      state.positive_f.Promote(count);
    }
  }
  state.log.Append(event);
  for (estimators::TotalErrorEstimator* estimator : observing_) {
    estimator->Observe(event);
  }
}

double DataQualityMetric::EstimatedTotalErrors() const {
  return rows_.front().estimator->Estimate();
}

double DataQualityMetric::EstimatedUndetectedErrors() const {
  double undetected =
      EstimatedTotalErrors() - static_cast<double>(state_->log.MajorityCount());
  return std::max(undetected, 0.0);
}

double DataQualityMetric::QualityScore() const {
  if (state_->log.num_items() == 0) return 1.0;
  double fraction = EstimatedUndetectedErrors() /
                    static_cast<double>(state_->log.num_items());
  return std::clamp(1.0 - fraction, 0.0, 1.0);
}

DataQualityMetric::QualityReport DataQualityMetric::Report() const {
  QualityReport report;
  ReportInto(report);
  return report;
}

void DataQualityMetric::ReportInto(QualityReport& report) const {
  const crowd::ResponseLog& log = state_->log;
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
