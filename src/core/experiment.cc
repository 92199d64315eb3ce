#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dqm.h"
#include "estimators/registry.h"
#include "workload/workload.h"

namespace dqm::core {

namespace {

/// Pool sized for `config.threads` over `jobs` independent jobs; nullopt when
/// the replay should run serially on the caller.
std::optional<ThreadPool> MakeReplayPool(const ExperimentRunner::Config& config,
                                         size_t jobs) {
  size_t threads =
      config.threads == 0 ? ThreadPool::DefaultThreadCount() : config.threads;
  threads = std::min(threads, jobs);
  if (threads <= 1) return std::nullopt;
  return std::make_optional<ThreadPool>(threads);
}

}  // namespace

uint64_t PermutationSeed(uint64_t base, size_t index) {
  return base ^ SplitMix64(static_cast<uint64_t>(index)).Next();
}

crowd::ResponseLog PermuteTasks(const crowd::ResponseLog& log, uint64_t seed) {
  // Group event index ranges by task in first-appearance order. Simulator
  // logs have contiguous per-task runs; grouping by scan keeps this general.
  std::vector<std::vector<const crowd::VoteEvent*>> groups;
  std::unordered_map<uint32_t, size_t> group_of_task;
  for (const crowd::VoteEvent& event : log.events()) {
    auto [it, inserted] = group_of_task.emplace(event.task, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(&event);
  }

  Rng rng(seed);
  std::vector<size_t> order = rng.Permutation(groups.size());

  crowd::ResponseLog permuted(log.num_items());
  std::unordered_map<uint32_t, uint32_t> worker_renumber;
  for (size_t new_task = 0; new_task < order.size(); ++new_task) {
    for (const crowd::VoteEvent* event : groups[order[new_task]]) {
      auto [it, inserted] = worker_renumber.emplace(
          event->worker, static_cast<uint32_t>(worker_renumber.size()));
      permuted.Append(crowd::VoteEvent{static_cast<uint32_t>(new_task),
                                       it->second, event->item, event->vote});
    }
  }
  return permuted;
}

Result<std::vector<std::vector<double>>> PanelSeriesByTask(
    const crowd::ResponseLog& log, std::span<const std::string> specs) {
  DQM_ASSIGN_OR_RETURN(
      DataQualityMetric metric,
      DataQualityMetric::Create(log.num_items(), specs));
  std::vector<std::vector<double>> series(specs.size());
  DataQualityMetric::QualityReport report;
  auto sample = [&] {
    metric.ReportInto(report);
    for (size_t s = 0; s < specs.size(); ++s) {
      series[s].push_back(report.estimators[s].total_errors);
    }
  };
  const std::vector<crowd::VoteEvent>& events = log.events();
  for (size_t e = 0; e < events.size(); ++e) {
    const crowd::VoteEvent& event = events[e];
    if (e > 0 && event.task != events[e - 1].task) sample();
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
  }
  if (!events.empty()) sample();
  return series;
}

SimulatedRun SimulateScenario(const Scenario& scenario, size_t num_tasks,
                              uint64_t seed) {
  std::vector<bool> truth = BuildTruth(scenario, seed);
  crowd::CrowdSimulator simulator =
      MakeSimulator(scenario, truth, seed ^ 0xc2b2ae3d27d4eb4fULL);
  crowd::ResponseLog log(scenario.num_items);
  simulator.RunTasks(log, num_tasks);
  return SimulatedRun{std::move(log), std::move(truth)};
}

Result<std::vector<SeriesResult>> ExperimentRunner::Run(
    const crowd::ResponseLog& log, std::span<const std::string> specs) const {
  DQM_CHECK_GT(config_.permutations, 0u);
  // Validate the specs once so a bad one fails here, not mid-replay.
  DQM_RETURN_NOT_OK(DataQualityMetric::Create(1, specs).status());
  // runs[p] = per-spec series on permutation p. Each permutation writes only
  // its own slot, so the replays are embarrassingly parallel and the
  // aggregate below sees the same layout regardless of thread count.
  std::vector<std::vector<std::vector<double>>> runs(config_.permutations);
  auto replay = [&](size_t p) {
    crowd::ResponseLog permuted =
        PermuteTasks(log, PermutationSeed(config_.seed, p));
    runs[p] = PanelSeriesByTask(permuted, specs).value();
  };
  std::optional<ThreadPool> pool = MakeReplayPool(config_, config_.permutations);
  ParallelFor(pool ? &*pool : nullptr, config_.permutations, replay);
  std::vector<SeriesResult> results;
  results.reserve(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    std::vector<std::vector<double>> rows(config_.permutations);
    for (size_t p = 0; p < config_.permutations; ++p) {
      rows[p] = std::move(runs[p][s]);
    }
    SeriesBand band = AggregateSeries(rows);
    results.push_back(
        SeriesResult{specs[s], std::move(band.mean), std::move(band.std_dev)});
  }
  return results;
}

Result<ExperimentRunner::WorkloadReport> ExperimentRunner::RunWorkload(
    std::string_view workload_spec,
    std::span<const std::string> estimator_specs) const {
  DQM_ASSIGN_OR_RETURN(
      std::unique_ptr<workload::Workload> generator,
      workload::WorkloadRegistry::Global().Create(workload_spec));
  workload::GeneratedWorkload run = generator->Generate(config_.seed);

  // The scoring pipeline keeps no arrival history (the generated run keeps
  // that), so big workload sweeps stay at O(#items) memory per scored panel
  // (O(#pairs) when it reads the pair matrix).
  DQM_ASSIGN_OR_RETURN(
      DataQualityMetric metric,
      DataQualityMetric::Create(generator->num_items(), estimator_specs));
  for (const crowd::VoteEvent& event : run.log.events()) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
  }
  DataQualityMetric::QualityReport report = metric.Report();

  WorkloadReport result;
  result.workload_spec = generator->spec();
  result.num_items = generator->num_items();
  result.num_dirty = run.NumDirty();
  result.num_votes = report.num_votes;
  result.num_batches = run.batch_sizes.size();
  result.majority_count = report.majority_count;
  result.nominal_count = report.nominal_count;
  double truth = static_cast<double>(result.num_dirty);
  result.cells.reserve(report.estimators.size());
  for (const DataQualityMetric::EstimatorReport& row : report.estimators) {
    result.cells.push_back(WorkloadCell{
        row.spec, row.name, row.total_errors, row.undetected_errors,
        row.quality_score, std::abs(row.total_errors - truth)});
  }
  return result;
}

ExperimentRunner::SwitchDiagnostics ExperimentRunner::RunSwitchDiagnostics(
    const crowd::ResponseLog& log, size_t num_items,
    const std::vector<bool>& truth,
    const estimators::SwitchTotalErrorEstimator::Config& config) const {
  DQM_CHECK_EQ(truth.size(), num_items);
  DQM_CHECK_GT(config_.permutations, 0u);
  std::vector<std::vector<double>> pos_est(config_.permutations),
      neg_est(config_.permutations), pos_needed(config_.permutations),
      neg_needed(config_.permutations);
  auto replay = [&](size_t p) {
    crowd::ResponseLog permuted =
        PermuteTasks(log, PermutationSeed(config_.seed, p));
    crowd::ResponseLog tallies(num_items, crowd::RetentionPolicy::kTallies);
    estimators::SwitchTotalErrorEstimator estimator(tallies, config);
    std::vector<double> s_pos, s_neg, s_pos_needed, s_neg_needed;

    auto sample = [&]() {
      s_pos.push_back(estimator.RemainingPositive());
      s_neg.push_back(estimator.RemainingNegative());
      estimators::SwitchesNeeded needed = estimators::ComputeSwitchesNeeded(
          tallies.positive_counts(), tallies.total_counts(), truth);
      s_pos_needed.push_back(static_cast<double>(needed.positive));
      s_neg_needed.push_back(static_cast<double>(needed.negative));
    };

    const auto& events = permuted.events();
    uint32_t current_task = events.empty() ? 0 : events.front().task;
    for (const crowd::VoteEvent& event : events) {
      if (event.task != current_task) {
        sample();
        current_task = event.task;
      }
      estimator.Observe(event);
      tallies.Append(event);
    }
    if (!events.empty()) sample();

    pos_est[p] = std::move(s_pos);
    neg_est[p] = std::move(s_neg);
    pos_needed[p] = std::move(s_pos_needed);
    neg_needed[p] = std::move(s_neg_needed);
  };
  std::optional<ThreadPool> pool = MakeReplayPool(config_, config_.permutations);
  ParallelFor(pool ? &*pool : nullptr, config_.permutations, replay);

  auto aggregate = [](const std::string& name,
                      const std::vector<std::vector<double>>& series) {
    SeriesBand band = AggregateSeries(series);
    return SeriesResult{name, std::move(band.mean), std::move(band.std_dev)};
  };
  SwitchDiagnostics diagnostics;
  diagnostics.remaining_positive_estimate =
      aggregate("remaining positive switches (est)", pos_est);
  diagnostics.remaining_negative_estimate =
      aggregate("remaining negative switches (est)", neg_est);
  diagnostics.needed_positive_truth =
      aggregate("positive switches needed (truth)", pos_needed);
  diagnostics.needed_negative_truth =
      aggregate("negative switches needed (truth)", neg_needed);
  return diagnostics;
}

double SampleCleanMinimumTasks(size_t sample_size, size_t records_per_task,
                               size_t workers_per_record) {
  DQM_CHECK_GT(records_per_task, 0u);
  return static_cast<double>(workers_per_record) *
         static_cast<double>(sample_size) /
         static_cast<double>(records_per_task);
}

}  // namespace dqm::core
