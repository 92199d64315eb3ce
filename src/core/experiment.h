#ifndef DQM_CORE_EXPERIMENT_H_
#define DQM_CORE_EXPERIMENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "core/scenario.h"
#include "crowd/response_log.h"
#include "estimators/switch_total.h"
#include "estimators/switch_tracker.h"

namespace dqm::core {

/// Reorders a log's tasks by a random permutation, renumbering tasks and
/// workers in the new arrival order (votes within a task keep their order).
/// This reproduces the paper's evaluation protocol: "we randomly permute the
/// workers and average the results over r = 10 such permutations".
crowd::ResponseLog PermuteTasks(const crowd::ResponseLog& log, uint64_t seed);

/// The PermuteTasks seed the ExperimentRunner uses for permutation `index`:
/// base ^ splitmix64(index). Each permutation's seed depends only on (base,
/// index), never on evaluation order, so serial and pool-parallel replays of
/// the same config are bit-identical.
uint64_t PermutationSeed(uint64_t base, size_t index);

/// Replays `log` once through one multi-estimator panel built from `specs`
/// and returns series[s][t] = spec s's estimate after
/// tasks 0..t inclusive, sampled at every task boundary. Empty series for
/// an empty log. Fails on unknown names or bad params.
Result<std::vector<std::vector<double>>> PanelSeriesByTask(
    const crowd::ResponseLog& log, std::span<const std::string> specs);

/// Simulates `num_tasks` tasks of `scenario` and returns the log plus the
/// hidden truth (for ground-truth lines in reports).
struct SimulatedRun {
  crowd::ResponseLog log;
  std::vector<bool> truth;
};
SimulatedRun SimulateScenario(const Scenario& scenario, size_t num_tasks,
                              uint64_t seed);

/// A named mean +/- std series over task counts.
struct SeriesResult {
  std::string name;
  std::vector<double> mean;
  std::vector<double> std_dev;
};

/// Evaluates estimators over task-order permutations of one response log.
class ExperimentRunner {
 public:
  struct Config {
    /// r — number of task-order permutations averaged.
    size_t permutations = 10;
    uint64_t seed = 42;
    /// Worker threads for the permutation replays. 1 = serial on the caller;
    /// 0 = one per hardware thread. Results are bit-identical at any value
    /// because each permutation's seed and output slot depend only on its
    /// index (see PermutationSeed).
    size_t threads = 1;
  };

  explicit ExperimentRunner(const Config& config) : config_(config) {}

  /// Replays `permutations` shuffles of `log`, each through one
  /// multi-estimator panel built from `specs`, and
  /// aggregates each spec's per-task estimate series into mean/std: one
  /// series per spec, named after the spec, on the x grid 1..num_tasks
  /// (index t = estimate after tasks 0..t inclusive). Fails up front on
  /// unknown names or bad params.
  Result<std::vector<SeriesResult>> Run(
      const crowd::ResponseLog& log,
      std::span<const std::string> specs) const;

  /// One estimator's final numbers on one generated workload.
  struct WorkloadCell {
    /// The estimator spec the cell was scored with ("vchao92?shift=2").
    std::string spec;
    /// Display name ("V-CHAO").
    std::string name;
    double total_errors = 0.0;
    double undetected_errors = 0.0;
    double quality_score = 1.0;
    /// |total_errors - true dirty count| — the robustness number the
    /// scenario x estimator matrix plots.
    double abs_error = 0.0;
  };

  /// One row of the scenario x estimator robustness grid.
  struct WorkloadReport {
    /// Canonical workload spec ("drift?walk=0.02").
    std::string workload_spec;
    size_t num_items = 0;
    /// Ground-truth |R_dirty| of the generated run.
    size_t num_dirty = 0;
    size_t num_votes = 0;
    /// Ingest batches the workload's arrival process produced.
    size_t num_batches = 0;
    size_t majority_count = 0;
    size_t nominal_count = 0;
    /// One cell per estimator spec, in spec order.
    std::vector<WorkloadCell> cells;
  };

  /// Generates `workload_spec` (resolved via workload::WorkloadRegistry)
  /// with the runner's seed and scores every estimator spec on the one vote
  /// stream through the multi-estimator pipeline — the entry point the
  /// workload matrix bench and the CLI sweep share. Fails up front on
  /// unknown workload/estimator names or bad params.
  Result<WorkloadReport> RunWorkload(
      std::string_view workload_spec,
      std::span<const std::string> estimator_specs) const;

  /// SWITCH diagnostics for Figures 3-5 (b)/(c): per-task series of the
  /// estimated remaining positive/negative switches and the ground-truth
  /// switches still needed (from the evolving majority labels vs `truth`),
  /// permutation-averaged.
  struct SwitchDiagnostics {
    SeriesResult remaining_positive_estimate;
    SeriesResult remaining_negative_estimate;
    SeriesResult needed_positive_truth;
    SeriesResult needed_negative_truth;
  };
  SwitchDiagnostics RunSwitchDiagnostics(
      const crowd::ResponseLog& log, size_t num_items,
      const std::vector<bool>& truth,
      const estimators::SwitchTotalErrorEstimator::Config& config) const;

 private:
  Config config_;
};

/// Sample Clean Minimum (Section 6.1): the number of tasks needed to clean a
/// sample of size `sample_size` with `workers_per_record` fixed votes per
/// record at `records_per_task` records per task.
double SampleCleanMinimumTasks(size_t sample_size, size_t records_per_task,
                               size_t workers_per_record = 3);

}  // namespace dqm::core

#endif  // DQM_CORE_EXPERIMENT_H_
