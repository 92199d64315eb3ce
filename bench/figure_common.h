#ifndef DQM_BENCH_FIGURE_COMMON_H_
#define DQM_BENCH_FIGURE_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"

namespace dqm::bench {

/// Everything needed to regenerate one total-error panel of Figures 3-5 / 7:
/// simulate the scenario once, evaluate each method over task-order
/// permutations, print a sampled table and an ASCII chart with the ground
/// truth (and optionally the EXTRAPOL band and the SCM marker).
struct FigureSpec {
  std::string title;
  core::Scenario scenario;
  size_t num_tasks = 500;
  size_t permutations = 10;
  uint64_t seed = 42;
  /// (display label, registry spec string) pairs, e.g.
  /// {"V-CHAO", "vchao92?shift=2"}.
  std::vector<std::pair<std::string, std::string>> methods;
  /// Oracle extrapolation band (Figures 3-5): sample fraction; 0 disables.
  double extrapol_fraction = 0.0;
  size_t extrapol_trials = 20;
  /// Print the Sample Clean Minimum marker (Figures 3-5).
  bool show_scm = false;
  /// Number of x positions in the sampled table.
  size_t table_points = 12;
};

/// Runs the spec's total-error panel and prints it to stdout.
/// Returns the per-method final mean estimates (same order as methods).
std::vector<double> RunTotalErrorFigure(const FigureSpec& spec);

/// Runs the (b)/(c) panels of Figures 3-5: estimated remaining positive and
/// negative switches vs the ground-truth switches still needed.
void RunSwitchPanels(const FigureSpec& spec);

/// Feeds every vote of `log`, in order, into `metric`.
void FeedLog(core::DataQualityMetric& metric, const crowd::ResponseLog& log);

/// Prints a mean +/- std series as a sampled table.
void PrintSeriesTable(const std::vector<std::string>& names,
                      const std::vector<core::SeriesResult>& series,
                      size_t table_points, double ground_truth);

/// Evenly spaced sample indices over [0, n).
std::vector<size_t> SampleIndices(size_t n, size_t count);

/// Machine-readable metrics emitter shared by the bench executables. Every
/// bench prints one line per run:
///
///   {"bench":"<name>","results":[{"name":"...","<metric>":<value>,...},...]}
///
/// so downstream tooling can diff runs without scraping the ASCII tables.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name);

  /// Adds one result row: a label plus numeric metrics (insertion order is
  /// preserved in the output).
  void AddResult(std::string name,
                 std::vector<std::pair<std::string, double>> metrics);

  std::string Render() const;

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>>
      results_;
};

/// Peak resident set size of this process in MiB (getrusage; 0 when the
/// platform does not report it) — recorded into every bench artifact so the
/// perf trajectory tracks memory alongside throughput.
double PeakRssMb();

/// Prints `json`'s line to stdout and queues it for this binary's
/// BENCH_<name>.json artifact (see WriteBenchArtifact). Every bench emits
/// through this so one call at the end of main persists everything.
void EmitBenchJson(const BenchJsonWriter& json);

/// Writes all queued lines, wrapped as
///
///   {"bench":"<bench_name>","peak_rss_mb":<mb>,
///    "hardware_concurrency":<threads>,"runs":[<line>, ...]}
///
/// to BENCH_<bench_name>.json in $DQM_BENCH_JSON_DIR (default: the current
/// directory). Call once at the end of main. Returns false — after printing
/// a warning to stderr — when the file cannot be written; benches treat
/// that as non-fatal so read-only environments still get stdout output.
bool WriteBenchArtifact(std::string_view bench_name);

}  // namespace dqm::bench

#endif  // DQM_BENCH_FIGURE_COMMON_H_
