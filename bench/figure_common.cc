#include "figure_common.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <sys/resource.h>

#include "common/ascii.h"
#include "common/string_util.h"
#include "estimators/extrapolation.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace dqm::bench {

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

// %g prints nan/inf, which no JSON parser accepts; emit null instead.
std::string JsonNumber(double value) {
  return std::isfinite(value) ? StrFormat("%.6g", value) : "null";
}

}  // namespace

BenchJsonWriter::BenchJsonWriter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchJsonWriter::AddResult(
    std::string name, std::vector<std::pair<std::string, double>> metrics) {
  results_.emplace_back(std::move(name), std::move(metrics));
}

namespace {

/// Lines queued by EmitBenchJson for the binary's artifact file.
std::vector<std::string>& QueuedBenchLines() {
  static auto& lines = *new std::vector<std::string>();
  return lines;
}

}  // namespace

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // ru_maxrss is KiB on Linux, bytes on macOS.
#ifdef __APPLE__
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

void EmitBenchJson(const BenchJsonWriter& json) {
  std::string line = json.Render();
  std::printf("%s\n", line.c_str());
  QueuedBenchLines().push_back(std::move(line));
}

bool WriteBenchArtifact(std::string_view bench_name) {
  const char* dir = std::getenv("DQM_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/"
                         : std::string();
  path += "BENCH_";
  path += bench_name;
  path += ".json";

  // hardware_concurrency lets the floor gate (tools/check_bench_json.py)
  // skip multi-writer scaling floors when the artifact came from a
  // single-core machine, where "4 writers" measures scheduler thrash.
  std::string body = StrFormat(
      "{\"bench\":\"%s\",\"peak_rss_mb\":%s,\"hardware_concurrency\":%u,"
      "\"runs\":[",
      JsonEscape(std::string(bench_name)).c_str(),
      JsonNumber(PeakRssMb()).c_str(), std::thread::hardware_concurrency());
  const std::vector<std::string>& lines = QueuedBenchLines();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) body += ",";
    body += lines[i];
  }
  // Every bench artifact carries the process's telemetry fold: seqlock
  // retries, stripe lock waits, publish phase latencies — the "why did the
  // number move" context that makes a perf regression diagnosable from the
  // artifact alone.
  body += "],\"telemetry\":";
  body += telemetry::RenderJson(telemetry::MetricsRegistry::Global());
  body += "}\n";

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), file) == body.size();
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) {
    std::fprintf(stderr, "warning: short write to %s\n", path.c_str());
    return false;
  }
  std::printf("bench artifact: %s\n", path.c_str());
  return true;
}

std::string BenchJsonWriter::Render() const {
  std::string out = StrFormat("{\"bench\":\"%s\",\"results\":[",
                              JsonEscape(bench_name_).c_str());
  for (size_t i = 0; i < results_.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("{\"name\":\"%s\"",
                     JsonEscape(results_[i].first).c_str());
    for (const auto& [metric, value] : results_[i].second) {
      out += StrFormat(",\"%s\":%s", JsonEscape(metric).c_str(),
                       JsonNumber(value).c_str());
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void FeedLog(core::DataQualityMetric& metric, const crowd::ResponseLog& log) {
  for (const crowd::VoteEvent& event : log.events()) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == crowd::Vote::kDirty);
  }
}

std::vector<size_t> SampleIndices(size_t n, size_t count) {
  std::vector<size_t> indices;
  if (n == 0) return indices;
  count = std::min(count, n);
  for (size_t i = 0; i < count; ++i) {
    indices.push_back((i + 1) * n / count - 1);
  }
  return indices;
}

void PrintSeriesTable(const std::vector<std::string>& names,
                      const std::vector<core::SeriesResult>& series,
                      size_t table_points, double ground_truth) {
  if (series.empty() || series.front().mean.empty()) return;
  size_t n = series.front().mean.size();
  std::vector<std::string> header = {"tasks"};
  for (const auto& name : names) {
    header.push_back(name);
    header.push_back("+/-");
  }
  header.push_back("truth");
  AsciiTable table(header);
  for (size_t x : SampleIndices(n, table_points)) {
    std::vector<std::string> row = {StrFormat("%zu", x + 1)};
    for (const auto& s : series) {
      row.push_back(StrFormat("%.1f", s.mean[x]));
      row.push_back(StrFormat("%.1f", s.std_dev[x]));
    }
    row.push_back(StrFormat("%.0f", ground_truth));
    table.AddRow(std::move(row));
  }
  std::fputs(table.Render().c_str(), stdout);
}

std::vector<double> RunTotalErrorFigure(const FigureSpec& spec) {
  std::printf("== %s ==\n", spec.title.c_str());
  std::printf(
      "items=%zu true-errors=%zu items/task=%zu tasks=%zu "
      "fp=%.3f fn=%.3f permutations=%zu seed=%llu\n",
      spec.scenario.num_items, spec.scenario.num_dirty(),
      spec.scenario.items_per_task, spec.num_tasks,
      spec.scenario.workers.base.false_positive_rate,
      spec.scenario.workers.base.false_negative_rate, spec.permutations,
      static_cast<unsigned long long>(spec.seed));

  core::SimulatedRun run =
      core::SimulateScenario(spec.scenario, spec.num_tasks, spec.seed);
  double truth = static_cast<double>(spec.scenario.num_dirty());

  std::vector<std::string> names;
  std::vector<std::string> specs;
  for (const auto& [name, estimator_spec] : spec.methods) {
    names.push_back(name);
    specs.push_back(estimator_spec);
  }
  core::ExperimentRunner runner(
      {.permutations = spec.permutations, .seed = spec.seed ^ 0xbeef});
  // A typo'd spec in a bench config aborts with the status message
  // (benches are trusted callers).
  std::vector<core::SeriesResult> series = runner.Run(run.log, specs).value();
  for (size_t i = 0; i < names.size(); ++i) series[i].name = names[i];

  PrintSeriesTable(names, series, spec.table_points, truth);

  if (spec.extrapol_fraction > 0.0) {
    Rng rng(spec.seed ^ 0x1234);
    estimators::ExtrapolationBand band = estimators::OracleExtrapolationBand(
        run.truth, spec.extrapol_fraction, spec.extrapol_trials, rng);
    std::printf(
        "EXTRAPOL (oracle %.0f%% sample, %zu trials): %.1f +/- %.1f\n",
        spec.extrapol_fraction * 100.0, spec.extrapol_trials, band.mean,
        band.std_dev);
  }
  if (spec.show_scm) {
    std::printf("SCM (3 votes x %zu items / %zu per task): %.0f tasks\n",
                spec.scenario.num_items, spec.scenario.items_per_task,
                core::SampleCleanMinimumTasks(spec.scenario.num_items,
                                              spec.scenario.items_per_task));
  }

  std::vector<double> x(series.front().mean.size());
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i + 1);
  AsciiChart chart(spec.title + " — total error estimates vs tasks", x);
  for (const auto& s : series) chart.AddSeries(s.name, s.mean);
  chart.AddHorizontalLine("ground truth", truth);
  std::fputs(chart.Render().c_str(), stdout);

  std::vector<double> finals;
  for (const auto& s : series) finals.push_back(s.mean.back());
  std::printf("final estimates:");
  for (size_t i = 0; i < names.size(); ++i) {
    std::printf("  %s=%.1f", names[i].c_str(), finals[i]);
  }
  std::printf("  truth=%.0f\n", truth);
  BenchJsonWriter json(spec.title);
  for (size_t i = 0; i < names.size(); ++i) {
    json.AddResult(names[i], {{"final_estimate", finals[i]},
                              {"final_std", series[i].std_dev.back()},
                              {"truth", truth}});
  }
  EmitBenchJson(json);
  std::printf("\n");
  return finals;
}

void RunSwitchPanels(const FigureSpec& spec) {
  core::SimulatedRun run =
      core::SimulateScenario(spec.scenario, spec.num_tasks, spec.seed);
  core::ExperimentRunner runner(
      {.permutations = spec.permutations, .seed = spec.seed ^ 0xbeef});
  estimators::SwitchTotalErrorEstimator::Config config;
  core::ExperimentRunner::SwitchDiagnostics diagnostics =
      runner.RunSwitchDiagnostics(run.log, spec.scenario.num_items, run.truth,
                                  config);

  std::printf("-- %s — remaining positive switches (panel b) --\n",
              spec.title.c_str());
  PrintSeriesTable(
      {"xi+ (est)", "needed+ (truth)"},
      {diagnostics.remaining_positive_estimate, diagnostics.needed_positive_truth},
      spec.table_points, 0.0);
  std::printf("-- %s — remaining negative switches (panel c) --\n",
              spec.title.c_str());
  PrintSeriesTable(
      {"xi- (est)", "needed- (truth)"},
      {diagnostics.remaining_negative_estimate, diagnostics.needed_negative_truth},
      spec.table_points, 0.0);

  std::vector<double> x(diagnostics.remaining_positive_estimate.mean.size());
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i + 1);
  AsciiChart chart(spec.title + " — remaining switches vs tasks", x);
  chart.AddSeries("xi+ est", diagnostics.remaining_positive_estimate.mean);
  chart.AddSeries("needed+", diagnostics.needed_positive_truth.mean);
  chart.AddSeries("xi- est", diagnostics.remaining_negative_estimate.mean);
  chart.AddSeries("needed-", diagnostics.needed_negative_truth.mean);
  std::fputs(chart.Render().c_str(), stdout);
  std::printf("\n");
}

}  // namespace dqm::bench
