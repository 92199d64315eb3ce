// google-benchmark microbenchmarks: the per-vote cost of every estimator,
// the f-statistics bookkeeping, the text-similarity kernels, and candidate
// generation. These bound the library's overhead when monitoring a live
// crowdsourcing deployment (votes/second far beyond any crowd's rate).

#include <benchmark/benchmark.h>

#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "dataset/restaurant_generator.h"
#include "er/blocking.h"
#include "estimators/f_statistics.h"
#include "text/levenshtein.h"
#include "text/similarity.h"
#include "figure_common.h"

namespace {

// Shared simulated vote stream (1000 items, mixed noise).
const dqm::core::SimulatedRun& SharedRun() {
  static const auto& run = *new dqm::core::SimulatedRun(
      dqm::core::SimulateScenario(dqm::core::SimulationScenario(0.01, 0.1, 15),
                                  500, 7));
  return run;
}

void BM_EstimatorObserve(benchmark::State& state, const char* spec) {
  const dqm::crowd::ResponseLog& log = SharedRun().log;
  for (auto _ : state) {
    dqm::core::DataQualityMetric metric =
        dqm::core::DataQualityMetric::Create(1000, {spec}).value();
    dqm::bench::FeedLog(metric, log);
    benchmark::DoNotOptimize(metric.EstimatedTotalErrors());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.num_events()));
}
BENCHMARK_CAPTURE(BM_EstimatorObserve, voting, "voting");
BENCHMARK_CAPTURE(BM_EstimatorObserve, chao92, "chao92");
BENCHMARK_CAPTURE(BM_EstimatorObserve, vchao92, "vchao92");
BENCHMARK_CAPTURE(BM_EstimatorObserve, switch_est, "switch");

void BM_EstimateEveryTask(benchmark::State& state) {
  // Full SWITCH estimate series (estimate after each of the 500 tasks).
  const std::vector<std::string> specs = {"switch"};
  for (auto _ : state) {
    std::vector<std::vector<double>> series =
        dqm::core::PanelSeriesByTask(SharedRun().log, specs).value();
    benchmark::DoNotOptimize(series.front().back());
  }
}
BENCHMARK(BM_EstimateEveryTask);

void BM_FStatisticsPromote(benchmark::State& state) {
  for (auto _ : state) {
    dqm::estimators::FStatistics f;
    for (int species = 0; species < 100; ++species) {
      f.AddSingleton();
    }
    for (uint32_t freq = 1; freq <= 50; ++freq) {
      for (int species = 0; species < 100; ++species) {
        f.Promote(freq);
      }
    }
    benchmark::DoNotOptimize(dqm::estimators::SumIiMinus1(f.fingerprint()));
  }
}
BENCHMARK(BM_FStatisticsPromote);

void BM_Levenshtein(benchmark::State& state) {
  std::string a = "golden dragon cafe and grill house";
  std::string b = "goldan dragn cafe & grill hse";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dqm::text::LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_BoundedLevenshtein(benchmark::State& state) {
  std::string a = "golden dragon cafe and grill house";
  std::string b = "completely different product name!";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dqm::text::BoundedLevenshteinDistance(a, b, 3));
  }
}
BENCHMARK(BM_BoundedLevenshtein);

void BM_HybridSimilarity(benchmark::State& state) {
  std::string a = "Ritz-Carlton Cafe (buckhead)";
  std::string b = "Cafe Ritz-Carlton Buckhead";
  for (auto _ : state) {
    benchmark::DoNotOptimize(dqm::text::HybridSimilarity(a, b));
  }
}
BENCHMARK(BM_HybridSimilarity);

void BM_TokenBlocking(benchmark::State& state) {
  static const auto& dataset = *new dqm::dataset::ErDataset([] {
    dqm::dataset::RestaurantConfig config;
    config.num_entities = 400;
    config.num_duplicates = 50;
    auto result = dqm::dataset::GenerateRestaurantDataset(config);
    return std::move(result).value();
  }());
  dqm::er::CandidateGenerator generator(0.45, 0.95, "name");
  for (auto _ : state) {
    auto partition = generator.TokenBlocking(dataset.table);
    benchmark::DoNotOptimize(partition.value().candidates.size());
  }
}
BENCHMARK(BM_TokenBlocking);

void BM_PermuteTasks(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dqm::core::PermuteTasks(SharedRun().log, seed++).num_events());
  }
}
BENCHMARK(BM_PermuteTasks);

}  // namespace

// Expanded BENCHMARK_MAIN() so the run also writes BENCH_micro.json (peak
// RSS + any queued lines) like every other bench binary; the per-benchmark
// numbers stay in google-benchmark's own --benchmark_format output.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dqm::bench::WriteBenchArtifact("micro");
  return 0;
}
