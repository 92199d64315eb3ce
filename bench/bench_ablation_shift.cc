// Ablation of vChao92's shift parameter s (Section 3.3): the paper argues
// s is hard to tune a priori — too small leaves false-positive singletons
// in charge, too large destroys the predictive power. This bench sweeps s
// on the FP-heavy Restaurant workload and the mixed simulation workload.

#include <cstdio>
#include <string>
#include <vector>

#include "common/ascii.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "figure_common.h"

namespace {

void RunSweep(const char* title, const char* tag,
              const dqm::core::Scenario& scenario, size_t num_tasks,
              uint64_t seed, dqm::bench::BenchJsonWriter& json) {
  std::printf("-- %s (%zu tasks, truth=%zu) --\n", title, num_tasks,
              scenario.num_dirty());
  dqm::core::SimulatedRun run =
      dqm::core::SimulateScenario(scenario, num_tasks, seed);
  double truth = static_cast<double>(scenario.num_dirty());
  // One panel row per shift: vchao92?shift=0 .. shift=4.
  constexpr uint32_t kMaxShift = 4;
  std::vector<std::string> specs;
  for (uint32_t shift = 0; shift <= kMaxShift; ++shift) {
    specs.push_back(dqm::StrFormat("vchao92?shift=%u", shift));
  }
  // mids[s] / finals[s]: shift s's estimate after half / all of the tasks,
  // one entry per permutation.
  std::vector<std::vector<double>> mids(specs.size()), finals(specs.size());
  for (uint64_t p = 0; p < 5; ++p) {
    dqm::crowd::ResponseLog permuted =
        dqm::core::PermuteTasks(run.log, seed + p);
    std::vector<std::vector<double>> series =
        dqm::core::PanelSeriesByTask(permuted, specs).value();
    for (size_t s = 0; s < specs.size(); ++s) {
      mids[s].push_back(series[s][series[s].size() / 2]);
      finals[s].push_back(series[s].back());
    }
  }
  dqm::AsciiTable table({"shift s", "mid-run est", "final est", "SRMSE"});
  for (uint32_t shift = 0; shift <= kMaxShift; ++shift) {
    table.AddRow({dqm::StrFormat("%u", shift),
                  dqm::StrFormat("%.1f", dqm::Mean(mids[shift])),
                  dqm::StrFormat("%.1f", dqm::Mean(finals[shift])),
                  dqm::StrFormat("%.3f", dqm::ScaledRmse(finals[shift], truth))});
    json.AddResult(dqm::StrFormat("%s_shift%u", tag, shift),
                   {{"final_estimate", dqm::Mean(finals[shift])},
                    {"srmse", dqm::ScaledRmse(finals[shift], truth)},
                    {"truth", truth}});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== vChao92 shift-parameter ablation ==\n");
  dqm::bench::BenchJsonWriter json("ablation_shift");
  RunSweep("Restaurant workload (FP-heavy)", "restaurant",
           dqm::core::RestaurantScenario(), 1000, 333, json);
  RunSweep("Simulation workload (1% FP + 10% FN)", "simulation",
           dqm::core::SimulationScenario(0.01, 0.10, 15), 700, 333, json);
  std::printf(
      "reading: no single s wins on both workloads — the paper's argument\n"
      "for the parameter-free SWITCH estimator.\n");
  dqm::bench::EmitBenchJson(json);
  dqm::bench::WriteBenchArtifact("ablation_shift");
  return 0;
}
