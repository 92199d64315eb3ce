// Ablation of the SWITCH estimator's design choices (DESIGN.md):
//
//   * memory      — live-only fingerprint (default) vs keeping every frozen
//                   switch (the overestimation the paper's Section 4.2
//                   discusses: corrected FPs stay singletons forever)
//   * n mode      — all counted votes (paper's final choice) vs the species
//                   sum (the paper's first, discarded definition)
//   * tie policy  — Eq. (7)'s tie-as-switch vs strict majority changes
//   * correction  — dynamic one-sided (Section 4.3) vs always two-sided
//
// Each variant runs on the Figure 7(c) workload (1000 pairs, 100 dups,
// 1% FP + 10% FN) and on the FP-heavy Restaurant workload, where the
// differences are most visible.

#include <cstdio>

#include "common/ascii.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "figure_common.h"

namespace {

/// A SWITCH design variant, as a registry spec.
struct Variant {
  std::string name;
  std::string spec;
};

std::vector<Variant> Variants() {
  return {
      {"default (live, all-votes, tie-switch, 1-sided)", "switch"},
      {"memory: keep frozen switches", "switch?memory=all"},
      {"n: species sum (paper's first def)", "switch?n_mode=species"},
      {"tie policy: strict majority", "switch?tie_policy=strict"},
      {"correction: two-sided", "switch?two_sided=1"},
      {"no gamma^2 skew correction", "switch?skew=0"},
  };
}

void RunWorkload(const char* title, const char* tag,
                 const dqm::core::Scenario& scenario, size_t num_tasks,
                 uint64_t seed, dqm::bench::BenchJsonWriter& json) {
  std::printf("-- %s (%zu tasks, truth=%zu) --\n", title, num_tasks,
              scenario.num_dirty());
  dqm::core::SimulatedRun run =
      dqm::core::SimulateScenario(scenario, num_tasks, seed);
  double truth = static_cast<double>(scenario.num_dirty());

  // Average over task-order permutations, as in the paper; every variant
  // is one row of the panel each permutation replays through.
  const std::vector<Variant> variants = Variants();
  std::vector<std::string> specs;
  for (const Variant& variant : variants) specs.push_back(variant.spec);
  std::vector<std::vector<double>> mids(specs.size()), finals(specs.size());
  for (uint64_t p = 0; p < 5; ++p) {
    dqm::crowd::ResponseLog permuted =
        dqm::core::PermuteTasks(run.log, seed + 100 + p);
    std::vector<std::vector<double>> series =
        dqm::core::PanelSeriesByTask(permuted, specs).value();
    for (size_t v = 0; v < specs.size(); ++v) {
      mids[v].push_back(series[v][series[v].size() / 2]);
      finals[v].push_back(series[v].back());
    }
  }
  dqm::AsciiTable table({"variant", "mid-run est", "final est", "SRMSE"});
  for (size_t v = 0; v < variants.size(); ++v) {
    table.AddRow({variants[v].name, dqm::StrFormat("%.1f", dqm::Mean(mids[v])),
                  dqm::StrFormat("%.1f", dqm::Mean(finals[v])),
                  dqm::StrFormat("%.3f", dqm::ScaledRmse(finals[v], truth))});
    json.AddResult(std::string(tag) + ":" + variants[v].name,
                   {{"final_estimate", dqm::Mean(finals[v])},
                    {"srmse", dqm::ScaledRmse(finals[v], truth)},
                    {"truth", truth}});
  }
  std::fputs(table.Render().c_str(), stdout);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== SWITCH design ablation ==\n");
  dqm::bench::BenchJsonWriter json("ablation_switch");
  RunWorkload("Figure 7(c) workload (1% FP + 10% FN)", "fig7c",
              dqm::core::SimulationScenario(0.01, 0.10, 15), 700, 4242, json);
  RunWorkload("Restaurant workload (FP-heavy)", "restaurant",
              dqm::core::RestaurantScenario(), 1000, 4242, json);
  std::printf(
      "reading: frozen-switch memory and the species-sum n keep a positive\n"
      "bias on FP-heavy data; the live-only default converges.\n");
  dqm::bench::EmitBenchJson(json);
  dqm::bench::WriteBenchArtifact("ablation_switch");
  return 0;
}
