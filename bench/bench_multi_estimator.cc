// One-pass multi-estimator evaluation vs the pre-registry workflow.
//
// The paper's comparisons (Figs. 2, 4, 6) score the whole estimator panel —
// SWITCH, CHAO92, GOOD-TURING, V-CHAO, VOTING, NOMINAL — on the same vote
// stream. One metric per estimator means six independent single-method
// `DataQualityMetric` replays: six response-log copies, six sets of
// per-item tallies, six duplicated positive-vote fingerprints. The
// multi-estimator pipeline attaches all six to ONE log and shares the
// descriptive statistics, so the comparison costs one replay.
//
// The workload is the Figure 2(b) regime: the restaurant candidate-pair
// space cleaned by an FP-heavy crowd. The bench cross-checks that both
// modes produce bit-identical finals before it reports any timing.

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/dqm.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "figure_common.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const std::vector<std::string> kPanel = {
    "switch", "chao92", "good-turing", "vchao92", "voting", "nominal"};

struct Timed {
  double seconds = 0.0;
  std::vector<double> finals;  // one per panel estimator
};

/// One full single-method replay per estimator.
Timed RunSixReplays(const std::vector<dqm::crowd::VoteEvent>& events,
                    size_t num_items) {
  Timed result;
  Clock::time_point start = Clock::now();
  for (const std::string& spec : kPanel) {
    dqm::core::DataQualityMetric metric =
        dqm::core::DataQualityMetric::Create(num_items, {spec}).value();
    for (const dqm::crowd::VoteEvent& event : events) {
      metric.AddVote(event.task, event.worker, event.item,
                     event.vote == dqm::crowd::Vote::kDirty);
    }
    result.finals.push_back(metric.EstimatedTotalErrors());
  }
  result.seconds = SecondsSince(start);
  return result;
}

/// The registry workflow: all six estimators on one pass.
Timed RunOnePass(const std::vector<dqm::crowd::VoteEvent>& events,
                 size_t num_items) {
  Timed result;
  Clock::time_point start = Clock::now();
  dqm::core::DataQualityMetric metric =
      dqm::core::DataQualityMetric::Create(
          num_items, std::span<const std::string>(kPanel))
          .value();
  for (const dqm::crowd::VoteEvent& event : events) {
    metric.AddVote(event.task, event.worker, event.item,
                   event.vote == dqm::crowd::Vote::kDirty);
  }
  for (const auto& row : metric.Report().estimators) {
    result.finals.push_back(row.total_errors);
  }
  result.seconds = SecondsSince(start);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  dqm::FlagParser flags;
  int64_t* tasks = flags.AddInt("tasks", 800, "crowd tasks to simulate");
  int64_t* repeats =
      flags.AddInt("repeats", 5, "timing repetitions (best-of is reported)");
  int64_t* seed = flags.AddInt("seed", 20170202, "simulation seed");
  dqm::Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    return status.code() == dqm::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  // Figure 2(b) regime: restaurant candidate pairs, FP-heavy workers.
  dqm::core::Scenario scenario = dqm::core::RestaurantScenario();
  dqm::core::SimulatedRun run = dqm::core::SimulateScenario(
      scenario, static_cast<size_t>(*tasks), static_cast<uint64_t>(*seed));
  const std::vector<dqm::crowd::VoteEvent>& events = run.log.events();
  std::printf(
      "== multi-estimator report: one pass vs six single-method replays ==\n");
  std::printf("workload: %s — %zu items, %zu votes, %lld tasks, panel of %zu\n",
              scenario.name.c_str(), scenario.num_items, events.size(),
              static_cast<long long>(*tasks), kPanel.size());

  Timed best_replays, best_one_pass;
  for (int64_t rep = 0; rep < std::max<int64_t>(1, *repeats); ++rep) {
    Timed replays = RunSixReplays(events, scenario.num_items);
    Timed one_pass = RunOnePass(events, scenario.num_items);
    // Equivalence first, timing second: every panel estimate must be
    // bit-identical across the two modes.
    DQM_CHECK_EQ(replays.finals.size(), one_pass.finals.size());
    for (size_t i = 0; i < replays.finals.size(); ++i) {
      DQM_CHECK(replays.finals[i] == one_pass.finals[i])
          << kPanel[i] << ": " << replays.finals[i]
          << " != " << one_pass.finals[i];
    }
    if (rep == 0 || replays.seconds < best_replays.seconds) {
      best_replays = replays;
    }
    if (rep == 0 || one_pass.seconds < best_one_pass.seconds) {
      best_one_pass = one_pass;
    }
  }

  double speedup = best_replays.seconds / best_one_pass.seconds;
  double votes = static_cast<double>(events.size());
  std::printf("six sequential replays: %8.2f ms  (%6.2f Mvotes/s effective)\n",
              best_replays.seconds * 1e3,
              votes * static_cast<double>(kPanel.size()) /
                  best_replays.seconds / 1e6);
  std::printf("one-pass pipeline:      %8.2f ms  (%6.2f Mvotes/s effective)\n",
              best_one_pass.seconds * 1e3,
              votes * static_cast<double>(kPanel.size()) /
                  best_one_pass.seconds / 1e6);
  std::printf("speedup: %.2fx (bit-identical panel estimates)\n", speedup);
  for (size_t i = 0; i < kPanel.size(); ++i) {
    std::printf("  %-12s %.1f\n", kPanel[i].c_str(), best_one_pass.finals[i]);
  }

  dqm::bench::BenchJsonWriter json("multi_estimator");
  json.AddResult("six_single_method_replays",
                 {{"seconds", best_replays.seconds},
                  {"votes", votes},
                  {"estimators", static_cast<double>(kPanel.size())}});
  json.AddResult("one_pass_report",
                 {{"seconds", best_one_pass.seconds},
                  {"votes", votes},
                  {"estimators", static_cast<double>(kPanel.size())},
                  {"speedup", speedup}});
  dqm::bench::EmitBenchJson(json);
  dqm::bench::WriteBenchArtifact("multi_estimator");
  return 0;
}
