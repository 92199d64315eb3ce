#include "conformance/conformance_utils.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"

namespace dqm::conformance {

std::vector<std::string> ConformanceWorkloadSpecs() {
  // Small universes keep the full matrix (workloads x estimators x
  // properties) fast enough for every-PR CI under sanitizers. Family
  // params keep their defaults — the conformance harness exercises each
  // family's characteristic hostility, not its whole knob space.
  std::vector<std::string> specs;
  for (const std::string& name :
       workload::WorkloadRegistry::Global().Names()) {
    specs.push_back(name + "?n=80&dirty=12&tasks=50&ipt=8&batch=37");
  }
  return specs;
}

workload::GeneratedWorkload MustGenerate(const std::string& spec,
                                         uint64_t seed) {
  Result<std::unique_ptr<workload::Workload>> generator =
      workload::WorkloadRegistry::Global().Create(spec);
  DQM_CHECK(generator.ok()) << generator.status().ToString();
  return (*generator)->Generate(seed);
}

std::vector<crowd::VoteEvent> FirstFamilyVotes(uint64_t seed,
                                               size_t* num_items) {
  workload::GeneratedWorkload run =
      MustGenerate(ConformanceWorkloadSpecs().front(), seed);
  *num_items = run.log.num_items();
  return run.log.events();
}

double OneRowEstimate(const std::string& spec, size_t num_items,
                      const std::vector<crowd::VoteEvent>& events) {
  return ReplayPipeline(num_items, {spec}, events).EstimatedTotalErrors();
}

core::DataQualityMetric ReplayPipeline(
    size_t num_items, const std::vector<std::string>& specs,
    const std::vector<crowd::VoteEvent>& events) {
  Result<core::DataQualityMetric> metric =
      core::DataQualityMetric::Create(num_items, specs);
  DQM_CHECK(metric.ok()) << metric.status().ToString();
  for (const crowd::VoteEvent& event : events) {
    metric->AddVote(event.task, event.worker, event.item,
                    event.vote == crowd::Vote::kDirty);
  }
  return std::move(metric).value();
}

std::vector<crowd::VoteEvent> ShuffleWithinTasks(
    const std::vector<crowd::VoteEvent>& events, uint64_t seed) {
  std::vector<crowd::VoteEvent> shuffled = events;
  Rng rng(seed);
  size_t begin = 0;
  while (begin < shuffled.size()) {
    size_t end = begin + 1;
    while (end < shuffled.size() &&
           shuffled[end].task == shuffled[begin].task) {
      ++end;
    }
    for (size_t i = end - 1; i > begin; --i) {
      size_t j = begin + rng.UniformIndex(i - begin + 1);
      std::swap(shuffled[i], shuffled[j]);
    }
    begin = end;
  }
  return shuffled;
}

std::vector<crowd::VoteEvent> DuplicateLog(
    const std::vector<crowd::VoteEvent>& events) {
  uint32_t max_task = 0;
  uint32_t max_worker = 0;
  for (const crowd::VoteEvent& event : events) {
    max_task = std::max(max_task, event.task);
    max_worker = std::max(max_worker, event.worker);
  }
  std::vector<crowd::VoteEvent> doubled = events;
  doubled.reserve(events.size() * 2);
  for (const crowd::VoteEvent& event : events) {
    doubled.push_back(crowd::VoteEvent{event.task + max_task + 1,
                                       event.worker + max_worker + 1,
                                       event.item, event.vote});
  }
  return doubled;
}

estimators::ConformanceTraits TraitsFor(const std::string& spec) {
  Result<estimators::EstimatorSpec> parsed =
      estimators::ParseEstimatorSpec(spec);
  DQM_CHECK(parsed.ok()) << parsed.status().ToString();
  Result<std::shared_ptr<const estimators::EstimatorRegistry::Entry>> entry =
      estimators::EstimatorRegistry::Global().Find(parsed->name);
  DQM_CHECK(entry.ok()) << entry.status().ToString();
  return (*entry)->traits;
}

double AgreementBound(const estimators::ConformanceTraits& traits, double a,
                      double b) {
  if (traits.estimate_tolerance_abs == 0.0 &&
      traits.estimate_tolerance_rel == 0.0) {
    return 0.0;
  }
  return traits.estimate_tolerance_abs +
         traits.estimate_tolerance_rel *
             std::max(std::abs(a), std::abs(b));
}

void ExpectEstimatesAgree(const estimators::ConformanceTraits& traits,
                          double expected, double actual,
                          const std::string& context) {
  double bound = AgreementBound(traits, expected, actual);
  if (bound == 0.0) {
    EXPECT_EQ(expected, actual) << context;
  } else {
    EXPECT_NEAR(expected, actual, bound) << context;
  }
}

}  // namespace dqm::conformance
