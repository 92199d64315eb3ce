#ifndef DQM_TESTS_CONFORMANCE_CONFORMANCE_UTILS_H_
#define DQM_TESTS_CONFORMANCE_CONFORMANCE_UTILS_H_

// Shared machinery of the metamorphic conformance harness: every registered
// estimator is cross-checked against every registered workload family, so a
// newly registered estimator (or workload) is verified by construction —
// add it to its registry and the whole matrix of properties runs against it
// with zero new test code.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dqm.h"
#include "crowd/vote.h"
#include "estimators/registry.h"
#include "workload/workload.h"

namespace dqm::conformance {

/// One small spec per registered workload family (CI-sized universes), in
/// registry order — the scenario axis of the conformance matrix.
std::vector<std::string> ConformanceWorkloadSpecs();

/// Generates `spec` via the global workload registry; aborts the test on
/// registry errors (conformance inputs must be valid by construction).
workload::GeneratedWorkload MustGenerate(const std::string& spec,
                                         uint64_t seed);

/// Replays `events` through a one-row panel for `spec` and returns its
/// final estimate — the reference every N-row panel row must reproduce.
double OneRowEstimate(const std::string& spec, size_t num_items,
                      const std::vector<crowd::VoteEvent>& events);

/// Replays `events` through a multi-estimator pipeline over `specs`.
core::DataQualityMetric ReplayPipeline(size_t num_items,
                                       const std::vector<std::string>& specs,
                                       const std::vector<crowd::VoteEvent>& events);

/// Reorders votes *within* each task uniformly at random; task order and
/// every per-item vote order are preserved (items are distinct in a task).
std::vector<crowd::VoteEvent> ShuffleWithinTasks(
    const std::vector<crowd::VoteEvent>& events, uint64_t seed);

/// The whole log followed by an exact copy of itself under fresh task and
/// worker ids — the duplication metamorphic input.
std::vector<crowd::VoteEvent> DuplicateLog(
    const std::vector<crowd::VoteEvent>& events);

/// The declared conformance traits of a registered estimator. Accepts a
/// bare name or a full spec string ("em-voting?max_iters=7"): params are
/// parsed away and aliases resolved.
estimators::ConformanceTraits TraitsFor(const std::string& spec);

/// The allowed |a - b| when comparing two estimates of the same log state
/// produced through different re-estimation cadences: 0 for bit-stable
/// estimators (compare with EXPECT_EQ), otherwise the declared
/// estimate_tolerance_abs + estimate_tolerance_rel * max(|a|, |b|).
double AgreementBound(const estimators::ConformanceTraits& traits, double a,
                      double b);

/// EXPECT-level agreement check honoring the declared tolerance: exact
/// equality when none is declared. For derived quantities (quality scores)
/// derive the bound from the underlying error counts via AgreementBound
/// instead — see conformance_engine_parity_test.
void ExpectEstimatesAgree(const estimators::ConformanceTraits& traits,
                          double expected, double actual,
                          const std::string& context);

}  // namespace dqm::conformance

#endif  // DQM_TESTS_CONFORMANCE_CONFORMANCE_UTILS_H_
