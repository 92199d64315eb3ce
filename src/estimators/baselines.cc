#include "estimators/baselines.h"

#include "common/logging.h"
#include "estimators/registry.h"

namespace dqm::estimators {

// The ResponseLog already maintains exactly these counts, so the rows are
// free: no per-event work, no duplicated tallies.
double NominalScore(const crowd::ResponseLog& log) {
  return static_cast<double>(log.NominalCount());
}

double VotingScore(const crowd::ResponseLog& log) {
  return static_cast<double>(log.MajorityCount());
}

void internal::RegisterBuiltinBaselines(EstimatorRegistry& registry) {
  // The descriptive counts depend only on the per-item tallies, survive
  // whole-log duplication unchanged, and can only grow with dirty votes.
  const ConformanceTraits descriptive_traits{
      .permutation_invariant = true,
      .within_task_invariant = true,
      .duplication_invariant = true,
      .monotone_in_dirty_votes = true,
  };
  Status status = registry.Register(EstimatorRegistry::Entry{
      .name = "voting",
      .display_name = "VOTING",
      .help = "majority-consensus count (descriptive); no params",
      .traits = descriptive_traits,
      .factory = ParameterlessScorer("VOTING", VotingScore)});
  DQM_CHECK(status.ok()) << status.ToString();
  status = registry.Register(EstimatorRegistry::Entry{
      .name = "nominal",
      .display_name = "NOMINAL",
      .help = "at-least-one-dirty-vote count (descriptive); no params",
      .traits = descriptive_traits,
      .factory = ParameterlessScorer("NOMINAL", NominalScore)});
  DQM_CHECK(status.ok()) << status.ToString();
}

}  // namespace dqm::estimators
