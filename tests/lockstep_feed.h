#ifndef DQM_TESTS_LOCKSTEP_FEED_H_
#define DQM_TESTS_LOCKSTEP_FEED_H_

#include <cstddef>

#include "crowd/response_log.h"
#include "crowd/vote.h"

namespace dqm::test {

/// Owns the tally log a LockstepFeed's observer reads; a base of the feed so
/// the log is built before the observer that keeps a reference to it.
struct TallyLogHolder {
  explicit TallyLogHolder(size_t num_items)
      : log(num_items, crowd::RetentionPolicy::kTallies) {}
  crowd::ResponseLog log;
};

/// A standalone order-sensitive observer (estimators::SwitchTracker,
/// estimators::SwitchTotalErrorEstimator) over its own tally log, fed in
/// lockstep the way core::DataQualityMetric::AddVote feeds a pipeline:
/// Observe(event) hands the vote to the observer, then appends it to the
/// log. Everything else is the observer's own interface.
template <typename Observer>
class LockstepFeed : private TallyLogHolder, public Observer {
 public:
  template <typename... Config>
  explicit LockstepFeed(size_t num_items, const Config&... config)
      : TallyLogHolder(num_items), Observer(log, config...) {}

  LockstepFeed(const LockstepFeed&) = delete;
  LockstepFeed& operator=(const LockstepFeed&) = delete;

  void Observe(const crowd::VoteEvent& event) {
    Observer::Observe(event);
    log.Append(event);
  }
};

}  // namespace dqm::test

#endif  // DQM_TESTS_LOCKSTEP_FEED_H_
