#ifndef DQM_ESTIMATORS_SWITCH_TOTAL_H_
#define DQM_ESTIMATORS_SWITCH_TOTAL_H_

#include <cstdint>
#include <vector>

#include "estimators/estimator.h"
#include "estimators/switch_tracker.h"

namespace dqm::estimators {

/// SWITCH — the paper's headline estimator (Section 4.3): corrects the
/// majority consensus VOTING by the estimated number of remaining consensus
/// switches.
///
///   estimate = majority(I) + xi+        when VOTING is trending up
///   estimate = majority(I) - xi-        when VOTING is trending down
///   estimate = majority(I) + xi+ - xi-  (two-sided ablation mode)
///
/// The trend is the OLS slope of the VOTING count over the most recent
/// `trend_window` task boundaries; a non-negative slope selects the positive
/// branch (the paper's monotone-improvement argument: one-sided correction
/// keeps SWITCH at least as good as VOTING).
///
/// VOTING and the item tallies are the pipeline's log's (which must outlive
/// the estimator); SWITCH itself keeps only the tracker's switch state and
/// the VOTING trend.
class SwitchTotalErrorEstimator : public TotalErrorEstimator {
 public:
  struct Config {
    SwitchTracker::Config tracker;
    /// Number of most-recent per-task VOTING samples in the diagnostic
    /// trend slope (VotingTrend()).
    size_t trend_window = 100;
    /// CUSUM-style regime detection: the correction direction flips only
    /// when the *smoothed* VOTING count retreats from its running extreme
    /// (max while trending up, min while trending down) by more than
    /// max(flip_threshold_abs, flip_threshold_rel * extreme) items. This
    /// keeps +/-1 count jitter on plateaus from toggling the correction.
    double flip_threshold_abs = 3.0;
    double flip_threshold_rel = 0.05;
    /// Upward flips (down -> up) must clear the threshold scaled by this
    /// factor. Asymmetric because the paper's premise is that the majority
    /// consensus improves monotonically: once corrections dominate (VOTING
    /// falling), transient upward jitter from fresh false positives should
    /// not re-select the positive branch.
    double up_flip_factor = 2.0;
    /// Moving-average window (in task boundaries) applied to VOTING before
    /// the regime detector sees it.
    size_t smooth_window = 10;
    /// Ablation: always apply both corrections instead of the dynamic
    /// one-sided choice.
    bool two_sided = false;
  };

  explicit SwitchTotalErrorEstimator(const crowd::ResponseLog& log);
  SwitchTotalErrorEstimator(const crowd::ResponseLog& log,
                            const Config& config);

  void Observe(const crowd::VoteEvent& event) override;
  double Estimate() const override;
  std::string_view name() const override { return "SWITCH"; }

  /// xi+ / xi- — the remaining-switch estimates (Figures 3-5 (b) and (c)).
  double RemainingPositive() const {
    return tracker_.EstimateRemainingPositive();
  }
  double RemainingNegative() const {
    return tracker_.EstimateRemainingNegative();
  }

  /// Current VOTING count (the quantity being corrected), read from the
  /// log.
  double MajorityCount() const {
    return static_cast<double>(log_->MajorityCount());
  }

  /// Slope of the recent VOTING history (exposed for diagnostics/tests).
  double VotingTrend() const;

  /// The current one-sided correction direction: +1 -> majority + xi+,
  /// -1 -> majority - xi-. Re-evaluated at every task boundary with
  /// hysteresis (an exactly-flat window keeps the previous direction), so
  /// noisy plateaus do not flip the correction back and forth.
  int direction() const { return direction_; }

  const SwitchTracker& tracker() const { return tracker_; }

 private:
  void UpdateDirection();
  /// The ring slot holding the sample just older than the one in `slot`;
  /// walking back from history_next_ visits the samples newest first.
  size_t PreviousSlot(size_t slot) const;

  Config config_;
  const crowd::ResponseLog* log_;
  SwitchTracker tracker_;
  /// VOTING count sampled at the most recent task boundaries: a ring of at
  /// most history_capacity_ samples, grown lazily (the windows are user
  /// input, so a large one must not allocate up front). Nothing reads
  /// further back, so a long-lived session keeps bounded memory.
  std::vector<double> majority_history_;
  size_t history_capacity_;
  /// Slot the next sample lands in.
  size_t history_next_ = 0;
  uint32_t current_task_ = 0;
  bool any_event_ = false;
  int direction_ = 1;
  /// Running extreme of VOTING since the last direction flip (max while
  /// direction_ == +1, min while -1).
  double extreme_ = 0.0;
};

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_SWITCH_TOTAL_H_
