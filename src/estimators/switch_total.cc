#include "estimators/switch_total.h"

#include <algorithm>
#include <memory>

#include "common/stats.h"
#include "common/string_util.h"
#include "estimators/registry.h"

namespace dqm::estimators {

SwitchTotalErrorEstimator::SwitchTotalErrorEstimator(
    const crowd::ResponseLog& log)
    : SwitchTotalErrorEstimator(log, Config()) {}

SwitchTotalErrorEstimator::SwitchTotalErrorEstimator(
    const crowd::ResponseLog& log, const Config& config)
    : config_(config),
      log_(&log),
      tracker_(log, config.tracker),
      history_capacity_(std::max<size_t>(
          {config.trend_window, config.smooth_window, 1})) {}

void SwitchTotalErrorEstimator::Observe(const crowd::VoteEvent& event) {
  if (any_event_ && event.task != current_task_) {
    // A task boundary: the log's VOTING count before this task's first vote.
    if (majority_history_.size() < history_capacity_) {
      majority_history_.push_back(MajorityCount());
    } else {
      majority_history_[history_next_] = MajorityCount();
    }
    if (++history_next_ == history_capacity_) history_next_ = 0;
    UpdateDirection();
  }
  current_task_ = event.task;
  any_event_ = true;
  tracker_.Observe(event);
}

void SwitchTotalErrorEstimator::UpdateDirection() {
  // Moving average of the most recent VOTING samples (including the live
  // value) so plateau jitter does not reach the regime detector.
  size_t window = std::max<size_t>(config_.smooth_window, 1);
  size_t samples = std::min(majority_history_.size(), window - 1);
  double sum = MajorityCount();
  for (size_t i = history_next_, k = 0; k < samples; ++k) {
    i = PreviousSlot(i);
    sum += majority_history_[i];
  }
  double majority = sum / static_cast<double>(samples + 1);

  double threshold = std::max(config_.flip_threshold_abs,
                              config_.flip_threshold_rel * extreme_);
  if (direction_ >= 0) {
    extreme_ = std::max(extreme_, majority);
    if (majority <= extreme_ - threshold) {
      direction_ = -1;
      extreme_ = majority;
    }
  } else {
    extreme_ = std::min(extreme_, majority);
    if (majority >= extreme_ + threshold * config_.up_flip_factor) {
      direction_ = 1;
      extreme_ = majority;
    }
  }
}

double SwitchTotalErrorEstimator::VotingTrend() const {
  // The trend window always includes the live VOTING value so the detector
  // reacts before a task boundary is recorded.
  size_t samples = std::min(majority_history_.size(), config_.trend_window);
  std::vector<double> window(samples + 1);
  window[samples] = MajorityCount();
  for (size_t i = history_next_, k = samples; k > 0; --k) {
    i = PreviousSlot(i);
    window[k - 1] = majority_history_[i];
  }
  return Slope(window);
}

size_t SwitchTotalErrorEstimator::PreviousSlot(size_t slot) const {
  // While the ring is still growing history_next_ == size(), so the newest
  // sample is at size() - 1; once full, it sits just before history_next_.
  return (slot == 0 ? majority_history_.size() : slot) - 1;
}

double SwitchTotalErrorEstimator::Estimate() const {
  double majority = MajorityCount();
  double xi_pos = tracker_.EstimateRemainingPositive();
  double xi_neg = tracker_.EstimateRemainingNegative();
  double estimate;
  if (config_.two_sided) {
    estimate = majority + xi_pos - xi_neg;
  } else {
    // Dynamic one-sided correction (Section 4.3): an improving VOTING count
    // means undiscovered errors dominate -> add remaining positive
    // switches; a shrinking count means false positives are being corrected
    // -> subtract remaining negative switches.
    estimate = (direction_ >= 0) ? majority + xi_pos : majority - xi_neg;
  }
  return std::max(estimate, 0.0);
}

namespace {

/// Builds a SWITCH Config from spec params. Every tunable of the estimator
/// and its tracker is reachable by string so saved bench configs and CLI
/// flags can express the full ablation space.
Result<SwitchTotalErrorEstimator::Config> SwitchConfigFromSpec(
    const EstimatorSpec& spec) {
  SwitchTotalErrorEstimator::Config config;
  SpecParamReader params(spec);
  // `tau` is the short spec-string spelling of the trend window; setting
  // both aliases is ambiguous and rejected.
  if (params.Has("tau") && params.Has("trend_window")) {
    return Status::InvalidArgument(
        "estimator 'switch': set only one of tau|trend_window");
  }
  DQM_ASSIGN_OR_RETURN(
      uint32_t trend_window,
      params.GetUint32("trend_window",
                       static_cast<uint32_t>(config.trend_window)));
  DQM_ASSIGN_OR_RETURN(uint32_t tau, params.GetUint32("tau", trend_window));
  config.trend_window = tau;
  DQM_ASSIGN_OR_RETURN(config.flip_threshold_abs,
                       params.GetDouble("flip_abs", config.flip_threshold_abs));
  DQM_ASSIGN_OR_RETURN(config.flip_threshold_rel,
                       params.GetDouble("flip_rel", config.flip_threshold_rel));
  DQM_ASSIGN_OR_RETURN(
      config.up_flip_factor,
      params.GetDouble("up_flip_factor", config.up_flip_factor));
  DQM_ASSIGN_OR_RETURN(
      uint32_t smooth_window,
      params.GetUint32("smooth_window",
                       static_cast<uint32_t>(config.smooth_window)));
  config.smooth_window = smooth_window;
  DQM_ASSIGN_OR_RETURN(config.two_sided,
                       params.GetBool("two_sided", config.two_sided));
  DQM_ASSIGN_OR_RETURN(
      config.tracker.skew_correction,
      params.GetBool("skew", config.tracker.skew_correction));

  DQM_ASSIGN_OR_RETURN(std::string tie_policy,
                       params.GetString("tie_policy", "tie"));
  if (tie_policy == "tie") {
    config.tracker.tie_policy = TiePolicy::kTieAsSwitch;
  } else if (tie_policy == "strict") {
    config.tracker.tie_policy = TiePolicy::kStrictMajority;
  } else {
    return Status::InvalidArgument(StrFormat(
        "estimator 'switch': tie_policy=%s (want tie|strict)",
        tie_policy.c_str()));
  }
  DQM_ASSIGN_OR_RETURN(std::string n_mode, params.GetString("n_mode", "all"));
  if (n_mode == "all") {
    config.tracker.n_mode = SwitchNMode::kAllVotes;
  } else if (n_mode == "species") {
    config.tracker.n_mode = SwitchNMode::kSpeciesSum;
  } else {
    return Status::InvalidArgument(StrFormat(
        "estimator 'switch': n_mode=%s (want all|species)", n_mode.c_str()));
  }
  DQM_ASSIGN_OR_RETURN(std::string counting,
                       params.GetString("counting", "per-switch"));
  if (counting == "per-switch") {
    config.tracker.counting = SwitchCountingMode::kPerSwitch;
  } else if (counting == "per-record") {
    config.tracker.counting = SwitchCountingMode::kPerRecord;
  } else {
    return Status::InvalidArgument(
        StrFormat("estimator 'switch': counting=%s (want per-switch|"
                  "per-record)",
                  counting.c_str()));
  }
  DQM_ASSIGN_OR_RETURN(std::string memory, params.GetString("memory", "live"));
  if (memory == "live") {
    config.tracker.memory = SwitchMemory::kLiveOnly;
  } else if (memory == "all") {
    config.tracker.memory = SwitchMemory::kAllSwitches;
  } else {
    return Status::InvalidArgument(StrFormat(
        "estimator 'switch': memory=%s (want live|all)", memory.c_str()));
  }
  DQM_RETURN_NOT_OK(params.VerifyAllConsumed());
  return config;
}

}  // namespace

void internal::RegisterBuiltinSwitch(EstimatorRegistry& registry) {
  Status status = registry.Register(EstimatorRegistry::Entry{
      .name = "switch",
      .display_name = "SWITCH",
      .help = "the paper's SWITCH estimator; params: tau|trend_window=<uint>, "
              "flip_abs=<float>, flip_rel=<float>, up_flip_factor=<float>, "
              "smooth_window=<uint>, two_sided=<bool>, skew=<bool>, "
              "tie_policy=tie|strict, n_mode=all|species, "
              "counting=per-switch|per-record, memory=live|all",
      // SWITCH is defined over the vote *sequence* (task-order sensitive by
      // design), but items within a task are distinct, so reordering inside
      // a task preserves every per-item vote stream and the task-boundary
      // VOTING samples.
      .traits = ConformanceTraits{.within_task_invariant = true},
      .factory = [](const crowd::ResponseLog& log, const EstimatorSpec& spec)
          -> Result<std::unique_ptr<TotalErrorEstimator>> {
        DQM_ASSIGN_OR_RETURN(SwitchTotalErrorEstimator::Config config,
                             SwitchConfigFromSpec(spec));
        return std::unique_ptr<TotalErrorEstimator>(
            std::make_unique<SwitchTotalErrorEstimator>(log, config));
      }});
  DQM_CHECK(status.ok()) << status.ToString();
}

}  // namespace dqm::estimators
