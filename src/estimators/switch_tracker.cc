#include "estimators/switch_tracker.h"

#include <algorithm>

#include "common/logging.h"

namespace dqm::estimators {

SwitchTracker::SwitchTracker(const crowd::ResponseLog& log)
    : SwitchTracker(log, Config()) {}

SwitchTracker::SwitchTracker(const crowd::ResponseLog& log,
                             const Config& config)
    : config_(config), log_(&log), items_(log.num_items()) {}

bool SwitchTracker::DetectSwitch(const ItemState& state, uint32_t dirty_votes,
                                 uint32_t clean_votes) const {
  switch (config_.tie_policy) {
    case TiePolicy::kTieAsSwitch:
      // Eq. (7): part (ii) — the very first vote is positive; part (i) —
      // any later tie in the running tallies.
      if (dirty_votes + clean_votes == 1) return dirty_votes == 1;
      return dirty_votes == clean_votes;
    case TiePolicy::kStrictMajority: {
      // A switch is a change of the strict-majority label. The label after
      // this vote:
      bool label_now = dirty_votes > clean_votes;
      return label_now != state.consensus_dirty;
    }
  }
  return false;
}

void SwitchTracker::StartSwitch(ItemState& state, bool positive) {
  if (state.live_freq == 0) {
    ++items_with_switches_;  // the item's first switch
  } else if (config_.memory == SwitchMemory::kLiveOnly) {
    // The superseded switch leaves the fingerprint with its mass.
    if (state.live_positive) {
      positive_f_.Remove(state.live_freq);
    } else {
      negative_f_.Remove(state.live_freq);
    }
  }
  state.live_positive = positive;
  state.live_freq = 1;
  if (positive) {
    positive_f_.AddSingleton();
    ++positive_switches_;
  } else {
    negative_f_.AddSingleton();
    ++negative_switches_;
  }
}

void SwitchTracker::Rediscover(ItemState& state) {
  if (state.live_positive) {
    positive_f_.Promote(state.live_freq);
  } else {
    negative_f_.Promote(state.live_freq);
  }
  ++state.live_freq;
}

void SwitchTracker::Observe(const crowd::VoteEvent& event) {
  DQM_CHECK_LT(event.item, items_.size());
  DQM_DCHECK(log_->num_events() == observed_votes_)
      << "SWITCH observed a vote out of lockstep with the log: "
      << log_->num_events() << " logged, " << observed_votes_ << " observed";
  ++observed_votes_;
  ItemState& state = items_[event.item];
  // The item's tallies after this vote: the log's plus `event`.
  const bool dirty = event.vote == crowd::Vote::kDirty;
  const uint32_t logged_positive = log_->positive_votes(event.item);
  const uint32_t dirty_votes = logged_positive + (dirty ? 1 : 0);
  const uint32_t clean_votes =
      log_->total_votes(event.item) - logged_positive + (dirty ? 0 : 1);

  if (DetectSwitch(state, dirty_votes, clean_votes)) {
    // The consensus flips; the live switch (if any) freezes at its current
    // frequency and a new species is born.
    bool positive;
    switch (config_.tie_policy) {
      case TiePolicy::kTieAsSwitch:
        positive = !state.consensus_dirty;
        state.consensus_dirty = !state.consensus_dirty;
        break;
      case TiePolicy::kStrictMajority:
        positive = !state.consensus_dirty;
        state.consensus_dirty = dirty_votes > clean_votes;
        DQM_DCHECK(state.consensus_dirty == positive);
        break;
    }
    StartSwitch(state, positive);
  } else if (state.live_freq > 0) {
    // A vote that does not flip the consensus rediscovers the live switch.
    Rediscover(state);
  }
  // else: vote before the item's first switch — a no-op (contributes to
  // neither the f-statistics nor n), per Section 4.2.
}

bool SwitchTracker::ConsensusDirty(size_t item) const {
  DQM_CHECK_LT(item, items_.size());
  return items_[item].consensus_dirty;
}

SwitchStatistics SwitchTracker::BuildStats(const FStatistics& f,
                                           uint64_t observed_switches) const {
  SwitchStatistics stats;
  stats.observed_switches = observed_switches;
  stats.f1 = f.singletons();
  stats.sum_ii1 = SumIiMinus1(f.fingerprint());
  switch (config_.counting) {
    case SwitchCountingMode::kPerSwitch:
      stats.c = f.NumSpecies();
      break;
    case SwitchCountingMode::kPerRecord:
      // Only meaningful for the combined statistics; for sign-restricted
      // stats we still use the species count (the literal reading does not
      // define a sign split).
      stats.c = items_with_switches_;
      break;
  }
  switch (config_.n_mode) {
    case SwitchNMode::kAllVotes:
      stats.n = f.TotalObservations();
      break;
    case SwitchNMode::kSpeciesSum:
      stats.n = f.NumSpecies();
      break;
  }
  return stats;
}

SwitchStatistics SwitchTracker::Statistics() const {
  // Merge the sign-separated fingerprints.
  SwitchStatistics pos = BuildStats(positive_f_, positive_switches_);
  SwitchStatistics neg = BuildStats(negative_f_, negative_switches_);
  SwitchStatistics merged;
  merged.f1 = pos.f1 + neg.f1;
  merged.sum_ii1 = pos.sum_ii1 + neg.sum_ii1;
  merged.n = pos.n + neg.n;
  merged.observed_switches = TotalSwitches();
  merged.c = (config_.counting == SwitchCountingMode::kPerRecord)
                 ? items_with_switches_
                 : pos.c + neg.c;
  return merged;
}

SwitchStatistics SwitchTracker::PositiveStatistics() const {
  SwitchStatistics stats = BuildStats(positive_f_, positive_switches_);
  if (config_.counting == SwitchCountingMode::kPerRecord) {
    stats.c = positive_f_.NumSpecies();
  }
  return stats;
}

SwitchStatistics SwitchTracker::NegativeStatistics() const {
  SwitchStatistics stats = BuildStats(negative_f_, negative_switches_);
  if (config_.counting == SwitchCountingMode::kPerRecord) {
    stats.c = negative_f_.NumSpecies();
  }
  return stats;
}

namespace {
double RemainingFrom(const SwitchStatistics& stats, bool skew) {
  double total = Chao92Point(stats.c, stats.f1, stats.n, stats.sum_ii1, skew);
  double remaining = total - static_cast<double>(stats.c);
  return std::max(remaining, 0.0);
}
}  // namespace

double SwitchTracker::EstimateTotalSwitches() const {
  SwitchStatistics stats = Statistics();
  return Chao92Point(stats.c, stats.f1, stats.n, stats.sum_ii1,
                     config_.skew_correction);
}

double SwitchTracker::EstimateRemainingSwitches() const {
  // xi = D_hat - switch(I). Under the default per-switch counting the
  // species count equals switch(I); under the literal per-record reading
  // we still subtract the observed species count so the estimate remains
  // non-negative (see DESIGN.md).
  SwitchStatistics stats = Statistics();
  double total = Chao92Point(stats.c, stats.f1, stats.n, stats.sum_ii1,
                             config_.skew_correction);
  return std::max(total - static_cast<double>(stats.c), 0.0);
}

double SwitchTracker::EstimateRemainingPositive() const {
  return RemainingFrom(PositiveStatistics(), config_.skew_correction);
}

double SwitchTracker::EstimateRemainingNegative() const {
  return RemainingFrom(NegativeStatistics(), config_.skew_correction);
}

SwitchesNeeded ComputeSwitchesNeeded(std::span<const uint32_t> positive,
                                     std::span<const uint32_t> total,
                                     const std::vector<bool>& truth) {
  DQM_CHECK_EQ(positive.size(), truth.size());
  DQM_CHECK_EQ(total.size(), truth.size());
  SwitchesNeeded needed;
  for (size_t i = 0; i < truth.size(); ++i) {
    bool consensus_dirty = positive[i] * 2 > total[i];
    if (truth[i] && !consensus_dirty) ++needed.positive;
    if (!truth[i] && consensus_dirty) ++needed.negative;
  }
  return needed;
}

}  // namespace dqm::estimators
