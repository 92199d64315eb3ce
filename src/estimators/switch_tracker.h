#ifndef DQM_ESTIMATORS_SWITCH_TRACKER_H_
#define DQM_ESTIMATORS_SWITCH_TRACKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crowd/response_log.h"
#include "crowd/vote.h"
#include "estimators/f_statistics.h"

namespace dqm::estimators {

/// How consensus switches are detected from the vote sequence.
enum class TiePolicy {
  /// The paper's Eq. (7): a switch is counted at every vote tie
  /// (n+ == n-), plus when the very first vote is positive. The tracked
  /// consensus label toggles at each switch.
  kTieAsSwitch,
  /// A switch is counted only when the *strict* majority label
  /// (n+ > n-) actually changes; ties retain the previous label.
  /// Ablation alternative ("various [tie-breaking] policies", Section 4.1).
  kStrictMajority,
};

/// What `n` means in the switch estimator's coverage term (Section 4.2).
enum class SwitchNMode {
  /// The paper's final choice: all votes on an item from its first switch
  /// onward count ("we use a small modification and simply count all votes
  /// as n", adjusted by the no-op subtraction). Equivalently: every counted
  /// vote contributes one (re)discovery to exactly one switch, so
  /// n = sum_j j * f'_j.
  kAllVotes,
  /// The paper's first (discarded) definition, n = sum_j f'_j — implicitly
  /// restarts sampling at every switch and tends to overestimate. Kept for
  /// the ablation bench.
  kSpeciesSum,
};

/// What `c` counts in Eq. (8).
enum class SwitchCountingMode {
  /// Species reading (default): every switch currently in the fingerprint
  /// is its own species. Under live-only memory this coincides with the
  /// literal Eq. (8) c_switch (one live switch per switched record).
  kPerSwitch,
  /// Literal Eq. (8): c = number of records with at least one switch.
  /// Kept for the ablation bench.
  kPerRecord,
};

/// Which switches stay in the f-statistics (see DESIGN.md, "c_switch
/// reading").
enum class SwitchMemory {
  /// Default: only each item's *live* (most recent) switch is a species.
  /// When the consensus flips again, the superseded switch leaves the
  /// fingerprint together with its rediscovery mass. This is the reading
  /// under which the estimator converges: corrected false positives stop
  /// polluting f1, so xi -> 0 as the consensus stabilizes — the behavior
  /// the paper reports on all three datasets.
  kLiveOnly,
  /// Every switch ever created stays in the fingerprint at its frozen
  /// frequency. Corrected false positives then remain singletons forever
  /// and the remaining-switch estimate keeps a permanent positive bias;
  /// kept for the ablation bench that quantifies exactly that.
  kAllSwitches,
};

/// Aggregated switch statistics in species-estimator form.
struct SwitchStatistics {
  uint64_t c = 0;        // species count (per counting mode)
  uint64_t f1 = 0;       // singleton switches
  uint64_t n = 0;        // observations (per n mode)
  uint64_t sum_ii1 = 0;  // skew moment
  uint64_t observed_switches = 0;  // switch(I), sign-restricted if applicable
};

/// Ground truth for the switch problem: switches still needed for the
/// current majority consensus to reach the true labels (positive =
/// clean->dirty flips needed, negative = dirty->clean).
struct SwitchesNeeded {
  size_t positive = 0;
  size_t negative = 0;
};

/// The consensus state machine behind the SWITCH estimator (Section 4).
///
/// The item tallies it detects switches from are the pipeline's
/// crowd::ResponseLog's (which must outlive the tracker); the tracker keeps
/// only each item's switch state. Every item starts with the default label "clean". As votes arrive the
/// tracker detects consensus switches per the configured TiePolicy; each
/// switch is a species, every later vote on the item that does not flip the
/// consensus "rediscovers" the live switch (raising its frequency), and
/// votes before an item's first switch are no-ops that contribute nothing.
/// Positive (clean->dirty) and negative (dirty->clean) switches keep
/// separate f-statistics so the remaining amount of each can be estimated
/// independently (Section 4.3).
class SwitchTracker {
 public:
  struct Config {
    TiePolicy tie_policy = TiePolicy::kTieAsSwitch;
    SwitchNMode n_mode = SwitchNMode::kAllVotes;
    SwitchCountingMode counting = SwitchCountingMode::kPerSwitch;
    SwitchMemory memory = SwitchMemory::kLiveOnly;
    /// Use the gamma^2 skew correction in the switch estimates.
    bool skew_correction = true;
  };

  explicit SwitchTracker(const crowd::ResponseLog& log);
  SwitchTracker(const crowd::ResponseLog& log, const Config& config);

  /// Consumes one vote just before the log appends it (the
  /// TotalErrorEstimator::Observe contract): the item's tallies after this
  /// vote are the log's plus `event`.
  void Observe(const crowd::VoteEvent& event);

  /// switch(I) — total observed switches (Eq. 7 under kTieAsSwitch).
  uint64_t TotalSwitches() const { return positive_switches_ + negative_switches_; }
  uint64_t PositiveSwitches() const { return positive_switches_; }
  uint64_t NegativeSwitches() const { return negative_switches_; }

  /// Number of records with at least one switch (literal Eq. 8 c_switch).
  uint64_t ItemsWithSwitches() const { return items_with_switches_; }

  /// The tracker's current consensus label for `item`.
  bool ConsensusDirty(size_t item) const;

  /// Combined / sign-restricted statistics in species-estimator form.
  SwitchStatistics Statistics() const;
  SwitchStatistics PositiveStatistics() const;
  SwitchStatistics NegativeStatistics() const;

  /// D_hat_switch (Eq. 8): estimated total switches as K -> infinity.
  double EstimateTotalSwitches() const;

  /// xi = D_hat_switch - switch(I): expected remaining switches. >= 0.
  double EstimateRemainingSwitches() const;
  /// xi+ / xi- — remaining switches by sign (Section 4.3).
  double EstimateRemainingPositive() const;
  double EstimateRemainingNegative() const;

  const Config& config() const { return config_; }

 private:
  struct ItemState {
    bool consensus_dirty = false;   // tracked label, default clean
    bool live_positive = false;     // sign of the live (latest) switch
    /// Frequency of the live switch: 0 until the item's first switch, at
    /// least 1 from then on.
    uint32_t live_freq = 0;
  };
  static_assert(sizeof(ItemState) == 8, "switch state only, no tallies");

  /// Applies the tie policy: did this vote, which brought the item's
  /// tallies to `dirty_votes` and `clean_votes`, create a new switch?
  bool DetectSwitch(const ItemState& state, uint32_t dirty_votes,
                    uint32_t clean_votes) const;

  void StartSwitch(ItemState& state, bool positive);
  void Rediscover(ItemState& state);

  SwitchStatistics BuildStats(const FStatistics& f,
                              uint64_t observed_switches) const;

  Config config_;
  const crowd::ResponseLog* log_;
  /// Votes observed so far; the log must hold exactly these.
  uint64_t observed_votes_ = 0;
  std::vector<ItemState> items_;
  FStatistics positive_f_;
  FStatistics negative_f_;
  uint64_t positive_switches_ = 0;
  uint64_t negative_switches_ = 0;
  uint64_t items_with_switches_ = 0;
};

/// Ground-truth switches needed: compares the strict-majority labels implied
/// by per-item tallies against the true labels. `positive`/`total` are a
/// ResponseLog's tally columns; `truth[i]` is the hidden label.
SwitchesNeeded ComputeSwitchesNeeded(std::span<const uint32_t> positive,
                                     std::span<const uint32_t> total,
                                     const std::vector<bool>& truth);

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_SWITCH_TRACKER_H_
