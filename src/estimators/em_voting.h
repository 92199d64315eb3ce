#ifndef DQM_ESTIMATORS_EM_VOTING_H_
#define DQM_ESTIMATORS_EM_VOTING_H_

#include "crowd/dawid_skene.h"
#include "crowd/response_log.h"
#include "estimators/estimator.h"

namespace dqm::estimators {

/// EM-VOTING: the Dawid–Skene posterior dirty count as a (descriptive)
/// total-error estimator — the strongest label-aggregation baseline from
/// the paper's related work. Like VOTING it is not forward-looking: it can
/// only count errors that already have votes, so it lower-bounds the truth
/// under sparse coverage; unlike VOTING it downweights unreliable workers.
///
/// The fit is lazy (refreshed on Estimate() when votes arrived since) and,
/// by default, *warm-started*: each refit continues EM from the previous
/// posterior/confusion state, so a batch of new votes converges in a small
/// constant number of sweeps instead of Options::max_iterations from cold.
/// Warm-started estimates track the cold fit numerically, not bit-for-bit;
/// the registry entry declares the agreement tolerance
/// (ConformanceTraits::estimate_tolerance_abs/_rel). Construct with
/// `warm_start = false` (spec: "em-voting?warm=0") for the historical
/// cold-refit-per-estimate behavior.
///
/// The fit reads the response matrix of the pipeline's log (`log`, which
/// must outlive the estimator) and keeps no copy of the votes: only the warm
/// state and the fit scratch are its own.
class EmVotingEstimator : public TotalErrorEstimator {
 public:
  EmVotingEstimator(const crowd::ResponseLog& log,
                    const crowd::DawidSkene::Options& options,
                    bool warm_start = true);

  void Observe(const crowd::VoteEvent&) override {}
  bool needs_observe() const override { return false; }
  double Estimate() const override;
  std::string_view name() const override { return "EM-VOTING"; }

  /// Full EM result at the current log state (re-fit if stale).
  const crowd::DawidSkene::Result& FitResult() const;

  /// Sweeps used by the most recent refit — the warm-start regression tests
  /// assert this stays bounded by a constant as history grows.
  size_t last_fit_sweeps() const { return last_fit_sweeps_; }

 private:
  crowd::DawidSkene em_;
  const crowd::ResponseLog* log_;
  bool warm_start_;
  // Warm-start state + reusable scratch: refreshed when the vote count
  // changes.
  mutable crowd::DawidSkene::Result state_;
  mutable crowd::DawidSkene::Workspace workspace_;
  mutable size_t cached_at_votes_ = SIZE_MAX;
  mutable size_t last_fit_sweeps_ = 0;
};

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_EM_VOTING_H_
