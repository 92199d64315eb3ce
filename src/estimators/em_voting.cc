#include "estimators/em_voting.h"

#include <memory>

#include "estimators/registry.h"

namespace dqm::estimators {

EmVotingEstimator::EmVotingEstimator(const crowd::ResponseLog& log,
                                     const crowd::DawidSkene::Options& options,
                                     bool warm_start)
    : em_(options), log_(&log), warm_start_(warm_start) {}

const crowd::DawidSkene::Result& EmVotingEstimator::FitResult() const {
  if (cached_at_votes_ != log_->num_events()) {
    if (!warm_start_) state_ = crowd::DawidSkene::Result();
    last_fit_sweeps_ = em_.FitIncremental(*log_, state_, workspace_);
    cached_at_votes_ = log_->num_events();
  }
  return state_;
}

double EmVotingEstimator::Estimate() const {
  return static_cast<double>(crowd::DawidSkene::DirtyCount(FitResult()));
}

void internal::RegisterBuiltinEmVoting(EstimatorRegistry& registry) {
  Status status = registry.Register(EstimatorRegistry::Entry{
      .name = "em-voting",
      .display_name = "EM-VOTING",
      .help = "Dawid-Skene posterior dirty count; params: max_iters=<uint>, "
              "tolerance=<float>, smoothing=<float>, warm=<bool> (default 1: "
              "warm-start refits across estimates), warm_sweeps=<uint>",
      .wants_pair_counts = true,
      // EM accumulates floating-point sums in pair order, so even reorders
      // that preserve the per-(worker, item) counts are not bit-stable: no
      // metamorphic invariances are declared and the conformance harness
      // only applies the universal checks. Warm-started refits additionally
      // track the cold fit only numerically — the declared tolerance below
      // is what the conformance/parity suites compare against wherever two
      // estimation paths re-fit at different cadences.
      .traits = ConformanceTraits{.estimate_tolerance_abs = 2.0,
                                  .estimate_tolerance_rel = 0.02},
      .factory = [](const crowd::ResponseLog& log, const EstimatorSpec& spec)
          -> Result<std::unique_ptr<TotalErrorEstimator>> {
        crowd::DawidSkene::Options options;
        SpecParamReader params(spec);
        DQM_ASSIGN_OR_RETURN(
            uint32_t max_iters,
            params.GetUint32("max_iters",
                             static_cast<uint32_t>(options.max_iterations)));
        options.max_iterations = max_iters;
        DQM_ASSIGN_OR_RETURN(
            uint32_t warm_sweeps,
            params.GetUint32(
                "warm_sweeps",
                static_cast<uint32_t>(options.max_incremental_sweeps)));
        options.max_incremental_sweeps = warm_sweeps;
        DQM_ASSIGN_OR_RETURN(options.tolerance,
                             params.GetDouble("tolerance", options.tolerance));
        DQM_ASSIGN_OR_RETURN(options.smoothing,
                             params.GetDouble("smoothing", options.smoothing));
        DQM_ASSIGN_OR_RETURN(bool warm, params.GetBool("warm", true));
        DQM_RETURN_NOT_OK(params.VerifyAllConsumed());
        if (options.max_iterations == 0 || options.max_incremental_sweeps == 0) {
          return Status::InvalidArgument(
              "em-voting: max_iters and warm_sweeps must be positive");
        }
        // The DawidSkene constructor aborts unless smoothing > 0.
        if (!(options.smoothing > 0.0)) {
          return Status::InvalidArgument(
              "em-voting: smoothing must be positive");
        }
        return std::unique_ptr<TotalErrorEstimator>(
            std::make_unique<EmVotingEstimator>(log, options, warm));
      }});
  DQM_CHECK(status.ok()) << status.ToString();
}

}  // namespace dqm::estimators
