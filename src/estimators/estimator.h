#ifndef DQM_ESTIMATORS_ESTIMATOR_H_
#define DQM_ESTIMATORS_ESTIMATOR_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "crowd/response_log.h"
#include "crowd/vote.h"

namespace dqm::estimators {

/// Interface of every total-error estimator: answer "how many dirty items
/// does the dataset contain" at any moment (the paper's Problem 1).
/// Estimators are built by the registry against a pipeline's response log
/// (see core::DataQualityMetric), which owns the vote stream and the vote
/// statistics.
class TotalErrorEstimator {
 public:
  virtual ~TotalErrorEstimator() = default;

  /// Consumes the next vote, in the order the ResponseLog receives them.
  /// Ordering contract: when Observe(event) runs, the log holds exactly the
  /// votes observed before `event` — the pipeline fans a vote out first and
  /// appends it after, so the log's statistics are the state just before
  /// this vote.
  virtual void Observe(const crowd::VoteEvent& event) = 0;

  /// Current point estimate of |R_dirty|.
  virtual double Estimate() const = 0;

  /// Short display name used in reports ("CHAO92", "SWITCH", ...).
  virtual std::string_view name() const = 0;

  /// False for estimators whose whole state lives in the pipeline's log
  /// (every built-in but SWITCH): the pipeline skips the per-event Observe()
  /// fan-out for them, and only panels without an observing estimator can
  /// ingest concurrently.
  virtual bool needs_observe() const { return true; }
};

/// A stateless estimator: a display name plus a pure function of the
/// pipeline's vote statistics — the paper's counts c and n and the
/// positive-vote fingerprint f_j, all kept by the log (which must outlive
/// the scorer). Every tally and fingerprint estimator of the paper (Chao92,
/// Good-Turing, vChao92, VOTING, NOMINAL, ...) is one of these; only
/// estimators that need the vote *sequence* (SWITCH) or carry fit state
/// across estimates (EM-VOTING) are classes of their own.
class VoteStatsScorer final : public TotalErrorEstimator {
 public:
  using ScoreFn = std::function<double(const crowd::ResponseLog&)>;

  VoteStatsScorer(std::string name, const crowd::ResponseLog& log,
                  ScoreFn score)
      : name_(std::move(name)), log_(&log), score_(std::move(score)) {}

  void Observe(const crowd::VoteEvent&) override {}
  bool needs_observe() const override { return false; }
  double Estimate() const override { return score_(*log_); }
  std::string_view name() const override { return name_; }

 private:
  std::string name_;
  const crowd::ResponseLog* log_;
  ScoreFn score_;
};

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_ESTIMATOR_H_
