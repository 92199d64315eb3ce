#ifndef DQM_ESTIMATORS_ESTIMATOR_H_
#define DQM_ESTIMATORS_ESTIMATOR_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "crowd/response_log.h"
#include "crowd/vote.h"
#include "estimators/f_statistics.h"

namespace dqm::estimators {

/// Interface of every total-error estimator: answer "how many dirty items
/// does the dataset contain" at any moment (the paper's Problem 1).
/// Estimators are built by the registry against a pipeline's
/// VoteStatsView (see core::DataQualityMetric), which owns the vote stream.
class TotalErrorEstimator {
 public:
  virtual ~TotalErrorEstimator() = default;

  /// Consumes the next vote. Events must arrive in the same order the
  /// ResponseLog received them.
  virtual void Observe(const crowd::VoteEvent& event) = 0;

  /// Current point estimate of |R_dirty|.
  virtual double Estimate() const = 0;

  /// Short display name used in reports ("CHAO92", "SWITCH", ...).
  virtual std::string_view name() const = 0;

  /// False for estimators whose whole state lives in the pipeline's
  /// VoteStatsView (every built-in but SWITCH): the pipeline skips the
  /// per-event Observe() fan-out for them, and only panels without an
  /// observing estimator can ingest concurrently.
  virtual bool needs_observe() const { return true; }
};

/// The vote statistics a pipeline maintains once and every estimator reads:
/// the paper's counts c and n (per-item tallies on the log) and the
/// frequency-of-frequencies fingerprint f_j of dirty votes per item.
/// Pointees outlive every estimator built against the view.
struct VoteStatsView {
  /// The pipeline's response log: per-item tallies, NOMINAL / VOTING
  /// counts, n^+ and (for EM-VOTING) the response matrix. Always set.
  const crowd::ResponseLog* log = nullptr;
  /// Fingerprint of dirty votes per item. Maintained iff some attached
  /// estimator's registry entry sets wants_positive_fingerprint; null
  /// otherwise.
  const FStatistics* positive_f = nullptr;
};

/// A stateless estimator: a display name plus a pure function of the
/// pipeline's vote statistics. Every tally and fingerprint estimator of the
/// paper (Chao92, Good-Turing, vChao92, VOTING, NOMINAL, ...) is one of
/// these; only estimators that need the vote *sequence* (SWITCH) or carry
/// fit state across estimates (EM-VOTING) are classes of their own.
class VoteStatsScorer final : public TotalErrorEstimator {
 public:
  using ScoreFn = std::function<double(const VoteStatsView&)>;

  VoteStatsScorer(std::string name, const VoteStatsView& view, ScoreFn score)
      : name_(std::move(name)), view_(view), score_(std::move(score)) {}

  void Observe(const crowd::VoteEvent&) override {}
  bool needs_observe() const override { return false; }
  double Estimate() const override { return score_(view_); }
  std::string_view name() const override { return name_; }

 private:
  std::string name_;
  VoteStatsView view_;
  ScoreFn score_;
};

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_ESTIMATOR_H_
