#ifndef DQM_CROWD_DAWID_SKENE_H_
#define DQM_CROWD_DAWID_SKENE_H_

#include <cstdint>
#include <vector>

#include "crowd/response_log.h"

namespace dqm::crowd {

/// Dawid–Skene-style EM label aggregation for binary cleaning votes.
///
/// The paper's related work (Section 7, "Label Estimation In
/// Crowdsourcing") points to EM and spectral techniques [21, 36] as the
/// standard way to aggregate noisy votes into labels. This implementation
/// estimates, per worker, a sensitivity (P(vote dirty | item dirty)) and a
/// specificity (P(vote clean | item clean)) together with the dirty-class
/// prior, then produces per-item posterior probabilities.
///
/// EM consumes the *response matrix* (per-(worker, item) vote counts), not
/// the arrival history: every sweep touches each distinct pair exactly once,
/// so a fit over a log with a million votes piled onto a few thousand pairs
/// costs a few thousand pair visits per sweep. It reads the matrix the log
/// maintains, so the log must retain RetentionPolicy::kCounts (any other
/// log aborts); to fit a kFullEvents log, copy its events into a kCounts
/// log first.
///
/// It addresses a *different* problem than the DQM estimators: EM recovers
/// the best labels for items that have votes, while DQM predicts how many
/// errors remain undiscovered. The extension bench shows the two compose:
/// EM sharpens the descriptive count, SWITCH adds the forward-looking tail.
class DawidSkene {
 public:
  struct Options {
    size_t max_iterations = 50;
    /// Sweep cap for warm-started FitIncremental calls: a batch of new
    /// votes moves the posterior fixpoint only slightly, so a small constant
    /// bound keeps per-batch cost O(#pairs), independent of how many
    /// batches came before. Convergence (`tolerance`) usually stops the
    /// sweep loop after 1-3 sweeps anyway.
    size_t max_incremental_sweeps = 8;
    /// Stop when no posterior moves more than this between iterations.
    double tolerance = 1e-6;
    /// Symmetric Beta(s, s) smoothing on worker rates and the prior; keeps
    /// workers with few votes from collapsing to 0/1 rates.
    double smoothing = 1.0;
  };

  struct Result {
    /// P(item is dirty | votes) per item; items without votes carry the
    /// estimated prior.
    std::vector<double> posterior_dirty;
    /// Estimated per-worker sensitivity / specificity.
    std::vector<double> sensitivity;
    std::vector<double> specificity;
    /// Estimated P(dirty).
    double prior_dirty = 0.0;
    /// Sweeps used by the most recent fit call that produced this state.
    size_t iterations = 0;
    bool converged = false;
  };

  /// Reusable per-fit scratch: per-worker accumulators, per-item log-odds
  /// and per-pair terms. Keeping one Workspace alive across fits makes the
  /// steady-state fit loop allocation-free.
  struct Workspace {
    std::vector<double> dirty_agree;
    std::vector<double> dirty_total;
    std::vector<double> clean_agree;
    std::vector<double> clean_total;
    std::vector<double> log_dirty;
    std::vector<double> log_clean;
    // Per-worker log-rate tables, refreshed once per E step: the pair sweep
    // then runs on multiply-adds alone (4 log() calls per *worker* per
    // sweep instead of 4 per *pair*).
    std::vector<double> log_sens;
    std::vector<double> log_one_minus_sens;
    std::vector<double> log_spec;
    std::vector<double> log_one_minus_spec;
    // The count-matrix blocks the sweeps iterate: the log's own store (one
    // block; one per stripe on concurrently ingested logs).
    std::vector<const CompactedVoteStore*> blocks;
    // Per-pair contribution columns: each sweep is split into a gather +
    // multiply-add pass writing these flat SoA columns (a loop shape the
    // autovectorizer can handle) followed by a scalar scatter-accumulate —
    // the indexed-accumulation half no SIMD ISA can do for us.
    std::vector<double> pair_dirty_term;
    std::vector<double> pair_clean_term;
    std::vector<double> pair_posterior;
  };

  explicit DawidSkene(const Options& options);
  DawidSkene() : DawidSkene(Options()) {}

  /// Runs EM from scratch over the votes in `log`. Initialization is
  /// majority voting.
  Result Fit(const ResponseLog& log) const;

  /// Warm-start EM: refines `state` in place against the log's current
  /// counts, running at most Options::max_incremental_sweeps sweeps. When
  /// `state` does not match the log (fresh object, or a different item
  /// universe) the fit cold-starts exactly like Fit(). Newly seen workers
  /// enter at the same neutral rates cold initialization uses. Returns the
  /// number of sweeps performed.
  ///
  /// Warm-started results track the cold-fit fixpoint numerically, not
  /// bit-for-bit — consumers declare the agreement tolerance (see
  /// estimators::ConformanceTraits::estimate_tolerance_abs).
  size_t FitIncremental(const ResponseLog& log, Result& state,
                        Workspace& workspace) const;

  /// Number of items whose posterior exceeds 0.5 — the EM analogue of the
  /// VOTING count.
  static size_t DirtyCount(const Result& result);

 private:
  void ColdStart(const ResponseLog& log, Result& result) const;
  /// Shared EM loop. `refresh_posteriors` (warm starts) re-derives the
  /// posteriors from the current counts and the carried worker rates before
  /// the first M step, so stale posteriors cannot pin the fit to an
  /// outdated basin.
  size_t RunSweeps(const ResponseLog& log, Result& result,
                   Workspace& workspace, size_t max_sweeps,
                   bool refresh_posteriors) const;

  Options options_;
};

}  // namespace dqm::crowd

#endif  // DQM_CROWD_DAWID_SKENE_H_
