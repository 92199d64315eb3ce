#ifndef DQM_ESTIMATORS_CHAO92_H_
#define DQM_ESTIMATORS_CHAO92_H_

#include <cstdint>

#include "estimators/estimator.h"
#include "estimators/f_statistics.h"

namespace dqm::estimators {

// The species family. Each estimator is a pure function of the counts and
// the positive-vote fingerprint the log keeps: a species is a record marked
// dirty, its frequency the number of dirty votes it has received, and
// n = n^+ (positive votes only; clean votes are no-ops under the
// no-false-positive model).

/// Chao92 applied to error estimation (Section 3.2):
///
///   D_hat = c / C_hat + f1 * gamma^2 / C_hat,   C_hat = 1 - f1 / n^+
///
/// `skew_correction` off gives the D_noskew / Good-Turing form (Eq. 3).
/// As the paper shows, this estimator is accurate without false positives
/// and overestimates badly with them (the singleton-error entanglement).
double Chao92Score(const crowd::ResponseLog& log, bool skew_correction);

/// Chao1 species lower bound (bias-corrected form):
///   D = c + f1 * (f1 - 1) / (2 * (f2 + 1)).
/// The classic abundance-based estimator from the ecology literature; not
/// in the paper's evaluation but the natural extra baseline — it shares
/// Chao92's singleton sensitivity (and therefore its false-positive
/// fragility), which the robustness ablation quantifies.
double Chao1Score(const crowd::ResponseLog& log);

/// First-order jackknife species estimator, D_jk1 = c + f1 * (n-1)/n.
/// Not part of the paper's evaluation; included as an additional species
/// baseline for the robustness ablation (same f-statistics, different
/// functional form, same singleton sensitivity).
double Jackknife1Score(const crowd::ResponseLog& log);

/// vChao92 (Section 3.3): Chao92 made more robust to false positives by
/// (a) using c_majority instead of c_nominal and (b) shifting the
/// f-statistics by `shift` = s — f_{1+s} plays the role of f_1 and
/// n^{+,s} = n^+ - sum_{i<=s} f_i. Converges more slowly and requires
/// choosing `s`; may not converge to the ground truth at all (the
/// shortcomings that motivate SWITCH).
double VChao92Score(const crowd::ResponseLog& log, uint32_t shift,
                    bool skew_correction);

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_CHAO92_H_
