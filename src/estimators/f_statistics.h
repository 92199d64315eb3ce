#ifndef DQM_ESTIMATORS_F_STATISTICS_H_
#define DQM_ESTIMATORS_F_STATISTICS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace dqm::estimators {

/// f_j of a fingerprint indexed by frequency (entry j = f_j); 0 past its
/// end.
inline uint64_t FingerprintAt(std::span<const uint64_t> f, size_t j) {
  return j < f.size() ? f[j] : 0;
}

/// sum_j j*(j-1) * f_j — the raw moment in the Chao92 skew term (Eq. 5).
uint64_t SumIiMinus1(std::span<const uint64_t> f);

/// Shifted view of Section 3.3 (vChao92): treats f_{j+s} as f_j.
struct ShiftedView {
  uint64_t f1 = 0;        // f_{1+s}
  uint64_t n = 0;         // n^{+,s} = n - sum_{i=1..s} f_i  (paper Eq. 6)
  uint64_t c = 0;         // species remaining after the shift
  uint64_t sum_ii1 = 0;   // sum_j j*(j-1) * f_{j+s}
};
/// Computes the shifted statistics of fingerprint `f` for shift `s` given
/// the unshifted observation total `n` (the caller chooses n = n^+ for
/// vChao92).
ShiftedView Shifted(std::span<const uint64_t> f, uint32_t s, uint64_t n);

/// The frequency-of-frequencies statistic ("data fingerprint") at the heart
/// of every species estimator in this library: `f(j)` is the number of
/// species observed exactly `j` times. For the error estimators a species is
/// an item marked dirty (Chao92/vChao92) or a consensus switch (SWITCH), and
/// the frequency is how often it was (re)discovered.
///
/// Stored as a flat vector indexed by frequency: `Promote` — the operation
/// every dirty vote performs — is two array increments, O(1) with no node
/// allocations (the vector only grows when a species reaches a frequency
/// never seen before, i.e. at most max-pile-depth times over a log's life).
/// Aggregate reads are O(max observed frequency), which is tiny in practice
/// (bounded by the deepest vote pile on one item).
class FStatistics {
 public:
  FStatistics() = default;

  /// Records a species observed for the first time (enters class f_1).
  void AddSingleton() {
    if (f_.size() < 2) f_.resize(2, 0);
    ++f_[1];
    ++num_species_;
    ++total_observations_;
  }

  /// Moves one species from frequency `from` to frequency `from + 1`.
  /// Requires that f(from) > 0.
  void Promote(uint32_t from) {
    DQM_CHECK_GE(from, 1u);
    DQM_CHECK(from < f_.size() && f_[from] > 0)
        << "no species at frequency " << from;
    --f_[from];
    if (from + 2 > f_.size()) f_.resize(from + 2, 0);
    ++f_[from + 1];
    ++total_observations_;
  }

  /// Removes one species of frequency `freq` entirely (used by estimator
  /// variants that forget species). Requires f(freq) > 0.
  void Remove(uint32_t freq) {
    DQM_CHECK(freq >= 1 && freq < f_.size() && f_[freq] > 0)
        << "no species at frequency " << freq;
    --f_[freq];
    --num_species_;
    total_observations_ -= freq;
  }

  /// Rebuilds the whole fingerprint from a per-species observation-count
  /// column: f_j = #entries equal to j (entries of 0 are unobserved species
  /// and contribute nothing). Bit-identical to feeding the counts in one
  /// vote at a time through AddSingleton/Promote, but O(column length) per
  /// call — the debug reference the response log's commit-time fingerprint
  /// is checked against.
  void RebuildFromCounts(std::span<const uint32_t> species_counts);

  /// f_j — number of species with exactly `j` observations (j >= 1).
  uint64_t f(uint32_t j) const { return FingerprintAt(f_, j); }

  /// f_1, the singletons: the paper's key quantity.
  uint64_t singletons() const { return f(1); }

  /// c — number of distinct observed species: sum_j f_j.
  uint64_t NumSpecies() const { return num_species_; }

  /// sum_j j * f_j — total observations attached to species.
  uint64_t TotalObservations() const { return total_observations_; }

  /// The fingerprint indexed by frequency (entry j = f_j, entry 0 unused) —
  /// the input of SumIiMinus1 / Shifted.
  std::span<const uint64_t> fingerprint() const { return f_; }

  /// The non-empty (frequency, count) classes in increasing frequency order.
  /// Built on demand — a debug/test accessor, not a hot-path one.
  std::vector<std::pair<uint32_t, uint64_t>> histogram() const;

 private:
  /// f_[j] = number of species at frequency j; index 0 unused. Never
  /// shrinks; size is bounded by the deepest vote pile plus one.
  std::vector<uint64_t> f_;
  uint64_t num_species_ = 0;
  uint64_t total_observations_ = 0;
};

/// The Chao92 point estimate (Eqs. 1-5 of the paper) from raw ingredients:
///   C_hat = 1 - f1/n            (Good-Turing sample coverage)
///   gamma2 = max((c/C_hat) * sum_ii1 / (n(n-1)) - 1, 0)
///   D_hat = c/C_hat + f1*gamma2/C_hat
/// Degenerate inputs (n == 0, or f1 == n giving C_hat == 0) fall back to
/// returning `c` — the best defensible answer with zero coverage evidence,
/// and what keeps early-task series plottable like the paper's figures.
/// `skew_correction` toggles the gamma^2 term (off = the D_noskew /
/// Good-Turing form of Eq. 3).
double Chao92Point(uint64_t c, uint64_t f1, uint64_t n, uint64_t sum_ii1,
                   bool skew_correction);

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_F_STATISTICS_H_
