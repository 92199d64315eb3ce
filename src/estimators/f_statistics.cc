#include "estimators/f_statistics.h"

#include <algorithm>

namespace dqm::estimators {

void FStatistics::RebuildFromCounts(std::span<const uint32_t> species_counts) {
  std::fill(f_.begin(), f_.end(), 0);
  num_species_ = 0;
  total_observations_ = 0;
  for (uint32_t count : species_counts) {
    if (count == 0) continue;
    if (static_cast<size_t>(count) + 2 > f_.size()) f_.resize(count + 2, 0);
    ++f_[count];
    ++num_species_;
    total_observations_ += count;
  }
}

uint64_t SumIiMinus1(std::span<const uint64_t> f) {
  uint64_t sum = 0;
  for (uint32_t freq = 2; freq < f.size(); ++freq) {
    sum += static_cast<uint64_t>(freq) * (freq - 1) * f[freq];
  }
  return sum;
}

ShiftedView Shifted(std::span<const uint64_t> f, uint32_t s, uint64_t n) {
  ShiftedView view;
  uint64_t dropped = 0;
  for (uint32_t freq = 1; freq < f.size(); ++freq) {
    uint64_t count = f[freq];
    if (count == 0) continue;
    if (freq <= s) {
      dropped += count;
      continue;
    }
    uint32_t shifted = freq - s;
    if (shifted == 1) view.f1 += count;
    view.c += count;
    view.sum_ii1 += static_cast<uint64_t>(shifted) * (shifted - 1) * count;
  }
  view.n = (n >= dropped) ? n - dropped : 0;
  return view;
}

std::vector<std::pair<uint32_t, uint64_t>> FStatistics::histogram() const {
  std::vector<std::pair<uint32_t, uint64_t>> classes;
  for (uint32_t freq = 1; freq < f_.size(); ++freq) {
    if (f_[freq] > 0) classes.emplace_back(freq, f_[freq]);
  }
  return classes;
}

double Chao92Point(uint64_t c, uint64_t f1, uint64_t n, uint64_t sum_ii1,
                   bool skew_correction) {
  if (c == 0) return 0.0;
  if (n == 0 || f1 >= n) {
    // No coverage evidence (all observations are singletons, or nothing
    // observed): the coverage estimate degenerates; report what was seen.
    return static_cast<double>(c);
  }
  double nd = static_cast<double>(n);
  double coverage = 1.0 - static_cast<double>(f1) / nd;
  double d_noskew = static_cast<double>(c) / coverage;
  if (!skew_correction) return d_noskew;
  double gamma2 = 0.0;
  if (n > 1) {
    gamma2 = d_noskew * static_cast<double>(sum_ii1) / (nd * (nd - 1.0)) - 1.0;
    gamma2 = std::max(gamma2, 0.0);
  }
  return d_noskew + static_cast<double>(f1) * gamma2 / coverage;
}

}  // namespace dqm::estimators
