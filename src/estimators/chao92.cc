#include "estimators/chao92.h"

#include <memory>
#include <span>

#include "common/logging.h"
#include "estimators/registry.h"

namespace dqm::estimators {

// c = NOMINAL (the items with a dirty vote), n = n^+ and f_j are read off
// the log; c and n are the same integers sum_j f_j and sum_j j * f_j.
double Chao92Score(const crowd::ResponseLog& log, bool skew_correction) {
  std::span<const uint64_t> f = log.positive_fingerprint();
  return Chao92Point(log.NominalCount(), FingerprintAt(f, 1),
                     log.total_positive_votes(), SumIiMinus1(f),
                     skew_correction);
}

double Chao1Score(const crowd::ResponseLog& log) {
  std::span<const uint64_t> f = log.positive_fingerprint();
  double c = static_cast<double>(log.NominalCount());
  double f1 = static_cast<double>(FingerprintAt(f, 1));
  double f2 = static_cast<double>(FingerprintAt(f, 2));
  return c + f1 * (f1 - 1.0) / (2.0 * (f2 + 1.0));
}

double Jackknife1Score(const crowd::ResponseLog& log) {
  uint64_t n = log.total_positive_votes();
  if (n == 0) return 0.0;
  double nd = static_cast<double>(n);
  return static_cast<double>(log.NominalCount()) +
         static_cast<double>(FingerprintAt(log.positive_fingerprint(), 1)) *
             (nd - 1.0) / nd;
}

double VChao92Score(const crowd::ResponseLog& log, uint32_t shift,
                    bool skew_correction) {
  ShiftedView shifted = Shifted(log.positive_fingerprint(), shift,
                                log.total_positive_votes());
  // c_majority replaces c_nominal (Eq. 6); the f-statistics and the skew
  // term come from the shifted fingerprint.
  uint64_t c = log.MajorityCount();
  if (c == 0) {
    // No majority-dirty records yet; fall back to the shifted species count
    // so the estimate is still defined in the earliest tasks.
    c = shifted.c;
  }
  return Chao92Point(c, shifted.f1, shifted.n, shifted.sum_ii1,
                     skew_correction);
}

void internal::RegisterBuiltinChaoFamily(EstimatorRegistry& registry) {
  // Every member of the species family scores a function of the per-item
  // dirty-vote counts: task-order permutations cannot change the estimate.
  // Duplicating the log *does* (coverage rises), so that flag stays off.
  constexpr ConformanceTraits kFingerprintTraits{
      .permutation_invariant = true,
      .within_task_invariant = true,
      .duplication_invariant = false,
      .monotone_in_dirty_votes = false,
  };
  auto check = [](Status status) { DQM_CHECK(status.ok()) << status.ToString(); };
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "chao92",
      .display_name = "CHAO92",
      .help = "Chao92 species estimate with skew correction; no params",
      .traits = kFingerprintTraits,
      .factory =
          ParameterlessScorer("CHAO92", [](const crowd::ResponseLog& log) {
            return Chao92Score(log, /*skew_correction=*/true);
          })}));
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "good-turing",
      .display_name = "GOOD-TURING",
      .help = "Chao92 without the skew correction (Eq. 3); no params",
      .traits = kFingerprintTraits,
      .factory =
          ParameterlessScorer("GOOD-TURING", [](const crowd::ResponseLog& log) {
            return Chao92Score(log, /*skew_correction=*/false);
          })}));
  check(registry.RegisterAlias("goodturing", "good-turing"));
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "vchao92",
      .display_name = "V-CHAO",
      .help = "voting-based shifted Chao92; params: shift=<uint> (default 1), "
              "skew=<bool> (default 1)",
      .traits = kFingerprintTraits,
      .factory = [](const crowd::ResponseLog& log, const EstimatorSpec& spec)
          -> Result<std::unique_ptr<TotalErrorEstimator>> {
        SpecParamReader params(spec);
        DQM_ASSIGN_OR_RETURN(uint32_t shift, params.GetUint32("shift", 1));
        DQM_ASSIGN_OR_RETURN(bool skew, params.GetBool("skew", true));
        DQM_RETURN_NOT_OK(params.VerifyAllConsumed());
        return std::unique_ptr<TotalErrorEstimator>(
            std::make_unique<VoteStatsScorer>(
                "V-CHAO", log, [shift, skew](const crowd::ResponseLog& l) {
                  return VChao92Score(l, shift, skew);
                }));
      }}));
  check(registry.RegisterAlias("v-chao", "vchao92"));
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "chao1",
      .display_name = "CHAO1",
      .help = "Chao1 abundance lower bound; no params",
      .traits = kFingerprintTraits,
      .factory = ParameterlessScorer("CHAO1", Chao1Score)}));
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "jackknife1",
      .display_name = "JACKKNIFE1",
      .help = "first-order jackknife species estimate; no params",
      .traits = kFingerprintTraits,
      .factory = ParameterlessScorer("JACKKNIFE1", Jackknife1Score)}));
  check(registry.RegisterAlias("jackknife", "jackknife1"));
}

}  // namespace dqm::estimators
