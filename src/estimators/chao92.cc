#include "estimators/chao92.h"

#include <memory>

#include "common/logging.h"
#include "estimators/registry.h"

namespace dqm::estimators {

double Chao92Score(const VoteStatsView& view, bool skew_correction) {
  const FStatistics& f = *view.positive_f;
  return Chao92Point(f.NumSpecies(), f.singletons(), f.TotalObservations(),
                     f.SumIiMinus1(), skew_correction);
}

double Chao1Score(const VoteStatsView& view) {
  const FStatistics& f = *view.positive_f;
  double c = static_cast<double>(f.NumSpecies());
  double f1 = static_cast<double>(f.singletons());
  double f2 = static_cast<double>(f.f(2));
  return c + f1 * (f1 - 1.0) / (2.0 * (f2 + 1.0));
}

double Jackknife1Score(const VoteStatsView& view) {
  const FStatistics& f = *view.positive_f;
  uint64_t n = f.TotalObservations();
  if (n == 0) return 0.0;
  double nd = static_cast<double>(n);
  return static_cast<double>(f.NumSpecies()) +
         static_cast<double>(f.singletons()) * (nd - 1.0) / nd;
}

double VChao92Score(const VoteStatsView& view, uint32_t shift,
                    bool skew_correction) {
  FStatistics::ShiftedView shifted =
      view.positive_f->Shifted(shift, view.log->total_positive_votes());
  // c_majority replaces c_nominal (Eq. 6); the f-statistics and the skew
  // term come from the shifted fingerprint.
  uint64_t c = view.log->MajorityCount();
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
      .wants_positive_fingerprint = true,
      .traits = kFingerprintTraits,
      .factory = ParameterlessScorer("CHAO92", [](const VoteStatsView& view) {
        return Chao92Score(view, /*skew_correction=*/true);
      })}));
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "good-turing",
      .display_name = "GOOD-TURING",
      .help = "Chao92 without the skew correction (Eq. 3); no params",
      .wants_positive_fingerprint = true,
      .traits = kFingerprintTraits,
      .factory =
          ParameterlessScorer("GOOD-TURING", [](const VoteStatsView& view) {
            return Chao92Score(view, /*skew_correction=*/false);
          })}));
  check(registry.RegisterAlias("goodturing", "good-turing"));
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "vchao92",
      .display_name = "V-CHAO",
      .help = "voting-based shifted Chao92; params: shift=<uint> (default 1), "
              "skew=<bool> (default 1)",
      .wants_positive_fingerprint = true,
      .traits = kFingerprintTraits,
      .factory = [](const VoteStatsView& view, const EstimatorSpec& spec)
          -> Result<std::unique_ptr<TotalErrorEstimator>> {
        SpecParamReader params(spec);
        DQM_ASSIGN_OR_RETURN(uint32_t shift, params.GetUint32("shift", 1));
        DQM_ASSIGN_OR_RETURN(bool skew, params.GetBool("skew", true));
        DQM_RETURN_NOT_OK(params.VerifyAllConsumed());
        return std::unique_ptr<TotalErrorEstimator>(
            std::make_unique<VoteStatsScorer>(
                "V-CHAO", view, [shift, skew](const VoteStatsView& v) {
                  return VChao92Score(v, shift, skew);
                }));
      }}));
  check(registry.RegisterAlias("v-chao", "vchao92"));
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "chao1",
      .display_name = "CHAO1",
      .help = "Chao1 abundance lower bound; no params",
      .wants_positive_fingerprint = true,
      .traits = kFingerprintTraits,
      .factory = ParameterlessScorer("CHAO1", Chao1Score)}));
  check(registry.Register(EstimatorRegistry::Entry{
      .name = "jackknife1",
      .display_name = "JACKKNIFE1",
      .help = "first-order jackknife species estimate; no params",
      .wants_positive_fingerprint = true,
      .traits = kFingerprintTraits,
      .factory = ParameterlessScorer("JACKKNIFE1", Jackknife1Score)}));
  check(registry.RegisterAlias("jackknife", "jackknife1"));
}

}  // namespace dqm::estimators
