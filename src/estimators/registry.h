#ifndef DQM_ESTIMATORS_REGISTRY_H_
#define DQM_ESTIMATORS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "estimators/estimator.h"

namespace dqm::estimators {

/// A parsed estimator spec string. Grammar:
///
///   spec   := name [ '?' param ( '&' param )* ]
///   param  := key '=' value
///
/// e.g. "switch", "vchao92?shift=2", "switch?tau=50&two_sided=1". Names and
/// keys are ASCII case-insensitive (folded to lower case); values are kept
/// verbatim. Specs are how estimators are selected and configured everywhere
/// a string is more convenient than a type: CLI flags, engine OpenSession
/// calls, bench configs, saved experiment manifests.
struct EstimatorSpec {
  std::string name;
  /// Key/value pairs in the order written. Duplicate keys are rejected at
  /// parse time.
  std::vector<std::pair<std::string, std::string>> params;

  /// Canonical round-trip form: "name" or "name?k=v&k=v".
  std::string ToString() const;
};

/// Parses a spec string. InvalidArgument on empty name, malformed params
/// (missing '=', empty key) or duplicate keys. Unknown *names* are not
/// detected here — that is the registry's job.
Result<EstimatorSpec> ParseEstimatorSpec(std::string_view spec);

/// Splits a comma-separated spec list ("switch,vchao92?shift=2,voting") into
/// individual spec strings, trimming whitespace and dropping empty entries.
std::vector<std::string> SplitSpecList(std::string_view list);

/// Typed accessor over an EstimatorSpec's params for factories: reads each
/// key at most once and rejects keys nobody asked for, so a typo like
/// "switch?winow=9" fails loudly instead of being silently ignored.
class SpecParamReader {
 public:
  explicit SpecParamReader(const EstimatorSpec& spec);

  /// Each getter returns the parsed value, `fallback` when the key is
  /// absent, or InvalidArgument when the value does not parse (or violates
  /// the documented range).
  Result<uint32_t> GetUint32(std::string_view key, uint32_t fallback);
  /// Finite values only: "nan", "inf" and "-inf" are InvalidArgument.
  Result<double> GetDouble(std::string_view key, double fallback);
  /// Accepts 1/0/true/false/yes/no (case-insensitive).
  Result<bool> GetBool(std::string_view key, bool fallback);
  /// The raw value string (lower-cased), for enum-like params.
  Result<std::string> GetString(std::string_view key,
                                std::string_view fallback);

  /// True when the spec sets `key` (does not consume it) — for rejecting
  /// mutually exclusive aliases.
  bool Has(std::string_view key) const;

  /// InvalidArgument naming every param no getter consumed; call last.
  Status VerifyAllConsumed() const;

 private:
  const std::string* Consume(std::string_view key);

  const EstimatorSpec& spec_;
  std::vector<bool> consumed_;
};

/// Builds one estimator from a parsed spec, reading the pipeline's vote
/// statistics off `log` (which outlives the estimator). Factories must
/// reject unknown or out-of-range params with InvalidArgument (use
/// SpecParamReader) and never abort on bad input.
using SpecFactory = std::function<Result<std::unique_ptr<TotalErrorEstimator>>(
    const crowd::ResponseLog& log, const EstimatorSpec& spec)>;

/// Metamorphic guarantees an estimator declares about itself. The
/// conformance harness (tests/conformance/) runs every registered estimator
/// — built-in or user-supplied — against exactly the properties it claims,
/// under every registered workload family, so a new estimator or a new
/// workload is cross-verified by construction. All flags default to false:
/// an estimator that declares nothing only gets the universal checks
/// (finite, non-negative estimates; every row of an N-row panel equals the
/// same spec's one-row panel).
struct ConformanceTraits {
  /// Estimate() depends only on the per-item vote multisets: bit-identical
  /// under any task-order permutation of the log (core::PermuteTasks).
  bool permutation_invariant = false;
  /// Estimate() is unchanged when votes are reordered *within* a task
  /// (items are distinct within a task, so each item's vote order is
  /// preserved). Weaker than permutation_invariant; holds for SWITCH too.
  bool within_task_invariant = false;
  /// Estimate() is exactly unchanged when the entire log is ingested twice
  /// (fresh task/worker ids for the second copy). True for the descriptive
  /// counts, false for coverage-based estimators by design.
  bool duplication_invariant = false;
  /// Estimate() never decreases when one more dirty vote arrives.
  bool monotone_in_dirty_votes = false;
  /// Declared numerical agreement bound for estimators whose re-estimation
  /// path is warm-started rather than bit-stable (EM-VOTING): two estimates
  /// of the same log state reached through different estimate cadences are
  /// conforming when |a - b| <= estimate_tolerance_abs +
  /// estimate_tolerance_rel * max(|a|, |b|). Both zero (the default) means
  /// exact bit-identity is required, and the conformance / parity suites
  /// compare with EXPECT_EQ; non-zero switches those comparisons to the
  /// declared bound.
  double estimate_tolerance_abs = 0.0;
  double estimate_tolerance_rel = 0.0;
};

/// Open name -> factory registry: the one way estimators are selected and
/// built. Built-in estimators self-register from their
/// own .cc files (see the internal::RegisterBuiltin* hooks below — explicit
/// hook functions rather than static initializers, so registration survives
/// static-library linking and never races program start-up); library users
/// add their own estimators with Register() and select them by spec string
/// through every API that accepts one.
class EstimatorRegistry {
 public:
  struct Entry {
    /// Registry key, lower-case ("switch", "vchao92", ...).
    std::string name;
    /// Display name matching TotalErrorEstimator::name() ("SWITCH", ...).
    std::string display_name;
    /// One-line param documentation for --help style listings.
    std::string help;
    /// True when the estimator reads the per-(worker, item) response matrix
    /// off the shared log (EM-VOTING). The pipeline's log retains the matrix
    /// (RetentionPolicy::kCounts) iff some estimator of its panel sets this;
    /// every other panel runs on a kTallies log, whose commit is nothing but
    /// flat tally and fingerprint increments. The tallies, n^+ and the
    /// positive-vote fingerprint are kept by every log, so no flag selects
    /// them.
    bool wants_pair_counts = false;
    /// Declared metamorphic properties, checked by tests/conformance/.
    ConformanceTraits traits;
    SpecFactory factory;
  };

  EstimatorRegistry() = default;
  EstimatorRegistry(const EstimatorRegistry&) = delete;
  EstimatorRegistry& operator=(const EstimatorRegistry&) = delete;

  /// Registers an entry. AlreadyExists when the name (or an alias) is
  /// taken; InvalidArgument for an empty name or null factory.
  Status Register(Entry entry);

  /// Registers `alias` as an alternate spelling of `canonical`
  /// ("goodturing" -> "good-turing").
  Status RegisterAlias(std::string alias, std::string canonical);

  bool Contains(std::string_view name) const;

  /// Canonical (non-alias) names, sorted.
  std::vector<std::string> Names() const;

  /// The entry for `name` (alias-resolved); NotFound otherwise.
  Result<std::shared_ptr<const Entry>> Find(std::string_view name) const;

  /// Creates an estimator from a parsed spec against a pipeline's log.
  /// NotFound for unknown names, InvalidArgument for bad params.
  /// core::DataQualityMetric::Create is the way to build a whole panel.
  Result<std::unique_ptr<TotalErrorEstimator>> Create(
      const EstimatorSpec& spec, const crowd::ResponseLog& log) const;

  /// The process-wide registry with all built-in estimators registered.
  static EstimatorRegistry& Global();

 private:
  // Reader/writer split: registration happens once at start-up, but every
  // spec parse / session open / CLI listing goes through Find/Contains —
  // those take shared locks and never serialize against each other.
  mutable SharedMutex mutex_{LockRank::kEstimatorRegistry,
                             "estimator-registry"};
  // Alias and canonical names both map to the shared entry.
  std::unordered_map<std::string, std::shared_ptr<const Entry>> entries_
      DQM_GUARDED_BY(mutex_);
  std::vector<std::string> canonical_names_
      DQM_GUARDED_BY(mutex_);  // registration order
};

namespace internal {
/// Factory for a built-in scorer that takes no params: the estimator is
/// `score` over the pipeline's log, shown as `display_name`.
SpecFactory ParameterlessScorer(const char* display_name,
                                VoteStatsScorer::ScoreFn score);

/// Built-in registration hooks, defined in the estimator .cc files next to
/// the estimators they register; EstimatorRegistry::Global() invokes each
/// exactly once.
void RegisterBuiltinBaselines(EstimatorRegistry& registry);   // baselines.cc
void RegisterBuiltinChaoFamily(EstimatorRegistry& registry);  // chao92.cc
void RegisterBuiltinSwitch(EstimatorRegistry& registry);      // switch_total.cc
void RegisterBuiltinEmVoting(EstimatorRegistry& registry);    // em_voting.cc
}  // namespace internal

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_REGISTRY_H_
