#include "estimators/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dqm.h"
#include "estimators/chao92.h"

namespace dqm::estimators {
namespace {

TEST(ParseEstimatorSpecTest, NameOnly) {
  Result<EstimatorSpec> spec = ParseEstimatorSpec("switch");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "switch");
  EXPECT_TRUE(spec->params.empty());
  EXPECT_EQ(spec->ToString(), "switch");
}

TEST(ParseEstimatorSpecTest, ParamsAndCaseFolding) {
  Result<EstimatorSpec> spec =
      ParseEstimatorSpec("  VChao92?Shift=2&SKEW=true ");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "vchao92");
  ASSERT_EQ(spec->params.size(), 2u);
  EXPECT_EQ(spec->params[0].first, "shift");
  EXPECT_EQ(spec->params[0].second, "2");
  EXPECT_EQ(spec->params[1].first, "skew");
  // Values keep their spelling (only keys/names fold).
  EXPECT_EQ(spec->params[1].second, "true");
  EXPECT_EQ(spec->ToString(), "vchao92?shift=2&skew=true");
}

TEST(ParseEstimatorSpecTest, Rejections) {
  EXPECT_EQ(ParseEstimatorSpec("").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseEstimatorSpec("?shift=2").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseEstimatorSpec("switch?tau").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseEstimatorSpec("switch?=5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseEstimatorSpec("switch?tau=5&tau=9").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SplitSpecListTest, SplitsAndTrims) {
  EXPECT_EQ(SplitSpecList("switch, vchao92?shift=2 ,,voting"),
            (std::vector<std::string>{"switch", "vchao92?shift=2", "voting"}));
  EXPECT_TRUE(SplitSpecList(" , ").empty());
}

/// Status of building `spec` as a one-row panel — the factory path every
/// API (engine sessions, the CLI, ExperimentRunner) goes through.
StatusCode CreateCode(const std::string& spec) {
  return core::DataQualityMetric::Create(10, {spec}).status().code();
}

TEST(EstimatorRegistryTest, RoundTripsEveryBuiltinName) {
  // spec string -> factory -> estimator -> display name, for every
  // registered estimator.
  const std::map<std::string, std::string> expected_display = {
      {"switch", "SWITCH"},         {"chao92", "CHAO92"},
      {"good-turing", "GOOD-TURING"}, {"vchao92", "V-CHAO"},
      {"voting", "VOTING"},         {"nominal", "NOMINAL"},
      {"chao1", "CHAO1"},           {"jackknife1", "JACKKNIFE1"},
      {"em-voting", "EM-VOTING"},
  };
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  std::vector<std::string> names = registry.Names();
  EXPECT_EQ(names.size(), expected_display.size());
  for (const std::string& name : names) {
    ASSERT_TRUE(expected_display.contains(name)) << name;
    Result<core::DataQualityMetric> metric =
        core::DataQualityMetric::Create(20, {name});
    ASSERT_TRUE(metric.ok()) << metric.status().ToString();
    EXPECT_EQ(metric->method_name(), expected_display.at(name)) << name;
    // The entry's display name is the estimator's.
    EXPECT_EQ((*registry.Find(name))->display_name, expected_display.at(name));
  }
}

TEST(EstimatorRegistryTest, OnlySwitchObservesTheStream) {
  // Every other built-in is a function of the pipeline's vote statistics,
  // which is what lets their panels ingest concurrently.
  for (const std::string& name : EstimatorRegistry::Global().Names()) {
    core::DataQualityMetric metric =
        core::DataQualityMetric::Create(20, {name}).value();
    EXPECT_EQ(metric.SupportsConcurrentIngest(), name != "switch") << name;
  }
}

TEST(EstimatorRegistryTest, AliasesResolveToCanonicalEntries) {
  EstimatorRegistry& registry = EstimatorRegistry::Global();
  EXPECT_TRUE(registry.Contains("goodturing"));
  EXPECT_TRUE(registry.Contains("v-chao"));
  EXPECT_TRUE(registry.Contains("jackknife"));
  EXPECT_EQ(core::DataQualityMetric::Create(10, {"goodturing"})->method_name(),
            "GOOD-TURING");
  // Aliases are reachable but not listed twice.
  std::vector<std::string> names = registry.Names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "goodturing"), 0);
}

TEST(EstimatorRegistryTest, UnknownNameIsNotFound) {
  Result<std::shared_ptr<const EstimatorRegistry::Entry>> entry =
      EstimatorRegistry::Global().Find("chao93");
  EXPECT_EQ(entry.status().code(), StatusCode::kNotFound);
  // The message lists what *is* registered, for discoverability.
  EXPECT_NE(entry.status().message().find("switch"), std::string::npos);
  EXPECT_EQ(CreateCode("chao93"), StatusCode::kNotFound);
}

TEST(EstimatorRegistryTest, UnknownAndMalformedParamsAreInvalidArgument) {
  for (const char* spec : {
           "switch?winow=9",
           "voting?shift=1",
           "vchao92?shift=-1",
           "vchao92?shift=two",
           "switch?two_sided=perhaps",
           "switch?tie_policy=bogus",
           // tau is an alias of trend_window; setting both is ambiguous.
           "switch?tau=5&trend_window=9",
           // The DawidSkene constructor would abort on these: the factory
           // rejects them first.
           "em-voting?smoothing=0",
           "em-voting?smoothing=-1",
           "em-voting?smoothing=nan",
           "em-voting?max_iters=0",
           // strtod parses these, but a double param must be finite.
           "switch?flip_abs=nan",
           "switch?flip_rel=inf",
           "em-voting?tolerance=-inf",
       }) {
    EXPECT_EQ(CreateCode(spec), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_EQ(CreateCode("switch?tau=5"), StatusCode::kOk);
  EXPECT_EQ(CreateCode("em-voting?smoothing=0.5"), StatusCode::kOk);
}

TEST(EstimatorRegistryTest, SpecParamsConfigureTheEstimator) {
  // vchao92?shift=2 must score VChao92Score(log, 2, skew=true) over the
  // pipeline's log.
  core::DataQualityMetric by_spec =
      core::DataQualityMetric::Create(50, {"vchao92?shift=2"}).value();
  for (uint32_t task = 0; task < 30; ++task) {
    for (uint32_t i = 0; i < 5; ++i) {
      by_spec.AddVote(task, task, (task * 3 + i) % 50, i % 3 == 0);
    }
  }
  EXPECT_EQ(by_spec.EstimatedTotalErrors(),
            VChao92Score(by_spec.log(), 2, true));
}

/// A user-provided estimator: the registry is open, not a baked-in list.
class ConstantEstimator : public TotalErrorEstimator {
 public:
  explicit ConstantEstimator(double value) : value_(value) {}
  void Observe(const crowd::VoteEvent&) override {}
  double Estimate() const override { return value_; }
  std::string_view name() const override { return "CONSTANT"; }

 private:
  double value_;
};

TEST(EstimatorRegistryTest, OpenForUserEstimators) {
  EstimatorRegistry registry;
  Status status = registry.Register(EstimatorRegistry::Entry{
      .name = "constant",
      .display_name = "CONSTANT",
      .help = "fixed answer; params: value=<float>",
      .factory = [](const crowd::ResponseLog&, const EstimatorSpec& spec)
          -> Result<std::unique_ptr<TotalErrorEstimator>> {
        SpecParamReader params(spec);
        DQM_ASSIGN_OR_RETURN(double value, params.GetDouble("value", 0.0));
        DQM_RETURN_NOT_OK(params.VerifyAllConsumed());
        return std::unique_ptr<TotalErrorEstimator>(
            std::make_unique<ConstantEstimator>(value));
      }});
  ASSERT_TRUE(status.ok()) << status.ToString();

  crowd::ResponseLog log(10);
  EXPECT_EQ(
      (*registry.Create(ParseEstimatorSpec("constant?value=42").value(), log))
          ->Estimate(),
      42.0);
  // Duplicate registrations and aliases to nowhere are rejected.
  EXPECT_EQ(registry
                .Register(EstimatorRegistry::Entry{
                    .name = "constant",
                    .factory = [](const crowd::ResponseLog&,
                                  const EstimatorSpec&)
                        -> Result<std::unique_ptr<TotalErrorEstimator>> {
                      return Status::Internal("unreachable");
                    }})
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.RegisterAlias("c", "missing").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Register(EstimatorRegistry::Entry{}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dqm::estimators
