// Fuzz-style round-trip coverage for the "name?k=v&k=v" spec grammar: a
// deterministic generator produces thousands of random valid specs (which
// must parse, canonicalize, and re-parse to the same EstimatorSpec) and random
// invalid mutations (which must come back as Result<> errors — never an
// abort). The grammar is shared by the estimator registry, the workload
// registry, the CLI and the bench configs, so this is the one place its
// contract is hammered.

#include "estimators/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"

namespace dqm::estimators {
namespace {

constexpr int kRounds = 4000;

/// Characters legal anywhere in a name or key (the grammar reserves
/// '?', '&', '=' and treats ',' as the list separator elsewhere).
constexpr char kIdentChars[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.";
/// Value characters: values keep their spelling, so give them a wider set.
constexpr char kValueChars[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.+:/";

std::string RandomToken(Rng& rng, const char* chars, size_t max_len) {
  size_t len = 1 + rng.UniformIndex(max_len);
  size_t num_chars = std::char_traits<char>::length(chars);
  std::string token;
  for (size_t i = 0; i < len; ++i) {
    token.push_back(chars[rng.UniformIndex(num_chars)]);
  }
  return token;
}

/// Random whitespace padding — the parser strips it around names, keys and
/// values.
std::string Pad(Rng& rng, const std::string& token) {
  auto ws = [&] { return std::string(rng.UniformIndex(3), ' '); };
  return ws() + token + ws();
}

struct RandomSpec {
  std::string text;                 // possibly padded spelling
  std::string canonical_name;       // lower-cased
  std::vector<std::pair<std::string, std::string>> canonical_params;
};

RandomSpec MakeValidSpec(Rng& rng) {
  RandomSpec spec;
  std::string name = RandomToken(rng, kIdentChars, 12);
  spec.canonical_name = ToLower(name);
  spec.text = Pad(rng, name);
  size_t num_params = rng.UniformIndex(5);
  for (size_t p = 0; p < num_params; ++p) {
    std::string key;
    // Rejection-sample a key distinct from the ones already emitted
    // (duplicate keys are a parse error by design).
    for (;;) {
      key = ToLower(RandomToken(rng, kIdentChars, 8));
      bool taken = false;
      for (const auto& [existing, unused] : spec.canonical_params) {
        if (existing == key) taken = true;
      }
      if (!taken) break;
    }
    std::string value = RandomToken(rng, kValueChars, 10);
    spec.canonical_params.emplace_back(key, value);
    spec.text.push_back(p == 0 ? '?' : '&');
    spec.text.append(Pad(rng, key));
    spec.text.push_back('=');
    spec.text.append(Pad(rng, value));
  }
  return spec;
}

TEST(SpecFuzzTest, ValidSpecsRoundTripThroughToString) {
  Rng rng(20260728);
  for (int round = 0; round < kRounds; ++round) {
    RandomSpec expected = MakeValidSpec(rng);
    Result<EstimatorSpec> parsed = ParseEstimatorSpec(expected.text);
    ASSERT_TRUE(parsed.ok())
        << "round " << round << ": '" << expected.text
        << "': " << parsed.status().ToString();
    EXPECT_EQ(parsed->name, expected.canonical_name) << expected.text;
    EXPECT_EQ(parsed->params, expected.canonical_params) << expected.text;

    // Canonical form re-parses to the identical EstimatorSpec.
    Result<EstimatorSpec> reparsed = ParseEstimatorSpec(parsed->ToString());
    ASSERT_TRUE(reparsed.ok()) << parsed->ToString();
    EXPECT_EQ(reparsed->name, parsed->name);
    EXPECT_EQ(reparsed->params, parsed->params);
    EXPECT_EQ(reparsed->ToString(), parsed->ToString());
  }
}

TEST(SpecFuzzTest, InvalidSpecsReturnErrorsNeverAbort) {
  Rng rng(424242);
  int exercised = 0;
  for (int round = 0; round < kRounds; ++round) {
    RandomSpec valid = MakeValidSpec(rng);
    std::string broken = valid.text;
    switch (rng.UniformIndex(5)) {
      case 0:  // no name at all
        broken.clear();
        if (rng.Bernoulli(0.5)) {
          broken = "   ?";
          broken.append(RandomToken(rng, kIdentChars, 6));
          broken += "=1";
        }
        break;
      case 1:  // param without '='
        broken.push_back(broken.find('?') == std::string::npos ? '?' : '&');
        broken.append(RandomToken(rng, kIdentChars, 8));
        break;
      case 2:  // empty key
        broken.push_back(broken.find('?') == std::string::npos ? '?' : '&');
        broken.push_back('=');
        broken.append(RandomToken(rng, kValueChars, 6));
        break;
      case 3: {  // duplicate key
        if (valid.canonical_params.empty()) continue;
        const auto& [key, value] = valid.canonical_params.front();
        broken += "&" + key + "=" + value;
        break;
      }
      case 4:  // whitespace-only
        broken = std::string(1 + rng.UniformIndex(4), ' ');
        break;
    }
    Result<EstimatorSpec> parsed = ParseEstimatorSpec(broken);
    ASSERT_FALSE(parsed.ok()) << "round " << round << ": '" << broken << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << broken;
    ++exercised;
  }
  // The duplicate-key case can skip; everything else must have run.
  EXPECT_GT(exercised, kRounds / 2);
}

TEST(SpecFuzzTest, ParamReaderRejectsGarbageValuesWithErrors) {
  // Typed getters over fuzzed values: correct parses for well-formed
  // numbers/bools, InvalidArgument (not an abort) for everything else.
  Rng rng(777);
  for (int round = 0; round < kRounds / 4; ++round) {
    std::string value = RandomToken(rng, kValueChars, 8);
    Result<EstimatorSpec> spec = ParseEstimatorSpec("fuzz?k=" + value);
    ASSERT_TRUE(spec.ok()) << value;

    SpecParamReader uints(*spec);
    Result<uint32_t> as_uint = uints.GetUint32("k", 0);
    SpecParamReader doubles(*spec);
    Result<double> as_double = doubles.GetDouble("k", 0.0);
    SpecParamReader bools(*spec);
    Result<bool> as_bool = bools.GetBool("k", false);

    if (!as_uint.ok()) {
      EXPECT_EQ(as_uint.status().code(), StatusCode::kInvalidArgument);
    }
    if (as_double.ok()) {
      EXPECT_TRUE(std::isfinite(*as_double)) << value;
    } else {
      EXPECT_EQ(as_double.status().code(), StatusCode::kInvalidArgument);
    }
    if (as_bool.ok()) {
      std::string lower = ToLower(value);
      EXPECT_TRUE(lower == "1" || lower == "0" || lower == "true" ||
                  lower == "false" || lower == "yes" || lower == "no")
          << value;
    } else {
      EXPECT_EQ(as_bool.status().code(), StatusCode::kInvalidArgument);
    }
    // A parseable uint must also parse as a double with the same value.
    if (as_uint.ok()) {
      ASSERT_TRUE(as_double.ok()) << value;
      EXPECT_EQ(static_cast<double>(*as_uint), *as_double) << value;
    }
  }
}

TEST(SpecFuzzTest, DoubleGetterRejectsNonFiniteSpellings) {
  // strtod accepts every one of these; a double param must be finite.
  for (const char* value : {"nan", "NAN", "-nan", "nan(0x1)", "inf", "-inf",
                            "+INF", "infinity", "-Infinity", "1e400"}) {
    Result<EstimatorSpec> spec =
        ParseEstimatorSpec(std::string("fuzz?k=") + value);
    ASSERT_TRUE(spec.ok()) << value;
    SpecParamReader reader(*spec);
    EXPECT_EQ(reader.GetDouble("k", 0.0).status().code(),
              StatusCode::kInvalidArgument)
        << value;
  }
}

TEST(SpecFuzzTest, UnknownParamsAreAlwaysCaughtBySweep) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    RandomSpec spec = MakeValidSpec(rng);
    if (spec.canonical_params.empty()) continue;
    Result<EstimatorSpec> parsed = ParseEstimatorSpec(spec.text);
    ASSERT_TRUE(parsed.ok());
    SpecParamReader reader(*parsed);  // consumes nothing
    Status status = reader.VerifyAllConsumed();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec.text;
  }
}

}  // namespace
}  // namespace dqm::estimators
