#include "estimators/f_statistics.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace dqm::estimators {
namespace {

TEST(FStatisticsTest, StartsEmpty) {
  FStatistics f;
  EXPECT_EQ(f.NumSpecies(), 0u);
  EXPECT_EQ(f.TotalObservations(), 0u);
  EXPECT_EQ(f.singletons(), 0u);
  EXPECT_EQ(SumIiMinus1(f.fingerprint()), 0u);
}

TEST(FStatisticsTest, AddSingleton) {
  FStatistics f;
  f.AddSingleton();
  f.AddSingleton();
  EXPECT_EQ(f.f(1), 2u);
  EXPECT_EQ(f.NumSpecies(), 2u);
  EXPECT_EQ(f.TotalObservations(), 2u);
}

TEST(FStatisticsTest, PromoteMovesBetweenClasses) {
  FStatistics f;
  f.AddSingleton();
  f.Promote(1);
  EXPECT_EQ(f.f(1), 0u);
  EXPECT_EQ(f.f(2), 1u);
  EXPECT_EQ(f.NumSpecies(), 1u);
  EXPECT_EQ(f.TotalObservations(), 2u);
  f.Promote(2);
  EXPECT_EQ(f.f(3), 1u);
  EXPECT_EQ(f.TotalObservations(), 3u);
}

TEST(FStatisticsTest, RemoveDeletesSpecies) {
  FStatistics f;
  f.AddSingleton();
  f.Promote(1);  // one species at frequency 2
  f.Remove(2);
  EXPECT_EQ(f.NumSpecies(), 0u);
  EXPECT_EQ(f.TotalObservations(), 0u);
}

TEST(FStatisticsTest, SumIiMinus1) {
  FStatistics f;
  // Two species at freq 3, one at freq 1: 2*3*2 + 1*1*0 = 12.
  for (int s = 0; s < 2; ++s) {
    f.AddSingleton();
    f.Promote(1);
    f.Promote(2);
  }
  f.AddSingleton();
  EXPECT_EQ(SumIiMinus1(f.fingerprint()), 12u);
}

// Invariant check against brute-force bookkeeping over random operations.
class FStatisticsPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(FStatisticsPropertyTest, InvariantsUnderRandomOps) {
  Rng rng(GetParam());
  FStatistics f;
  std::vector<uint32_t> species_freqs;  // shadow model
  for (int op = 0; op < 500; ++op) {
    if (species_freqs.empty() || rng.Bernoulli(0.3)) {
      f.AddSingleton();
      species_freqs.push_back(1);
    } else {
      size_t index = rng.UniformIndex(species_freqs.size());
      f.Promote(species_freqs[index]);
      ++species_freqs[index];
    }
    // Invariants: c = #species, n = sum freq, f(j) matches shadow counts.
    uint64_t n = 0;
    std::map<uint32_t, uint64_t> hist;
    for (uint32_t freq : species_freqs) {
      n += freq;
      ++hist[freq];
    }
    ASSERT_EQ(f.NumSpecies(), species_freqs.size());
    ASSERT_EQ(f.TotalObservations(), n);
    for (const auto& [freq, count] : hist) {
      ASSERT_EQ(f.f(freq), count);
    }
    ASSERT_EQ(f.histogram().size(), hist.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FStatisticsPropertyTest,
                         testing::Values(5, 6, 7, 8));

TEST(FStatisticsTest, ShiftedViewDropsLowClasses) {
  FStatistics f;
  // 3 singletons, 2 doubletons, 1 tripleton. n = 3 + 4 + 3 = 10.
  for (int i = 0; i < 3; ++i) f.AddSingleton();
  for (int i = 0; i < 2; ++i) {
    f.AddSingleton();
    f.Promote(1);
  }
  f.AddSingleton();
  f.Promote(1);
  f.Promote(2);

  ShiftedView view = Shifted(f.fingerprint(), 1, f.TotalObservations());
  // Shift 1: doubletons become singletons, tripletons become doubletons.
  EXPECT_EQ(view.f1, 2u);
  EXPECT_EQ(view.c, 3u);           // 2 + 1 species remain
  EXPECT_EQ(view.n, 10u - 3u);     // n - f_1 (paper's n^{+,s})
  // sum j(j-1) f_{j+1}: shifted freq 1 contributes 0, shifted 2: 1*2*1 = 2.
  EXPECT_EQ(view.sum_ii1, 2u);
}

TEST(FStatisticsTest, ShiftZeroIsIdentity) {
  FStatistics f;
  f.AddSingleton();
  f.AddSingleton();
  f.Promote(1);
  ShiftedView view = Shifted(f.fingerprint(), 0, f.TotalObservations());
  EXPECT_EQ(view.f1, f.singletons());
  EXPECT_EQ(view.c, f.NumSpecies());
  EXPECT_EQ(view.n, f.TotalObservations());
  EXPECT_EQ(view.sum_ii1, SumIiMinus1(f.fingerprint()));
}

TEST(FStatisticsTest, RebuildFromCountsMatchesIncrementalStream) {
  // Feeding per-item dirty counts one increment at a time (AddSingleton on
  // 0 -> 1, Promote otherwise) must equal one RebuildFromCounts scan of the
  // final counts — the striped publish path's bit-identity claim.
  Rng rng(41);
  std::vector<uint32_t> counts(300, 0);
  FStatistics incremental;
  for (size_t step = 0; step < 5000; ++step) {
    size_t item = rng.UniformIndex(counts.size());
    if (counts[item] == 0) {
      incremental.AddSingleton();
    } else {
      incremental.Promote(counts[item]);
    }
    ++counts[item];
  }
  FStatistics rebuilt;
  rebuilt.RebuildFromCounts(counts);
  EXPECT_EQ(rebuilt.NumSpecies(), incremental.NumSpecies());
  EXPECT_EQ(rebuilt.TotalObservations(), incremental.TotalObservations());
  EXPECT_EQ(SumIiMinus1(rebuilt.fingerprint()),
            SumIiMinus1(incremental.fingerprint()));
  EXPECT_EQ(rebuilt.histogram(), incremental.histogram());
}

TEST(FStatisticsTest, RebuildFromCountsResetsPreviousState) {
  FStatistics f;
  f.AddSingleton();
  f.Promote(1);
  f.AddSingleton();  // {1: 1, 2: 1}
  std::vector<uint32_t> counts = {0, 3, 0, 1};
  f.RebuildFromCounts(counts);
  EXPECT_EQ(f.NumSpecies(), 2u);
  EXPECT_EQ(f.TotalObservations(), 4u);
  EXPECT_EQ(f.f(1), 1u);
  EXPECT_EQ(f.f(2), 0u);
  EXPECT_EQ(f.f(3), 1u);
  f.RebuildFromCounts(std::vector<uint32_t>{});
  EXPECT_EQ(f.NumSpecies(), 0u);
  EXPECT_EQ(f.TotalObservations(), 0u);
  EXPECT_EQ(f.singletons(), 0u);
}

/// Dense fingerprint of a count column: entry j = #counts equal to j.
std::vector<uint64_t> DenseFingerprint(const std::vector<uint32_t>& counts) {
  std::vector<uint64_t> dense;
  for (uint32_t count : counts) {
    if (count == 0) continue;
    if (count + 1 > dense.size()) dense.resize(count + 1, 0);
    ++dense[count];
  }
  return dense;
}

TEST(FingerprintFunctionsTest, TrailingZeroBucketsDoNotMatter) {
  // The free functions read any fingerprint span: a dense one (as a
  // response log keeps it) scores exactly like an FStatistics rebuild of
  // the same counts, whose vector carries an extra empty bucket.
  Rng rng(43);
  std::vector<uint32_t> counts(400, 0);
  for (size_t step = 0; step < 3000; ++step) {
    ++counts[rng.UniformIndex(counts.size())];
  }
  FStatistics rebuilt;
  rebuilt.RebuildFromCounts(counts);
  const std::vector<uint64_t> dense = DenseFingerprint(counts);
  ASSERT_LT(dense.size(), rebuilt.fingerprint().size());
  EXPECT_EQ(SumIiMinus1(dense), SumIiMinus1(rebuilt.fingerprint()));
  for (uint32_t shift : {0u, 1u, 2u}) {
    ShiftedView sa = Shifted(dense, shift, rebuilt.TotalObservations());
    ShiftedView sb =
        Shifted(rebuilt.fingerprint(), shift, rebuilt.TotalObservations());
    EXPECT_EQ(sa.f1, sb.f1) << shift;
    EXPECT_EQ(sa.n, sb.n) << shift;
    EXPECT_EQ(sa.c, sb.c) << shift;
    EXPECT_EQ(sa.sum_ii1, sb.sum_ii1) << shift;
  }
  for (uint32_t j = 0; j < rebuilt.fingerprint().size() + 2; ++j) {
    EXPECT_EQ(FingerprintAt(dense, j), rebuilt.f(j)) << j;
  }
  EXPECT_EQ(SumIiMinus1(std::vector<uint64_t>{}), 0u);
}

TEST(FStatisticsDeathTest, PromoteMissingClassAborts) {
  FStatistics f;
  EXPECT_DEATH(f.Promote(1), "no species");
  f.AddSingleton();
  EXPECT_DEATH(f.Promote(2), "no species");
}

TEST(Chao92PointTest, ZeroSpeciesGivesZero) {
  EXPECT_DOUBLE_EQ(Chao92Point(0, 0, 0, 0, true), 0.0);
}

TEST(Chao92PointTest, NoSingletonsGivesObservedCount) {
  // Full coverage (f1 = 0): D = c.
  EXPECT_DOUBLE_EQ(Chao92Point(10, 0, 30, 60, false), 10.0);
}

TEST(Chao92PointTest, AllSingletonsFallsBackToC) {
  // f1 == n: zero estimated coverage; defined fallback.
  EXPECT_DOUBLE_EQ(Chao92Point(5, 5, 5, 0, true), 5.0);
}

TEST(Chao92PointTest, PaperExampleOne) {
  // Section 3.2.1 Example 1: c=83, f1=30, n=180 ->
  // D = 83 / (1 - 30/180) = 99.6; remaining = 16.6.
  double estimate = Chao92Point(83, 30, 180, 0, false);
  EXPECT_NEAR(estimate - 83.0, 16.6, 0.1);
}

TEST(Chao92PointTest, PaperExampleTwo) {
  // Example 2: c=102, f1=46, n=208 -> D - c ~= 131.
  double estimate = Chao92Point(102, 46, 208, 0, false);
  EXPECT_NEAR(estimate, 102.0 + 29.0, 1.0);  // 102/(1-46/208) = 130.96
}

TEST(Chao92PointTest, SkewCorrectionNonNegative) {
  // gamma^2 is clamped at zero: skew form >= noskew form.
  double noskew = Chao92Point(50, 10, 200, 900, false);
  double skew = Chao92Point(50, 10, 200, 900, true);
  EXPECT_GE(skew, noskew);
}

TEST(Chao92PointTest, EstimateAtLeastObservedSpecies) {
  for (uint64_t f1 : {0u, 1u, 5u, 20u}) {
    double estimate = Chao92Point(40, f1, 100, 300, true);
    EXPECT_GE(estimate, 40.0) << "f1=" << f1;
  }
}

}  // namespace
}  // namespace dqm::estimators
