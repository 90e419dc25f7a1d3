/// \file test_rng.cpp
/// \brief Unit tests for the xoshiro256** generator and sampling routines.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "qclab/random/rng.hpp"
#include "qclab/stabilizer/tableau.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::random {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng rng(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(rng());
  rng.seed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng(), first[i]);
}

TEST(Rng, ZeroSeedWorks) {
  Rng rng(0);
  // splitmix64 seeding guarantees a nonzero state even for seed 0.
  bool anyNonZero = false;
  for (int i = 0; i < 10; ++i) anyNonZero |= rng() != 0;
  EXPECT_TRUE(anyNonZero);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    ASSERT_GE(u, -2.0);
    ASSERT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniformInt(6);
    ASSERT_LT(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces of the die appear
}

TEST(Rng, NormalMoments) {
  Rng rng(6);
  double sum = 0.0, sumSq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumSq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumSq / n, 1.0, 0.05);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(7);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(8);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
}

TEST(Rng, BinomialMeanAndVariance) {
  Rng rng(9);
  const std::uint64_t trials = 1000;
  const double p = 0.3;
  const int reps = 500;
  double sum = 0.0, sumSq = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double x = static_cast<double>(rng.binomial(trials, p));
    sum += x;
    sumSq += x * x;
  }
  const double mean = sum / reps;
  const double variance = sumSq / reps - mean * mean;
  EXPECT_NEAR(mean, trials * p, 5.0);
  EXPECT_NEAR(variance, trials * p * (1 - p), 60.0);
}

TEST(Rng, MultinomialSumsToTrials) {
  Rng rng(10);
  const std::vector<double> weights = {0.1, 0.2, 0.3, 0.4};
  const auto counts = rng.multinomial(10000, weights);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 10000u);
  EXPECT_NEAR(static_cast<double>(counts[3]) / 10000.0, 0.4, 0.03);
}

TEST(Rng, MultinomialZeroWeightCategoryGetsNothing) {
  Rng rng(11);
  const auto counts = rng.multinomial(5000, {0.5, 0.0, 0.5});
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[0] + counts[2], 5000u);
}

TEST(Rng, MultinomialValidation) {
  Rng rng(12);
  EXPECT_THROW(rng.multinomial(10, {}), qclab::InvalidArgumentError);
  EXPECT_THROW(rng.multinomial(10, {0.0, 0.0}), qclab::InvalidArgumentError);
  EXPECT_THROW(rng.multinomial(10, {1.0, -1.0}), qclab::InvalidArgumentError);
}

TEST(Rng, JumpProducesDisjointStream) {
  Rng a(13);
  Rng b(13);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, JumpStreamsMatchManualJumps) {
  // jumpStreams(seed, count) is the engine's determinism contract:
  // stream 0 is Rng(seed), stream i+1 is stream i after one jump().
  const auto streams = Rng::jumpStreams(21, 4);
  ASSERT_EQ(streams.size(), 4u);
  Rng manual(21);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    Rng copy = streams[s];
    Rng reference = manual;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(copy(), reference());
    manual.jump();
  }
}

TEST(Rng, JumpStreamsAreMutuallyDisjoint) {
  // Property test backing the per-trajectory streams: draws from 8
  // consecutive jump streams never collide within a 256-draw window.
  // xoshiro256** jump() skips 2^128 outputs, so any collision here
  // would signal a broken jump polynomial.
  constexpr std::size_t kStreams = 8;
  constexpr int kDraws = 256;
  auto streams = Rng::jumpStreams(2026, kStreams);
  std::set<std::uint64_t> seen;
  for (auto& stream : streams) {
    for (int i = 0; i < kDraws; ++i) {
      const auto value = stream();
      EXPECT_TRUE(seen.insert(value).second)
          << "collision across jump streams at draw " << i;
    }
  }
  EXPECT_EQ(seen.size(), kStreams * kDraws);
}

TEST(Rng, JumpStreamsZeroCountIsEmpty) {
  EXPECT_TRUE(Rng::jumpStreams(1, 0).empty());
}

TEST(Rng, JumpStreamsDriveTableauMeasurementSampler) {
  // The dispatch sampler assigns one jump stream per shot chunk; the
  // outcome sequence a stream feeds into Tableau::measure must be
  // reproducible from the same seed and disjoint across streams.
  const auto collect = [](Rng rng) {
    std::string outcomes;
    for (int shot = 0; shot < 64; ++shot) {
      stabilizer::Tableau tableau(3);
      tableau.h(0);
      tableau.cx(0, 1);
      tableau.h(2);
      for (int q = 0; q < 3; ++q) {
        outcomes += static_cast<char>('0' + tableau.measure(q, rng));
      }
    }
    return outcomes;
  };
  const auto streams = Rng::jumpStreams(77, 3);
  const auto again = Rng::jumpStreams(77, 3);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    EXPECT_EQ(collect(streams[s]), collect(again[s])) << "stream " << s;
  }
  // Different streams sample different measurement records (3 streams x
  // 192 fair coin flips: collisions are astronomically unlikely).
  EXPECT_NE(collect(streams[0]), collect(streams[1]));
  EXPECT_NE(collect(streams[1]), collect(streams[2]));
}

TEST(Rng, MultinomialSinglePositiveCategoryDrawsNothing) {
  // All the weight in one category: every trial lands there and the
  // generator state is left untouched.
  Rng rng(14);
  Rng untouched = rng;
  const auto counts = rng.multinomial(1000, {0.0, 0.0, 2.5, 0.0});
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{0, 0, 1000, 0}));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng(), untouched());
}

TEST(Rng, MultinomialZeroAndOneTrial) {
  Rng rng(15);
  const std::vector<double> weights = {0.0, 0.3, 0.0, 0.7, 0.0};
  EXPECT_EQ(rng.multinomial(0, weights),
            (std::vector<std::uint64_t>(weights.size(), 0)));
  for (int rep = 0; rep < 50; ++rep) {
    const auto counts = rng.multinomial(1, weights);
    EXPECT_EQ(counts[0] + counts[2] + counts[4], 0u);
    EXPECT_EQ(counts[1] + counts[3], 1u);
  }
}

/// Category of one inverse-CDF draw by linear scan over the running sum:
/// the first k with cumulative[k] > r, or the last positive category when
/// r reached the total.
std::size_t linearScan(const std::vector<double>& weights, double r) {
  double cumulative = 0.0;
  std::size_t lastPositive = 0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    cumulative += weights[k];
    if (weights[k] > 0.0) lastPositive = k;
    if (weights[k] > 0.0 && r < cumulative) return k;
  }
  return lastPositive;
}

/// Counts a replay of multinomial's stream: one uniform per trial, mapped
/// through linearScan.
std::vector<std::uint64_t> replay(Rng rng, std::uint64_t trials,
                                  const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<std::uint64_t> counts(weights.size(), 0);
  for (std::uint64_t t = 0; t < trials; ++t) {
    ++counts[linearScan(weights, rng.uniform() * total)];
  }
  return counts;
}

TEST(Rng, MultinomialIsExactInverseCdf) {
  // The binary search picks exactly the category a linear scan of the
  // cumulative weights picks for the same uniform, zero runs included.
  Rng weightsRng(16);
  for (const std::size_t categories : {2u, 3u, 5u, 64u, 1000u}) {
    std::vector<double> weights(categories);
    for (auto& w : weights) {
      w = weightsRng.uniform() < 0.3 ? 0.0 : weightsRng.uniform(0.0, 2.0);
    }
    weights.front() = 0.0;
    weights[categories / 2] = 1.0;
    Rng rng(17 + categories);
    const auto expected = replay(rng, 5000, weights);
    EXPECT_EQ(rng.multinomial(5000, weights), expected)
        << categories << " categories";
  }
}

TEST(Rng, MultinomialDrawThatRoundsToTotalGoesToLastPositive) {
  // With a subnormal total, uniform() * total rounds up to total for
  // about a quarter of the draws; those belong to the last positive
  // category, never to the zero-weight one after it.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> weights = {0.0, tiny, tiny, 0.0};
  const double total = 2 * tiny;
  Rng probe(18);
  int roundedUp = 0;
  for (int t = 0; t < 1000; ++t) {
    if (probe.uniform() * total == total) ++roundedUp;
  }
  ASSERT_GT(roundedUp, 0);

  Rng rng(18);
  const auto counts = rng.multinomial(1000, weights);
  EXPECT_EQ(counts, replay(Rng(18), 1000, weights));
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_GE(counts[2], static_cast<std::uint64_t>(roundedUp));
  EXPECT_EQ(counts[1] + counts[2], 1000u);
}

/// Upper tail of the chi-square distribution with `df` degrees of freedom
/// at p = 1e-4 (Wilson–Hilferty; slightly conservative at small df).
double chiSquareCritical(double df) {
  const double z = 3.719;  // standard normal quantile at 1 - 1e-4
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - a + z * std::sqrt(a), 3);
}

class MultinomialGoodnessOfFit : public ::testing::TestWithParam<int> {};

TEST_P(MultinomialGoodnessOfFit, ChiSquareWithZeroCategoriesAtEdges) {
  // K positive categories plus zero-weight categories at the front, in
  // the middle and at the end: the zeros are never drawn and the counts
  // of the positive ones fit their weights.
  const int positive = GetParam();
  Rng weightsRng(static_cast<std::uint64_t>(positive));
  std::vector<double> weights = {0.0};
  for (int k = 0; k < positive; ++k) {
    weights.push_back(weightsRng.uniform(0.2, 1.0));
    if (k == positive / 2 - 1) weights.push_back(0.0);
  }
  weights.push_back(0.0);
  double total = 0.0;
  for (double w : weights) total += w;

  const std::uint64_t trials = 200 * static_cast<std::uint64_t>(positive);
  Rng rng(1000 + static_cast<std::uint64_t>(positive));
  const auto counts = rng.multinomial(trials, weights);
  ASSERT_EQ(counts.size(), weights.size());
  double chiSquare = 0.0;
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    sum += counts[k];
    if (weights[k] == 0.0) {
      EXPECT_EQ(counts[k], 0u) << "zero-weight category " << k;
      continue;
    }
    const double expected = static_cast<double>(trials) * weights[k] / total;
    const double diff = static_cast<double>(counts[k]) - expected;
    chiSquare += diff * diff / expected;
  }
  EXPECT_EQ(sum, trials);
  EXPECT_LT(chiSquare, chiSquareCritical(positive - 1.0))
      << positive << " positive categories";
}

INSTANTIATE_TEST_SUITE_P(Categories, MultinomialGoodnessOfFit,
                         ::testing::Values(2, 3, 17, 4096));

class MultinomialSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MultinomialSweep, CountsSumAndStayProportional) {
  const auto [categories, trials] = GetParam();
  Rng rng(99);
  std::vector<double> weights(static_cast<std::size_t>(categories));
  for (auto& w : weights) w = rng.uniform(0.1, 1.0);
  double total = 0.0;
  for (double w : weights) total += w;

  const auto counts = rng.multinomial(trials, weights);
  std::uint64_t sum = 0;
  for (auto c : counts) sum += c;
  EXPECT_EQ(sum, trials);
  if (trials >= 10000) {
    for (std::size_t k = 0; k < weights.size(); ++k) {
      EXPECT_NEAR(static_cast<double>(counts[k]) / trials, weights[k] / total,
                  0.05);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultinomialSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{100},
                                         std::uint64_t{10000})));

}  // namespace
}  // namespace qclab::random
