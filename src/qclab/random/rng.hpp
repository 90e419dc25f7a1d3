#pragma once

/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for shot sampling.
///
/// QCLAB relies on MATLAB's `rng(seed)` for reproducible measurement
/// statistics; this module provides the equivalent: a small, fast, seedable
/// generator (xoshiro256**) plus the sampling routines the simulator needs
/// (uniform, discrete, binomial, multinomial).  The MATLAB stream itself is
/// proprietary, so absolute draws differ; the statistics are equivalent.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "qclab/util/errors.hpp"

namespace qclab::random {

/// xoshiro256** 1.0 by Blackman & Vigna: 256-bit state, period 2^256 - 1,
/// passes BigCrush.  Seeded through splitmix64 so that any 64-bit seed
/// (including 0) yields a well-mixed state.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator seeded with `seed` (default 0, like `rng(0)`).
  explicit Rng(std::uint64_t seed = 0) noexcept { this->seed(seed); }

  /// Re-seeds the generator deterministically.
  void seed(std::uint64_t seed) noexcept;

  /// Next raw 64-bit output.  Defined here, like uniform(), so that the
  /// multinomial trial loop inlines it wherever the accessor overload is
  /// instantiated.
  std::uint64_t operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [low, high).
  double uniform(double low, double high) noexcept;

  /// Uniform integer in [0, n).  n must be positive.
  std::uint64_t uniformInt(std::uint64_t n) noexcept;

  /// Standard normal deviate (Box-Muller; pairs are cached).
  double normal() noexcept;

  /// Samples an index from the unnormalized weight vector `weights`
  /// (linear scan over the cumulative sum).  Weights must be nonnegative
  /// with a positive total.
  std::size_t discrete(const std::vector<double>& weights) noexcept;

  /// Number of successes in `trials` Bernoulli(p) draws.  O(trials).
  std::uint64_t binomial(std::uint64_t trials, double p) noexcept;

  /// Distributes `trials` draws over categories with the given unnormalized
  /// weights; returns per-category counts (the accessor overload below).
  std::vector<std::uint64_t> multinomial(std::uint64_t trials,
                                         const std::vector<double>& weights);

  /// Distributes `trials` draws over `categories` categories whose
  /// unnormalized weights `weightAt(k)` returns; returns per-category
  /// counts.  Exact inverse-CDF sampling: a trial draws one uniform r and
  /// lands on the first category whose running weight sum exceeds r (the
  /// last positive category when r reaches the total).  A zero-weight
  /// category is never drawn, and no uniform is consumed when a single
  /// category holds all the weight.  One pass over the weights keeps a
  /// table of running sums, one per block of 2^b categories, b the
  /// smallest in [0, 6] that leaves at most max(2^12, trials) sums.  A
  /// trial is one branchless binary search over the table, then for b > 0
  /// re-adds the weights of one block (2^b < 2 * categories / trials), so
  /// sampling costs O(categories + trials * log categories) and the
  /// weights need never be materialized: a 2^n-outcome register sampled
  /// from its amplitudes at few shots keeps 2^n / 64 sums.
  template <typename WeightAt>
  std::vector<std::uint64_t> multinomial(std::uint64_t trials,
                                         std::size_t categories,
                                         WeightAt&& weightAt);

  /// Advances the state by 2^128 steps; use to split independent parallel
  /// streams from one seed.
  void jump() noexcept;

  /// `count` generators derived from one seed: stream 0 is Rng(seed) and
  /// each following stream is the previous one advanced by jump(), so the
  /// streams draw from pairwise disjoint 2^128-long slices of the xoshiro
  /// sequence.  The trajectory engine hands stream i to trajectory i, which
  /// is what makes its results independent of thread count and schedule.
  static std::vector<Rng> jumpStreams(std::uint64_t seed, std::size_t count);

 private:
  /// The number of sums[0, n) at or below r (n >= 1; sums nondecreasing).
  /// Out of line, like drawFromSums: compiled in rng.cpp the binary search
  /// keeps conditional moves, but inlined into a caller's loop GCC may
  /// turn it into a branch that mispredicts at every level (3-4x slower
  /// per trial).
  static std::size_t countAtOrBelow(const double* sums, std::size_t n,
                                    double r) noexcept;

  /// multinomial's trial loop over one running sum per category: each of
  /// `trials` draws adds one to counts[countAtOrBelow(sums, last, r)],
  /// r = uniform() * total.
  void drawFromSums(std::uint64_t trials, const double* sums,
                    std::size_t last, double total,
                    std::uint64_t* counts) noexcept;

  std::array<std::uint64_t, 4> state_{};
  double cachedNormal_ = 0.0;
  bool hasCachedNormal_ = false;
};

template <typename WeightAt>
std::vector<std::uint64_t> Rng::multinomial(std::uint64_t trials,
                                            std::size_t categories,
                                            WeightAt&& weightAt) {
  util::require(categories > 0, "multinomial requires at least one category");
  const std::uint64_t budget = std::max(std::uint64_t{1} << 12, trials);
  int blockBits = 0;
  while (blockBits < 6 && (categories >> blockBits) > budget) ++blockBits;
  const std::size_t blockMask = (std::size_t{1} << blockBits) - 1;
  // ends[b]: the running sum through the last category of block b;
  // `last` is the last positive-weight category.  Both vectors are
  // allocated before the sum pass: an allocation after it made GCC keep
  // `total` in memory through the pass, doubling its serial add chain.
  std::vector<double> ends(categories >> blockBits);
  std::vector<std::uint64_t> counts(categories, 0);
  std::size_t positive = 0;
  std::size_t last = 0;
  double total = 0.0;
  for (std::size_t k = 0; k < categories; ++k) {
    const double w = weightAt(k);
    util::require(w >= 0.0, "multinomial weights must be nonnegative");
    if (w > 0.0) {
      ++positive;
      last = k;
    }
    total += w;
    if ((k & blockMask) == blockMask) ends[k >> blockBits] = total;
  }
  util::require(total > 0.0, "multinomial weights sum to zero");

  if (positive == 1) {
    counts[last] = trials;
    return counts;
  }
  // The category is the number of running sums before `last` at or below
  // r.  A zero-weight category repeats its predecessor's sum and so is
  // never chosen, and an r that rounds up to total (subnormal totals)
  // lands on `last`.
  const double* const table = ends.data();
  if (blockBits == 0) {
    drawFromSums(trials, table, last, total, counts.data());
    return counts;
  }
  // Count the whole blocks before `last` at or below r, then re-add the
  // next block from its start (the same sums, in the same order) up to
  // the first above r.
  const std::size_t blocks = last >> blockBits;
  for (std::uint64_t t = 0; t < trials; ++t) {
    const double r = uniform() * total;
    std::size_t k = blocks > 0 ? countAtOrBelow(table, blocks, r) : 0;
    double sum = k == 0 ? 0.0 : table[k - 1];
    for (k <<= blockBits; k < last; ++k) {
      sum += weightAt(k);
      if (sum > r) break;
    }
    ++counts[k];
  }
  return counts;
}

}  // namespace qclab::random
