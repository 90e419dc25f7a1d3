#pragma once

/// \file rng.hpp
/// \brief Deterministic pseudo-random number generation for shot sampling.
///
/// QCLAB relies on MATLAB's `rng(seed)` for reproducible measurement
/// statistics; this module provides the equivalent: a small, fast, seedable
/// generator (xoshiro256**) plus the sampling routines the simulator needs
/// (uniform, discrete, binomial, multinomial).  The MATLAB stream itself is
/// proprietary, so absolute draws differ; the statistics are equivalent.

#include <array>
#include <cstdint>
#include <vector>

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

  /// Next raw 64-bit output.
  std::uint64_t operator()() noexcept;

  /// UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() noexcept;

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
  /// weights; returns per-category counts.  Exact inverse-CDF sampling:
  /// `weights` becomes its own running sum (move a temporary in to avoid
  /// the copy), then each trial costs one uniform and one branchless
  /// binary search, O(categories + trials * log categories).  A
  /// zero-weight category is never drawn, and no uniform is consumed when
  /// a single category holds all the weight.
  std::vector<std::uint64_t> multinomial(std::uint64_t trials,
                                         std::vector<double> weights);

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
  std::array<std::uint64_t, 4> state_{};
  double cachedNormal_ = 0.0;
  bool hasCachedNormal_ = false;
};

}  // namespace qclab::random
