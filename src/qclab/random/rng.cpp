#include "qclab/random/rng.hpp"

#include <cmath>

#include "qclab/util/errors.hpp"

namespace qclab::random {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::seed(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  hasCachedNormal_ = false;
}

double Rng::uniform(double low, double high) noexcept {
  return low + (high - low) * uniform();
}

std::uint64_t Rng::uniformInt(std::uint64_t n) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() noexcept {
  if (hasCachedNormal_) {
    hasCachedNormal_ = false;
    return cachedNormal_;
  }
  double u1 = uniform();
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cachedNormal_ = radius * std::sin(angle);
  hasCachedNormal_ = true;
  return radius * std::cos(angle);
}

std::size_t Rng::discrete(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  const double r = uniform() * total;
  double cumulative = 0.0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    cumulative += weights[k];
    if (r < cumulative) return k;
  }
  return weights.size() - 1;  // guard against rounding at the top end
}

std::uint64_t Rng::binomial(std::uint64_t trials, double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return trials;
  // BTPE would be faster for huge trial counts; shot counts in circuit
  // simulation are small enough that the direct method is fine and exact.
  std::uint64_t successes = 0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    if (uniform() < p) ++successes;
  }
  return successes;
}

std::size_t Rng::countAtOrBelow(const double* sums, std::size_t n,
                               double r) noexcept {
  // Keeps the answer in [base, base + n]; compiles to conditional moves.
  const double* base = sums;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] <= r ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - sums) + (*base <= r ? 1 : 0);
}

void Rng::drawFromSums(std::uint64_t trials, const double* sums,
                       std::size_t last, double total,
                       std::uint64_t* counts) noexcept {
  for (std::uint64_t t = 0; t < trials; ++t) {
    ++counts[countAtOrBelow(sums, last, uniform() * total)];
  }
}

std::vector<std::uint64_t> Rng::multinomial(
    std::uint64_t trials, const std::vector<double>& weights) {
  return multinomial(trials, weights.size(),
                     [&weights](std::size_t k) { return weights[k]; });
}

void Rng::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> accumulated{};
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < 4; ++i) accumulated[i] ^= state_[i];
      }
      (*this)();
    }
  }
  state_ = accumulated;
}

std::vector<Rng> Rng::jumpStreams(std::uint64_t seed, std::size_t count) {
  std::vector<Rng> streams;
  streams.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    streams.push_back(rng);
    rng.jump();
  }
  return streams;
}

}  // namespace qclab::random
