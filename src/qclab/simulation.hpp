#pragma once

/// \file simulation.hpp
/// \brief Branching state-vector simulation results.
///
/// A mid-circuit measurement with two nonzero-probability outcomes splits
/// the simulation into branches; each branch carries its own collapsed state
/// vector, accumulated probability, and result bitstring (paper §3.3).  The
/// Simulation object exposes the per-branch results, probabilities, and
/// states, shot sampling (`counts`), and reduced states of unmeasured
/// qubits.

#include <algorithm>
#include <complex>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "qclab/dense/ops.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/random/rng.hpp"
#include "qclab/sim/kernels.hpp"
#include "qclab/sim/state_buffer.hpp"
#include "qclab/util/bitstring.hpp"
#include "qclab/util/errors.hpp"

namespace qclab {

/// Creates the 2^n state vector of the basis state given by `bits`
/// ("00", "010", ...; character k = value of qubit k).
template <typename T>
std::vector<std::complex<T>> basisState(const std::string& bits) {
  util::require(!bits.empty(), "empty bitstring");
  const auto index = util::bitstringToIndex(bits);
  std::vector<std::complex<T>> state(std::size_t{1} << bits.size());
  state[index] = std::complex<T>(1);
  return state;
}

/// Extracts the state of the qubits *not* listed in `knownQubits` from
/// `state`, given that the known qubits are in the basis state described by
/// `knownValues` (paper §5.1, reducedStatevector).  Throws if the state is
/// inconsistent with that assumption (the extracted part would not carry
/// all of the norm), i.e. if the known qubits are entangled with the rest
/// or in a different basis state.
template <typename T, typename State>
std::vector<std::complex<T>> reducedStatevector(
    const State& state,
    const std::vector<int>& knownQubits, const std::string& knownValues,
    T tol = T(1e4) * std::numeric_limits<T>::epsilon()) {
  util::require(util::isPowerOfTwo(state.size()), "state size not 2^n");
  const int nbQubits = util::log2PowerOfTwo(state.size());
  util::require(knownQubits.size() == knownValues.size(),
                "knownQubits/knownValues length mismatch");
  util::require(util::isBitstring(knownValues), "knownValues not a bitstring");
  const int k = static_cast<int>(knownQubits.size());
  util::require(k <= nbQubits, "more known qubits than register qubits");

  // Bit positions of the known qubits, with their fixed values; ascending
  // for insertBit.
  std::vector<std::pair<int, util::index_t>> fixed(knownQubits.size());
  for (int i = 0; i < k; ++i) {
    util::checkQubit(knownQubits[i], nbQubits);
    fixed[static_cast<std::size_t>(i)] = {
        util::bitPosition(knownQubits[i], nbQubits),
        static_cast<util::index_t>(knownValues[static_cast<std::size_t>(i)] -
                                   '0')};
  }
  std::sort(fixed.begin(), fixed.end());
  for (std::size_t i = 1; i < fixed.size(); ++i) {
    util::require(fixed[i].first != fixed[i - 1].first,
                  "duplicate known qubit");
  }

  const std::size_t reducedDim = std::size_t{1} << (nbQubits - k);
  std::vector<std::complex<T>> reduced(reducedDim);
  for (util::index_t r = 0; r < reducedDim; ++r) {
    util::index_t full = r;
    for (const auto& [pos, value] : fixed) {
      full = util::insertBit(full, pos, value);
    }
    reduced[r] = state[full];
  }

  const T fullNorm = dense::norm2(state);
  const T partNorm = dense::norm2(reduced);
  util::require(std::abs(partNorm - fullNorm) <= tol * std::max<T>(T(1), fullNorm),
                "state is not consistent with the given known-qubit values "
                "(entangled or different outcome)");
  // Renormalize exactly.
  if (partNorm > T(0)) {
    const T scale = T(1) / partNorm;
    for (auto& amplitude : reduced) amplitude *= scale;
  }
  return reduced;
}

/// Samples `shots` computational-basis measurements of the listed qubits
/// directly from the amplitudes of `state` (MSB-first outcome ordering,
/// zero-probability outcomes included with count 0).  This is the fast
/// path for *terminal* measurements: no collapse, no branch explosion —
/// sampling m measured qubits costs O(2^n + 2^m + shots * m) instead of
/// the up-to 2^m branches the Measurement-object route would track.
template <typename State>
std::vector<std::uint64_t> sampleStateCounts(
    const State& state, const std::vector<int>& qubits,
    std::uint64_t shots, random::Rng& rng) {
  util::require(util::isPowerOfTwo(state.size()), "state size not 2^n");
  const int nbQubits = util::log2PowerOfTwo(state.size());
  const int m = static_cast<int>(qubits.size());
  util::require(m >= 1, "sampleStateCounts needs at least one qubit");
  util::require(m <= 26, "counts vector would exceed 2^26 entries");
  // outcomeBits[256 * byte + v]: the outcome bits that byte `byte` of a
  // state index contributes when its value is v, so the marginal costs
  // one table lookup per index byte instead of one step per listed qubit.
  const int nbBytes = (nbQubits + 7) / 8;
  std::vector<util::index_t> outcomeBits(
      static_cast<std::size_t>(nbBytes) * 256, 0);
  for (int b = 0; b < m; ++b) {
    util::checkQubit(qubits[static_cast<std::size_t>(b)], nbQubits);
    const int pos =
        util::bitPosition(qubits[static_cast<std::size_t>(b)], nbQubits);
    const util::index_t bit = util::index_t{1} << (m - 1 - b);
    util::index_t* row = &outcomeBits[static_cast<std::size_t>(pos / 8) * 256];
    for (unsigned v = 0; v < 256; ++v) {
      if (util::getBit(v, pos % 8)) row[v] |= bit;
    }
  }
  obs::metrics().add(obs::Counter::kShotsSampled, shots);
  // Marginal outcome distribution.
  std::vector<double> weights(std::size_t{1} << m, 0.0);
  for (std::size_t i = 0; i < state.size(); ++i) {
    util::index_t outcome = 0;
    for (int byte = 0; byte < nbBytes; ++byte) {
      outcome |= outcomeBits[static_cast<std::size_t>(byte) * 256 +
                             ((i >> (8 * byte)) & 0xFF)];
    }
    weights[outcome] += static_cast<double>(std::norm(state[i]));
  }
  return rng.multinomial(shots, weights);
}

/// sampleStateCounts over the full register.  The outcome of measuring
/// every qubit is the state index itself, so the sampler reads the
/// |amplitude|^2 weights straight from the state, without a 2^n weights
/// vector; counts and the generator's final state equal
/// Rng::multinomial over those weights.
template <typename State>
std::vector<std::uint64_t> sampleStateCounts(
    const State& state, std::uint64_t shots,
    random::Rng& rng) {
  util::require(util::isPowerOfTwo(state.size()), "state size not 2^n");
  const int nbQubits = util::log2PowerOfTwo(state.size());
  util::require(nbQubits >= 1, "sampleStateCounts needs at least one qubit");
  util::require(nbQubits <= 26, "counts vector would exceed 2^26 entries");
  obs::metrics().add(obs::Counter::kShotsSampled, shots);
  return rng.multinomial(shots, state.size(), [&state](std::size_t i) {
    return static_cast<double>(std::norm(state[i]));
  });
}

/// One simulation branch.
template <typename T>
struct Branch {
  sim::StateBuffer<T> state;  ///< collapsed state (tiered storage)
  double probability = 1.0;   ///< accumulated branch probability
  std::string result;                  ///< recorded outcomes, in order
  /// (qubit, outcome) per recorded measurement, in order.
  std::vector<std::pair<int, int>> measurements;
};

/// Result of simulating a circuit: one branch per observed combination of
/// measurement outcomes.
template <typename T>
class Simulation {
 public:
  Simulation() = default;

  /// Starts a simulation with a single branch holding `state` (a plain
  /// vector converts implicitly into a heap-tier StateBuffer).  Each
  /// branch's StateBuffer attributes its own bytes to the obs live-memory
  /// accounting, so copies, moves and prunes need no bookkeeping here.
  Simulation(int nbQubits, sim::StateBuffer<T> state)
      : nbQubits_(nbQubits) {
    Branch<T> root;
    root.state = std::move(state);
    branches_.push_back(std::move(root));
  }

  /// Number of register qubits.
  int nbQubits() const noexcept { return nbQubits_; }

  /// All live branches.
  const std::vector<Branch<T>>& branches() const noexcept { return branches_; }
  std::vector<Branch<T>>& branches() noexcept { return branches_; }

  /// Number of branches.
  std::size_t nbBranches() const noexcept { return branches_.size(); }

  /// Result bitstring per branch, in branch order (paper: simulation.results).
  std::vector<std::string> results() const {
    std::vector<std::string> r;
    r.reserve(branches_.size());
    for (const auto& b : branches_) r.push_back(b.result);
    return r;
  }

  /// Probability per branch (paper: simulation.probabilities).
  std::vector<double> probabilities() const {
    std::vector<double> p;
    p.reserve(branches_.size());
    for (const auto& b : branches_) p.push_back(b.probability);
    return p;
  }

  /// Final state vector per branch (paper: simulation.states).
  std::vector<std::vector<std::complex<T>>> states() const {
    std::vector<std::vector<std::complex<T>>> s;
    s.reserve(branches_.size());
    for (const auto& b : branches_) s.push_back(b.state.toVector());
    return s;
  }

  /// Result bitstring of branch `i`.
  const std::string& result(std::size_t i) const { return branches_.at(i).result; }
  /// Probability of branch `i`.
  double probability(std::size_t i) const { return branches_.at(i).probability; }
  /// Final state vector of branch `i` (reference stays valid as long as the
  /// Simulation lives — prefer this over states()[i]).  Heap tier only
  /// (the default); a state that lives on the mmap tier must be read
  /// through stateBuffer(i) instead.
  const std::vector<std::complex<T>>& state(std::size_t i) const {
    return branches_.at(i).state.vector();
  }

  /// Tiered state buffer of branch `i` — works on every tier.
  const sim::StateBuffer<T>& stateBuffer(std::size_t i) const {
    return branches_.at(i).state;
  }

  /// Number of recorded measurements (equal across branches).
  std::size_t nbMeasurements() const {
    return branches_.empty() ? 0 : branches_.front().result.size();
  }

  /// Simulated outcome frequencies over `shots` repetitions, as a dense
  /// vector indexed by the result bitstring value (paper §5.2: for one
  /// measured qubit, entry 0 = frequency of '0', entry 1 = frequency of
  /// '1').  Zero-probability outcomes are included with count 0.
  std::vector<std::uint64_t> counts(std::uint64_t shots,
                                    random::Rng& rng) const {
    const obs::ScopedSpan span("sample/counts");
    const std::size_t m = nbMeasurements();
    util::require(m <= 26, "counts vector would exceed 2^26 entries; use "
                           "countsMap for many measurements");
    for (const auto& b : branches_) {
      util::require(b.result.size() == m,
                    "branches disagree on measurement count");
    }
    obs::metrics().add(obs::Counter::kShotsSampled, shots);
    if (m == 0) {
      // No measurements: every shot yields the trivial outcome.
      return {shots};
    }
    std::vector<double> weights(std::size_t{1} << m, 0.0);
    for (const auto& b : branches_) {
      weights[util::bitstringToIndex(b.result)] += b.probability;
    }
    return rng.multinomial(shots, weights);
  }

  /// counts() with a fresh generator seeded by `seed` (mirrors MATLAB's
  /// rng(seed) followed by counts).
  std::vector<std::uint64_t> counts(std::uint64_t shots,
                                    std::uint64_t seed = 0) const {
    random::Rng rng(seed);
    return counts(shots, rng);
  }

  /// Simulated outcome frequencies keyed by result bitstring; scales to any
  /// number of measurements.  Only observed (nonzero-probability) outcomes
  /// appear.
  std::map<std::string, std::uint64_t> countsMap(std::uint64_t shots,
                                                 random::Rng& rng) const {
    const obs::ScopedSpan span("sample/counts");
    obs::metrics().add(obs::Counter::kShotsSampled, shots);
    std::vector<double> weights;
    weights.reserve(branches_.size());
    for (const auto& b : branches_) weights.push_back(b.probability);
    const auto perBranch = rng.multinomial(shots, weights);
    std::map<std::string, std::uint64_t> result;
    for (std::size_t i = 0; i < branches_.size(); ++i) {
      result[branches_[i].result] += perBranch[i];
    }
    return result;
  }

  /// countsMap() with a fresh generator seeded by `seed`.
  std::map<std::string, std::uint64_t> countsMap(std::uint64_t shots,
                                                 std::uint64_t seed = 0) const {
    random::Rng rng(seed);
    return countsMap(shots, rng);
  }

  /// Probability-weighted average of `perBranchValue` over the branches —
  /// the expectation of a classical post-measurement functional, e.g.
  ///   simulation.average([&](const auto& b) { return h.expectation(b.state); })
  /// gives the ensemble expectation value of an observable.
  template <typename Functional>
  double average(Functional&& perBranchValue) const {
    double sum = 0.0;
    for (const auto& branch : branches_) {
      sum += branch.probability *
             static_cast<double>(perBranchValue(branch));
    }
    return sum;
  }

  /// Reduced state of the unmeasured qubits, per branch (paper:
  /// simulation.reducedStates).  For a branch where every qubit was
  /// measured the reduced state is the scalar 1 (a single amplitude).
  std::vector<std::vector<std::complex<T>>> reducedStates() const {
    std::vector<std::vector<std::complex<T>>> reduced;
    reduced.reserve(branches_.size());
    for (const auto& b : branches_) {
      // Last recorded outcome per measured qubit.
      std::map<int, int> lastOutcome;
      for (const auto& [qubit, outcome] : b.measurements) {
        lastOutcome[qubit] = outcome;
      }
      std::vector<int> qubits;
      std::string values;
      for (const auto& [qubit, outcome] : lastOutcome) {
        qubits.push_back(qubit);
        values.push_back(static_cast<char>('0' + outcome));
      }
      reduced.push_back(reducedStatevector<T>(b.state, qubits, values));
    }
    return reduced;
  }

 private:
  int nbQubits_ = 0;
  std::vector<Branch<T>> branches_;
};

}  // namespace qclab
