#pragma once

/// \file trajectory.hpp
/// \brief Monte Carlo quantum-trajectory simulation of noisy circuits.
///
/// The density-matrix simulator (simulator.hpp) is exact but stores 4^n
/// amplitudes, 1 GiB at 13 qubits and 4 GiB at 14.  TrajectorySimulator
/// trades exactness for scale the way QCLAB++ and Quantum++ do: it
/// stochastically unravels the NoiseModel into N independent 2^n
/// state-vector runs, each sampling one Kraus operator per channel
/// application with probability p_i = ||K_i psi||^2 and renormalizing.
/// Averaged over trajectories the ensemble converges to the
/// density-matrix result at O(1/sqrt(N)), so noisy simulation becomes
/// possible at qubit counts (20+) the 4^n state can never reach.
///
/// Determinism contract: trajectory t always consumes random stream t,
/// obtained by seeding xoshiro256** once and advancing it t jump()s (each
/// jump skips 2^128 draws, so the streams are pairwise disjoint).  All
/// probability reductions inside a trajectory (Kraus branch norms,
/// measurement probabilities) are serial fixed-order sums, and per-
/// trajectory results are written to preassigned slots that are merged
/// sequentially after the parallel loop — so the aggregate result is
/// bit-identical for any thread count.  The parallelism is over
/// trajectories (sim::parallelRanges, one contiguous share per thread);
/// the gate kernels fork a team of their own only when the trajectories
/// run on the calling thread (one thread asked for, or one trajectory).
///
/// Gate fusion: the circuit is compiled once by sim::compile, which cuts
/// its gate runs at measurements, resets, and barriers exactly as
/// QCircuit::simulate cuts them, and fuses every run with the FusionOptions
/// every driver shares; each trajectory replays the shared plans.  A
/// NoiseModel with gateNoise samples a channel after every gate, which
/// leaves no run longer than one gate to merge: the engine then compiles
/// without fusion and runs each gate's kernel record, one channel sample
/// after each.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "qclab/measurement.hpp"
#include "qclab/noise/channels.hpp"
#include "qclab/noise/simulator.hpp"
#include "qclab/observable.hpp"
#include "qclab/obs/histogram.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/qcircuit.hpp"
#include "qclab/random/rng.hpp"
#include "qclab/reset.hpp"
#include "qclab/sim/backend.hpp"
#include "qclab/sim/execute.hpp"
#include "qclab/sim/fusion.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/sim/kernels.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::noise {

/// Tuning knobs of the trajectory engine.
struct TrajectoryOptions {
  /// Seed of the master stream; trajectory t uses the t-th jump() stream.
  std::uint64_t seed = 0;
  /// Number of Monte Carlo unravellings (statistical error ~ 1/sqrt(N)).
  std::size_t nbTrajectories = 256;
  /// Threads over trajectories (1 keeps the kernels serial too); 0 = the
  /// OpenMP default.  Any value yields bit-identical results.
  int nbThreads = 0;
  /// Qubits (MSB-first, at most 16) whose final-state outcome distribution
  /// is averaged over trajectories; required for probabilities() /
  /// sampleCounts().  Empty skips the per-trajectory marginal pass, which
  /// is the right call at high qubit counts when only recorded measurement
  /// outcomes matter.
  std::vector<int> marginalQubits;
};

/// Aggregated outcome of a trajectory run.  Per-trajectory data (outcome
/// strings, functional values) stays accessible; everything aggregate is
/// merged in trajectory order so it is reproducible bit for bit.
template <typename T>
class TrajectoryResult {
 public:
  /// Number of trajectories simulated.
  std::size_t nbTrajectories() const noexcept { return results_.size(); }

  /// Recorded measurement outcomes per trajectory, in circuit order.
  const std::vector<std::string>& results() const noexcept {
    return results_;
  }

  /// Number of measurements each trajectory recorded.
  std::size_t nbMeasurements() const noexcept { return nbMeasurements_; }

  /// Trajectory counts per recorded-outcome index (MSB-first, like
  /// Simulation::counts); requires at least one measurement.
  std::vector<std::uint64_t> counts() const {
    const int m = static_cast<int>(nbMeasurements_);
    util::require(m >= 1, "counts requires measurements in the circuit");
    util::require(m <= 26, "counts vector would exceed 2^26 entries; use "
                           "countsMap for many measurements");
    std::vector<std::uint64_t> result(std::size_t{1} << m, 0);
    for (const auto& outcomes : results_) {
      std::size_t index = 0;
      for (char bit : outcomes) index = (index << 1) | (bit == '1' ? 1 : 0);
      ++result[index];
    }
    return result;
  }

  /// Trajectory counts keyed by recorded-outcome string.
  std::map<std::string, std::uint64_t> countsMap() const {
    std::map<std::string, std::uint64_t> result;
    for (const auto& outcomes : results_) ++result[outcomes];
    return result;
  }

  /// Trajectory-averaged outcome distribution over
  /// TrajectoryOptions::marginalQubits (MSB-first) — the quantity that
  /// converges to DensityMatrix::probabilities on the same qubits.
  const std::vector<T>& probabilities() const {
    util::require(!meanMarginal_.empty(),
                  "probabilities requires TrajectoryOptions::marginalQubits");
    return meanMarginal_;
  }

  /// Samples `shots` outcomes over the marginal qubits from the averaged
  /// distribution (multinomial, like sampleStateCounts).
  std::vector<std::uint64_t> sampleCounts(std::uint64_t shots,
                                          random::Rng& rng) const {
    util::require(!meanMarginal_.empty(),
                  "sampleCounts requires TrajectoryOptions::marginalQubits");
    obs::metrics().add(obs::Counter::kShotsSampled, shots);
    std::vector<double> weights(meanMarginal_.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] = std::max(0.0, static_cast<double>(meanMarginal_[i]));
    }
    return rng.multinomial(shots, weights);
  }

  /// sampleCounts() with a fresh generator seeded by `seed`.
  std::vector<std::uint64_t> sampleCounts(std::uint64_t shots,
                                          std::uint64_t seed = 0) const {
    random::Rng rng(seed);
    return sampleCounts(shots, rng);
  }

  /// Per-trajectory functional values (run(bits, observable) or
  /// runFunctional); empty when no functional was supplied.
  const std::vector<double>& expectations() const noexcept {
    return values_;
  }

  /// Trajectory-averaged functional value (sequential mean, reproducible).
  double expectation() const {
    util::require(!values_.empty(),
                  "expectation requires run(bits, observable) or "
                  "runFunctional");
    double sum = 0.0;
    for (double value : values_) sum += value;
    return sum / static_cast<double>(values_.size());
  }

 private:
  template <typename U>
  friend class TrajectorySimulator;

  std::vector<std::string> results_;
  std::vector<double> values_;
  std::vector<T> meanMarginal_;
  std::size_t nbMeasurements_ = 0;
};

/// Monte Carlo trajectory engine over a circuit + noise model.  The
/// circuit is deep-copied and compiled once into a sim::Program (gate
/// runs, shared fusion plans, measurements, resets); run() replays the
/// program N times with independent random streams.  Movable but not
/// copyable: the program points into the engine's own circuit copy.
template <typename T>
class TrajectorySimulator {
  using C = std::complex<T>;

 public:
  TrajectorySimulator(const QCircuit<T>& circuit, NoiseModel<T> model,
                      TrajectoryOptions options = {})
      : circuit_(circuit),
        model_(std::move(model)),
        options_(std::move(options)),
        nbQubits_(circuit.nbQubits()),
        backend_(sim::defaultBackend<T>()) {
    util::require(options_.nbTrajectories >= 1,
                  "trajectory count must be positive");
    util::require(options_.nbThreads >= 0,
                  "thread count must be nonnegative");
    if (model_.gateNoise) {
      util::require(model_.gateNoise->nbQubits() == 1,
                    "trajectory engine supports single-qubit gate noise");
    }
    if (model_.measurementNoise) {
      util::require(
          model_.measurementNoise->nbQubits() == 1,
          "trajectory engine supports single-qubit measurement noise");
    }
    util::require(options_.marginalQubits.size() <= 16,
                  "marginal qubit list capped at 16 qubits (the averaged "
                  "distribution holds 2^k entries per thread)");
    marginalPositions_.reserve(options_.marginalQubits.size());
    for (int qubit : options_.marginalQubits) {
      util::checkQubit(qubit, nbQubits_);
      marginalPositions_.push_back(util::bitPosition(qubit, nbQubits_));
    }
    const sim::FusionOptions fusion{};
    program_ = sim::compile(circuit_.flatten(), 0, nbQubits_,
                            model_.gateNoise ? nullptr : &fusion);
  }

  TrajectorySimulator(const TrajectorySimulator&) = delete;
  TrajectorySimulator& operator=(const TrajectorySimulator&) = delete;
  /// A moved QCircuit keeps its gate objects, so the program stays valid.
  TrajectorySimulator(TrajectorySimulator&&) = default;

  int nbQubits() const noexcept { return nbQubits_; }
  const TrajectoryOptions& options() const noexcept { return options_; }

  /// Runs N trajectories from |bits>.
  TrajectoryResult<T> run(const std::string& bits) const {
    return runFunctional(bits, [](const std::vector<C>&) { return 0.0; },
                         false);
  }

  /// Runs N trajectories and records observable.expectation(state) of each
  /// final state; TrajectoryResult::expectation() is the ensemble average.
  TrajectoryResult<T> run(const std::string& bits,
                          const Observable<T>& observable) const {
    return runFunctional(bits, [&observable](const std::vector<C>& state) {
      return static_cast<double>(observable.expectation(state));
    });
  }

  /// Runs N trajectories and records fn(state) (double) of each final
  /// state.  `fn` is called concurrently and must be thread-safe.
  template <typename StateFn>
  TrajectoryResult<T> runFunctional(const std::string& bits, StateFn&& fn,
                                    bool recordValues = true) const {
    util::require(static_cast<int>(bits.size()) == nbQubits_,
                  "initial bitstring length must equal nbQubits");
    for (char bit : bits) {
      util::require(bit == '0' || bit == '1',
                    "initial bitstring must be over {0, 1}");
    }
    const std::size_t total = options_.nbTrajectories;
    const obs::ScopedSpan span("simulateTrajectories");
    obs::metrics().add(obs::Counter::kTrajectoryRuns);
    obs::metrics().add(obs::Counter::kTrajectories, total);

    // One disjoint stream per trajectory, regardless of threading.
    const std::vector<random::Rng> streams =
        random::Rng::jumpStreams(options_.seed, total);

    // Formed here: a throw inside the parallel region would terminate.
    const std::size_t dim = sim::stateDim<T>(nbQubits_);
    TrajectoryResult<T> result;
    result.nbMeasurements_ = program_.nbMeasurements;
    result.results_.resize(total);
    if (recordValues) result.values_.resize(total);
    std::vector<std::vector<T>> marginals;
    if (!marginalPositions_.empty()) marginals.resize(total);

    const std::int64_t count = static_cast<std::int64_t>(total);
    const auto runShare = [&](std::int64_t lo, std::int64_t hi, int) {
      // Per-thread working set: the 2^n state plus channel scratch.
      std::vector<C> state(dim);
      Scratch scratch;
      const obs::ScopedStateBytes memory(state.size() * sizeof(C));
      for (std::int64_t t = lo; t < hi; ++t) {
        const obs::PathTimer timer(sim::KernelPath::kTrajectory);
        random::Rng rng = streams[static_cast<std::size_t>(t)];
        initState(state, bits);
        std::string& outcomes = result.results_[static_cast<std::size_t>(t)];
        outcomes.reserve(program_.nbMeasurements);
        runOne(state, rng, scratch, outcomes);
        if (!marginalPositions_.empty()) {
          marginals[static_cast<std::size_t>(t)] = marginalOf(state);
        }
        if (recordValues) {
          result.values_[static_cast<std::size_t>(t)] =
              static_cast<double>(fn(state));
        }
      }
    };
    sim::parallelItems(count, sim::teamSize(count, 2, options_.nbThreads),
                       options_.nbThreads, runShare);

    // Sequential merge in trajectory order: the aggregate is bit-identical
    // for every thread count.
    if (!marginals.empty()) {
      std::vector<T> mean(std::size_t{1} << marginalPositions_.size(), T(0));
      for (const auto& marginal : marginals) {
        for (std::size_t i = 0; i < mean.size(); ++i) {
          mean[i] += marginal[i];
        }
      }
      const T scale = T(1) / static_cast<T>(total);
      for (T& value : mean) value *= scale;
      result.meanMarginal_ = std::move(mean);
    }
    return result;
  }

 private:
  /// Per-trajectory scratch reused across channel applications.
  struct Scratch {
    std::vector<double> probs;   ///< branch probabilities per Kraus operator
    std::vector<C> entries;      ///< cached 2x2 entries per Kraus operator
  };

  void initState(std::vector<C>& state, const std::string& bits) const {
    std::fill(state.begin(), state.end(), C(0));
    std::size_t index = 0;
    for (char bit : bits) index = (index << 1) | (bit == '1' ? 1 : 0);
    state[index] = C(1);
  }

  void runOne(std::vector<C>& state, random::Rng& rng, Scratch& scratch,
              std::string& outcomes) const {
    for (const sim::ProgramStep<T>& step : program_.steps) {
      if (step.isRun()) {
        sim::applyRun(state, nbQubits_, step, backend_,
                      [&](const sim::GateRef<T>& ref) {
                        if (!model_.gateNoise) return;
                        for (int qubit : ref.gate->qubits()) {
                          sampleChannel(state, *model_.gateNoise,
                                        qubit + ref.offset, rng, scratch);
                        }
                      });
      } else if (step.reset) {
        if (sampleAndCollapse(state, step.qubit, rng) == 1) {
          sim::apply1(state, nbQubits_, step.qubit, step.v);
        }
      } else {
        if (step.rotates()) {
          sim::apply1(state, nbQubits_, step.qubit, step.vDagger);
        }
        // Readout noise acts in the measurement frame — after V†, before
        // the projective sample (same ordering as the fixed density-matrix
        // simulator).
        if (model_.measurementNoise) {
          sampleChannel(state, *model_.measurementNoise, step.qubit, rng,
                        scratch);
        }
        const int outcome = sampleAndCollapse(state, step.qubit, rng);
        if (step.rotates()) sim::apply1(state, nbQubits_, step.qubit, step.v);
        outcomes.push_back(outcome == 0 ? '0' : '1');
      }
    }
  }

  /// Samples one Kraus operator of `channel` on `qubit` with probability
  /// ||K_i psi||^2 and applies K_i / sqrt(p_i).  The branch norms are
  /// serial fixed-order sums so the sampled index never depends on thread
  /// count.
  void sampleChannel(std::vector<C>& state, const KrausChannel<T>& channel,
                     int qubit, random::Rng& rng, Scratch& scratch) const {
    obs::metrics().add(obs::Counter::kNoiseChannels);
    const auto& ops = channel.operators();
    if (ops.size() == 1) {
      // Completeness makes a lone Kraus operator unitary: apply directly.
      sim::apply1(state, nbQubits_, qubit, ops.front());
      return;
    }
    const std::size_t nbOps = ops.size();
    scratch.entries.resize(4 * nbOps);
    for (std::size_t i = 0; i < nbOps; ++i) {
      scratch.entries[4 * i + 0] = ops[i](0, 0);
      scratch.entries[4 * i + 1] = ops[i](0, 1);
      scratch.entries[4 * i + 2] = ops[i](1, 0);
      scratch.entries[4 * i + 3] = ops[i](1, 1);
    }
    scratch.probs.assign(nbOps, 0.0);
    const int pos = util::bitPosition(qubit, nbQubits_);
    const std::int64_t half = std::int64_t{1} << (nbQubits_ - 1);
    for (std::int64_t base = 0; base < half; ++base) {
      const util::index_t i0 =
          util::insertZeroBit(static_cast<util::index_t>(base), pos);
      const util::index_t i1 = util::setBit(i0, pos);
      const C a0 = state[i0];
      const C a1 = state[i1];
      for (std::size_t i = 0; i < nbOps; ++i) {
        const C* k = &scratch.entries[4 * i];
        scratch.probs[i] +=
            static_cast<double>(std::norm(k[0] * a0 + k[1] * a1) +
                                std::norm(k[2] * a0 + k[3] * a1));
      }
    }
    double total = 0.0;
    for (double p : scratch.probs) total += p;
    const double r = rng.uniform() * total;
    std::size_t chosen = nbOps;
    double cumulative = 0.0;
    for (std::size_t i = 0; i < nbOps; ++i) {
      cumulative += scratch.probs[i];
      if (r < cumulative) {
        chosen = i;
        break;
      }
    }
    if (chosen == nbOps) {
      // Rounding pushed r to the top of the CDF: take the last branch
      // with nonzero probability.
      chosen = nbOps - 1;
      while (chosen > 0 && scratch.probs[chosen] <= 0.0) --chosen;
    }
    const T scale =
        T(1) / std::sqrt(static_cast<T>(scratch.probs[chosen]));
    const dense::Matrix<T> scaled = ops[chosen] * C(scale);
    sim::apply1(state, nbQubits_, qubit, scaled);
  }

  /// Projective Z sample of `qubit` + collapse.  Both outcome weights
  /// come from one serial fixed-order walk (sim::measureWeights adds one
  /// partial per thread, so its bits vary with the thread count —
  /// unusable here); the draw is against their sum, so a state whose
  /// norm drifted never picks an outcome it has no weight for, and the
  /// chosen branch is renormalized by its own weight.
  int sampleAndCollapse(std::vector<C>& state, int qubit,
                        random::Rng& rng) const {
    const int pos = util::bitPosition(qubit, nbQubits_);
    const std::int64_t half = std::int64_t{1} << (nbQubits_ - 1);
    const util::index_t bit = util::index_t{1} << pos;
    T weights[2] = {T(0), T(0)};
    for (std::int64_t base = 0; base < half; ++base) {
      const util::index_t i0 =
          util::insertZeroBit(static_cast<util::index_t>(base), pos);
      weights[0] += std::norm(state[i0]);
      weights[1] += std::norm(state[i0 | bit]);
    }
    const double p0 =
        static_cast<double>(weights[0] / (weights[0] + weights[1]));
    int outcome = rng.uniform() < p0 ? 0 : 1;
    if (!(weights[outcome] > T(0))) outcome = 1 - outcome;
    sim::collapse(state, nbQubits_, qubit, outcome, weights[outcome]);
    return outcome;
  }

  /// Outcome distribution of `state` over the marginal qubits (serial).
  std::vector<T> marginalOf(const std::vector<C>& state) const {
    std::vector<T> probs(std::size_t{1} << marginalPositions_.size(), T(0));
    for (std::size_t i = 0; i < state.size(); ++i) {
      util::index_t outcome = 0;
      for (int pos : marginalPositions_) {
        outcome = (outcome << 1) |
                  util::getBit(static_cast<util::index_t>(i), pos);
      }
      probs[outcome] += std::norm(state[i]);
    }
    return probs;
  }

  QCircuit<T> circuit_;  ///< deep copy: the program's gate pointers stay valid
  NoiseModel<T> model_;
  TrajectoryOptions options_;
  int nbQubits_;
  const sim::Backend<T>& backend_;
  sim::Program<T> program_;
  std::vector<int> marginalPositions_;
};

/// Convenience: runs `nbTrajectories` unravellings of `circuit` from
/// |bits> under `model` with default options.
template <typename T>
TrajectoryResult<T> simulateTrajectories(const QCircuit<T>& circuit,
                                         const std::string& bits,
                                         const NoiseModel<T>& model,
                                         TrajectoryOptions options = {}) {
  const TrajectorySimulator<T> simulator(circuit, model, std::move(options));
  return simulator.run(bits);
}

}  // namespace qclab::noise
