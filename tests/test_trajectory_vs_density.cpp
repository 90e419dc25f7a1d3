/// \file test_trajectory_vs_density.cpp
/// \brief Differential tests: trajectory-averaged outcome distributions
/// must converge to the density-matrix diagonal for every KrausChannel
/// factory on 2–5 and 8 qubit circuits (seeded, fixed trajectory count, so
/// the runs are reproducible and the statistical tolerance is safe).

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "qclab/qclab.hpp"
#include "test_helpers.hpp"

namespace qclab {
namespace {

using noise::DensityMatrix;
using noise::KrausChannel;
using noise::NoiseModel;
using noise::TrajectoryOptions;
using noise::TrajectorySimulator;

constexpr std::size_t kTrajectories = 3000;
// Per-trajectory marginals lie in [0, 1], so the standard error of the
// mean is at most 0.5 / sqrt(N) ~ 0.009; 0.05 is > 5 sigma.
constexpr double kStatTol = 0.05;

std::vector<int> allQubits(int n) {
  std::vector<int> qubits(static_cast<std::size_t>(n));
  std::iota(qubits.begin(), qubits.end(), 0);
  return qubits;
}

/// Runs `circuit` under `model` through both simulators and compares the
/// trajectory-averaged distribution with the density-matrix diagonal.
void expectTrajectoryMatchesDensity(const QCircuit<double>& circuit,
                                    const NoiseModel<double>& model,
                                    std::uint64_t seed) {
  const int n = circuit.nbQubits();
  const std::string zeros(static_cast<std::size_t>(n), '0');

  const DensityMatrix<double> rho =
      noise::simulateDensity(circuit, zeros, model);
  const std::vector<double> expected = rho.probabilities(allQubits(n));

  TrajectoryOptions options;
  options.seed = seed;
  options.nbTrajectories = kTrajectories;
  options.marginalQubits = allQubits(n);
  const TrajectorySimulator<double> simulator(circuit, model, options);
  const auto result = simulator.run(zeros);
  const std::vector<double>& actual = result.probabilities();

  ASSERT_EQ(actual.size(), expected.size());
  double totalActual = 0.0;
  double totalExpected = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], kStatTol)
        << "outcome index " << i << " of " << actual.size();
    totalActual += actual[i];
    totalExpected += expected[i];
  }
  EXPECT_NEAR(totalActual, 1.0, 1e-9);
  EXPECT_NEAR(totalExpected, 1.0, 1e-9);
}

/// An entangling circuit with a mid-circuit measurement so that gate noise,
/// measurement noise, and collapse all participate.
QCircuit<double> ghzWithMeasurement(int n) {
  QCircuit<double> circuit(n);
  circuit.push_back(qgates::Hadamard<double>(0));
  for (int q = 1; q < n; ++q) {
    circuit.push_back(qgates::CX<double>(q - 1, q));
  }
  circuit.push_back(Measurement<double>(0));
  return circuit;
}

QCircuit<double> excitedCircuit(int n) {
  QCircuit<double> circuit(n);
  for (int q = 0; q < n; ++q) {
    circuit.push_back(qgates::PauliX<double>(q));
  }
  circuit.push_back(qgates::Hadamard<double>(n - 1));
  return circuit;
}

class TrajectoryVsDensity : public ::testing::TestWithParam<int> {};

TEST_P(TrajectoryVsDensity, DepolarizingGateNoise) {
  const int n = GetParam();
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::depolarizing(0.1);
  expectTrajectoryMatchesDensity(ghzWithMeasurement(n), model, 100 + n);
}

TEST_P(TrajectoryVsDensity, BitFlipGateNoise) {
  const int n = GetParam();
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::bitFlip(0.15);
  expectTrajectoryMatchesDensity(ghzWithMeasurement(n), model, 200 + n);
}

TEST_P(TrajectoryVsDensity, PhaseFlipGateNoise) {
  const int n = GetParam();
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::phaseFlip(0.2);
  expectTrajectoryMatchesDensity(ghzWithMeasurement(n), model, 300 + n);
}

TEST_P(TrajectoryVsDensity, BitPhaseFlipGateNoise) {
  const int n = GetParam();
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::bitPhaseFlip(0.1);
  expectTrajectoryMatchesDensity(ghzWithMeasurement(n), model, 400 + n);
}

TEST_P(TrajectoryVsDensity, AmplitudeDampingGateNoise) {
  const int n = GetParam();
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::amplitudeDamping(0.25);
  expectTrajectoryMatchesDensity(excitedCircuit(n), model, 500 + n);
}

TEST_P(TrajectoryVsDensity, PhaseDampingGateNoise) {
  const int n = GetParam();
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::phaseDamping(0.3);
  expectTrajectoryMatchesDensity(ghzWithMeasurement(n), model, 600 + n);
}

TEST_P(TrajectoryVsDensity, ReadoutMeasurementNoise) {
  const int n = GetParam();
  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::readout(0.1, 0.2);
  expectTrajectoryMatchesDensity(ghzWithMeasurement(n), model, 700 + n);
}

TEST_P(TrajectoryVsDensity, CombinedGateAndReadoutNoise) {
  const int n = GetParam();
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::depolarizing(0.05);
  model.measurementNoise = KrausChannel<double>::readout(0.05);
  expectTrajectoryMatchesDensity(ghzWithMeasurement(n), model, 800 + n);
}

TEST_P(TrajectoryVsDensity, RandomCircuitUnderDepolarizing) {
  const int n = GetParam();
  const auto circuit =
      test::randomCircuit<double>(n, 8, 900 + static_cast<std::uint64_t>(n));
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::depolarizing(0.08);
  expectTrajectoryMatchesDensity(circuit, model, 900 + n);
}

INSTANTIATE_TEST_SUITE_P(TwoToFiveQubits, TrajectoryVsDensity,
                         ::testing::Values(2, 3, 4, 5));
// A 2n = 16 qubit density register: every density kernel forks.
INSTANTIATE_TEST_SUITE_P(EightQubits, TrajectoryVsDensity,
                         ::testing::Values(8));

// ---- recorded-outcome agreement ---------------------------------------

TEST(TrajectoryVsDensityOutcomes, RepetitionCodeBitFlipStatistics) {
  // 3-qubit repetition code under bit-flip noise: encode |+>, let the
  // channel act on every gate, decode, and compare the data-qubit
  // marginal between the two simulators.
  QCircuit<double> circuit(3);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(qgates::CX<double>(0, 1));
  circuit.push_back(qgates::CX<double>(0, 2));
  circuit.push_back(qgates::CX<double>(0, 1));
  circuit.push_back(qgates::CX<double>(0, 2));
  circuit.push_back(qgates::Toffoli<double>(1, 2, 0));

  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::bitFlip(0.05);

  expectTrajectoryMatchesDensity(circuit, model, 42);
}

TEST(TrajectoryVsDensityOutcomes, XBasisReadoutNoiseMatchesDensity) {
  // Regression companion of the measurementNoise ordering fix: both
  // simulators must report the same corrupted X-basis distribution.  The
  // trailing H maps the post-measurement X eigenstates onto |0>/|1>, so
  // the density diagonal exposes the recorded distribution.
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0, 'x'));
  circuit.push_back(qgates::Hadamard<double>(0));

  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::bitFlip(0.2);

  const DensityMatrix<double> rho =
      noise::simulateDensity(circuit, "0", model);
  const auto expected = rho.probabilities({0});
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_NEAR(expected[0], 0.8, 1e-12);
  EXPECT_NEAR(expected[1], 0.2, 1e-12);

  TrajectoryOptions options;
  options.seed = 77;
  options.nbTrajectories = kTrajectories;
  const TrajectorySimulator<double> simulator(circuit, model, options);
  const auto counts = simulator.run("0").counts();
  EXPECT_NEAR(static_cast<double>(counts[1]) /
                  static_cast<double>(kTrajectories),
              expected[1], kStatTol);
}

TEST(TrajectoryVsDensityOutcomes, MeasuredCountsMatchDensityMarginal) {
  // Terminal measurements on every qubit: the empirical distribution of
  // recorded outcome strings must match the density-matrix diagonal.
  const int n = 3;
  QCircuit<double> circuit = ghzWithMeasurement(n);
  for (int q = 1; q < n; ++q) {
    circuit.push_back(Measurement<double>(q));
  }
  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::bitFlip(0.1);
  model.measurementNoise = KrausChannel<double>::readout(0.05);

  const DensityMatrix<double> rho =
      noise::simulateDensity(circuit, "000", model);
  const auto expected = rho.probabilities(allQubits(n));

  TrajectoryOptions options;
  options.seed = 55;
  options.nbTrajectories = kTrajectories;
  const TrajectorySimulator<double> simulator(circuit, model, options);
  const auto result = simulator.run("000");
  // Measurement order is qubit 0 (mid-circuit), then 0 is not re-measured:
  // outcomes are [m0, m1, m2] and index the same MSB-first distribution.
  const auto counts = result.counts();
  ASSERT_EQ(counts.size(), expected.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) /
                    static_cast<double>(kTrajectories),
                expected[i], kStatTol)
        << "outcome index " << i;
  }
}

}  // namespace
}  // namespace qclab
