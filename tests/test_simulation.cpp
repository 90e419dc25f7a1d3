/// \file test_simulation.cpp
/// \brief Unit tests for the branching Simulation object: branch
/// bookkeeping, counts / countsMap sampling, reduced states, resets, and
/// basis measurements.

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace qclab {
namespace {

using C = std::complex<double>;
using namespace qclab::qgates;

TEST(Simulation, NoMeasurementSingleBranch) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  const auto simulation = circuit.simulate("00");
  EXPECT_EQ(simulation.nbBranches(), 1u);
  EXPECT_EQ(simulation.result(0), "");
  EXPECT_NEAR(simulation.probability(0), 1.0, 1e-15);
  EXPECT_EQ(simulation.nbMeasurements(), 0u);
  EXPECT_EQ(simulation.counts(100), std::vector<std::uint64_t>{100});
}

TEST(Simulation, DeterministicMeasurementSingleBranch) {
  QCircuit<double> circuit(1);
  circuit.push_back(PauliX<double>(0));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("0");
  ASSERT_EQ(simulation.nbBranches(), 1u);
  EXPECT_EQ(simulation.result(0), "1");
  EXPECT_NEAR(simulation.probability(0), 1.0, 1e-14);
}

TEST(Simulation, BranchOrderZeroFirst) {
  QCircuit<double> circuit(1);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("0");
  ASSERT_EQ(simulation.nbBranches(), 2u);
  EXPECT_EQ(simulation.result(0), "0");
  EXPECT_EQ(simulation.result(1), "1");
}

TEST(Simulation, ProbabilitiesSumToOne) {
  auto circuit = qclab::test::randomCircuit<double>(3, 15, 3);
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  circuit.push_back(Measurement<double>(2));
  const auto simulation = circuit.simulate("000");
  double total = 0.0;
  for (double p : simulation.probabilities()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-10);
  for (const auto& state : simulation.states()) {
    EXPECT_NEAR(dense::norm2(state), 1.0, 1e-12);
  }
}

TEST(Simulation, RepeatedMeasurementIsIdempotent) {
  QCircuit<double> circuit(1);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("0");
  // Second measurement is deterministic on each branch: no further split.
  ASSERT_EQ(simulation.nbBranches(), 2u);
  EXPECT_EQ(simulation.result(0), "00");
  EXPECT_EQ(simulation.result(1), "11");
  EXPECT_NEAR(simulation.probability(0), 0.5, 1e-14);
}

TEST(Simulation, MidCircuitMeasurementThenGates) {
  // Measure, then entangle downstream: branches evolve independently.
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(CX<double>(0, 1));
  const auto simulation = circuit.simulate("00");
  ASSERT_EQ(simulation.nbBranches(), 2u);
  // Branch '0': state |00>; branch '1': state |11>.
  qclab::test::expectStateNear(simulation.state(0), basisState<double>("00"));
  qclab::test::expectStateNear(simulation.state(1), basisState<double>("11"));
}

TEST(Simulation, XBasisMeasurementOfPlusStateIsDeterministic) {
  QCircuit<double> circuit(1);
  circuit.push_back(Hadamard<double>(0));         // |+>
  circuit.push_back(Measurement<double>(0, 'x'));  // deterministic in X
  const auto simulation = circuit.simulate("0");
  ASSERT_EQ(simulation.nbBranches(), 1u);
  EXPECT_EQ(simulation.result(0), "0");
  // Post-measurement state is |+> again (basis change reverted).
  const double h = 1.0 / std::sqrt(2.0);
  qclab::test::expectStateNear(simulation.state(0),
                               std::vector<C>{C(h), C(h)});
}

TEST(Simulation, YBasisMeasurementOfEigenstate) {
  // (1, i)/sqrt(2) is the +1 eigenstate of Y.
  const double h = 1.0 / std::sqrt(2.0);
  QCircuit<double> circuit(1);
  circuit.push_back(Measurement<double>(0, 'y'));
  const auto simulation = circuit.simulate(std::vector<C>{C(h), C(0, h)});
  ASSERT_EQ(simulation.nbBranches(), 1u);
  EXPECT_EQ(simulation.result(0), "0");
}

TEST(Simulation, CustomBasisMeasurement) {
  // Custom basis = X basis given explicitly as a matrix.
  const double h = 1.0 / std::sqrt(2.0);
  dense::Matrix<double> xBasis{{h, h}, {h, -h}};
  QCircuit<double> circuit(1);
  circuit.push_back(Measurement<double>(0, xBasis));
  const auto plus = std::vector<C>{C(h), C(h)};
  const auto simulation = circuit.simulate(plus);
  ASSERT_EQ(simulation.nbBranches(), 1u);
  EXPECT_EQ(simulation.result(0), "0");
}

TEST(Simulation, CountsAreDeterministicPerSeed) {
  QCircuit<double> circuit(1);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("0");
  const auto a = simulation.counts(1000, 42);
  const auto b = simulation.counts(1000, 42);
  EXPECT_EQ(a, b);
  const auto c = simulation.counts(1000, 43);
  EXPECT_NE(a, c);
}

TEST(Simulation, CountsSumAndDistribution) {
  QCircuit<double> circuit(1);
  circuit.push_back(RotationY<double>(0, 2.0 * std::acos(std::sqrt(0.8))));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("0");
  // P(0) = 0.8.
  const auto counts = simulation.counts(100000, 7);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0] + counts[1], 100000u);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 100000.0, 0.8, 0.01);
}

TEST(Simulation, CountsIncludeImpossibleOutcomes) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  const auto simulation = circuit.simulate("00");
  const auto counts = simulation.counts(1000, 1);
  ASSERT_EQ(counts.size(), 4u);  // all 2^2 outcomes listed
  EXPECT_EQ(counts[1], 0u);      // '01' impossible
  EXPECT_EQ(counts[2], 0u);      // '10' impossible
  EXPECT_EQ(counts[0] + counts[3], 1000u);
}

TEST(Simulation, CountsMapOnlyObservedOutcomes) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  const auto simulation = circuit.simulate("00");
  const auto counts = simulation.countsMap(1000, 1);
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_TRUE(counts.count("00"));
  EXPECT_TRUE(counts.count("11"));
  std::uint64_t total = 0;
  for (const auto& [result, count] : counts) total += count;
  EXPECT_EQ(total, 1000u);
}

TEST(Simulation, ResetProducesZeroOnAllBranches) {
  QCircuit<double> circuit(1);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(Reset<double>(0));
  const auto simulation = circuit.simulate("0");
  // Reset records no outcome; each branch holds |0>.
  for (std::size_t i = 0; i < simulation.nbBranches(); ++i) {
    EXPECT_EQ(simulation.result(i), "");
    qclab::test::expectStateNear(simulation.state(i),
                                 basisState<double>("0"));
  }
  double total = 0.0;
  for (double p : simulation.probabilities()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-14);
}

TEST(Simulation, ResetEnablesQubitReuse) {
  // Entangle, reset one qubit, reuse it: measuring it afterwards gives 0.
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Reset<double>(0));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("00");
  for (std::size_t i = 0; i < simulation.nbBranches(); ++i) {
    EXPECT_EQ(simulation.result(i), "0");
  }
}

TEST(Simulation, ReducedStatesAfterPartialEndMeasurement) {
  // Measure only qubit 0 of a product state: reduced state of qubit 1
  // survives.
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(1));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("00");
  const auto reduced = simulation.reducedStates();
  ASSERT_EQ(reduced.size(), 1u);
  const double h = 1.0 / std::sqrt(2.0);
  qclab::test::expectStateNear(reduced[0], std::vector<C>{C(h), C(h)});
}

TEST(Simulation, ReducedStatesAllMeasured) {
  QCircuit<double> circuit(1);
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("0");
  const auto reduced = simulation.reducedStates();
  ASSERT_EQ(reduced.size(), 1u);
  ASSERT_EQ(reduced[0].size(), 1u);  // scalar
  EXPECT_NEAR(std::abs(reduced[0][0]), 1.0, 1e-14);
}

TEST(Simulation, OutcomeWithNoAmplitudeIsPrunedWhenTheNormHasDrifted) {
  // Qubit 0 exactly |0>, but the branch's norm^2 drifted to 1 - 1e-12:
  // outcome 1 has no amplitude, so measuring must not spawn a branch for
  // it (taking P(1) as 1 - P(0) would give one at probability 1e-12 with
  // an all-zero state).
  const double a = std::sqrt((1.0 - 1e-12) / 2.0);
  Simulation<double> simulation(2, std::vector<C>{a, a, 0.0, 0.0});
  sim::ProgramStep<double> measure;
  measure.qubit = 0;
  sim::splitBranches(simulation, measure);
  ASSERT_EQ(simulation.nbBranches(), 1u);
  EXPECT_EQ(simulation.result(0), "0");
  EXPECT_EQ(simulation.probability(0), 1.0);
  EXPECT_NEAR(dense::norm2(simulation.state(0)), 1.0, 1e-15);
}

TEST(Simulation, BranchCountGrowsGeometrically) {
  QCircuit<double> circuit(4);
  for (int q = 0; q < 4; ++q) circuit.push_back(Hadamard<double>(q));
  for (int q = 0; q < 4; ++q) circuit.push_back(Measurement<double>(q));
  const auto simulation = circuit.simulate("0000");
  EXPECT_EQ(simulation.nbBranches(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(simulation.probability(i), 1.0 / 16.0, 1e-12);
  }
}

class ShotSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShotSweep, CountsAlwaysSumToShots) {
  const auto shots = GetParam();
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(Hadamard<double>(1));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  const auto simulation = circuit.simulate("00");
  const auto counts = simulation.counts(shots, 5);
  std::uint64_t total = 0;
  for (auto count : counts) total += count;
  EXPECT_EQ(total, shots);
}

INSTANTIATE_TEST_SUITE_P(Shots, ShotSweep,
                         ::testing::Values(std::uint64_t{0},
                                           std::uint64_t{1},
                                           std::uint64_t{17},
                                           std::uint64_t{1000},
                                           std::uint64_t{100000}));

}  // namespace
}  // namespace qclab
