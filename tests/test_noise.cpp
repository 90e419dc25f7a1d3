/// \file test_noise.cpp
/// \brief Unit tests for the noise extension: Kraus channels, the density
/// matrix state, and noisy circuit simulation — including the repetition
/// code suppressing bit-flip noise (paper §5.4 made quantitative).

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace qclab::noise {
namespace {

using C = std::complex<double>;
using M = dense::Matrix<double>;

std::vector<C> paperV() {
  const double h = 1.0 / std::sqrt(2.0);
  return {C(h, 0.0), C(0.0, h)};
}

TEST(KrausChannel, FactoriesAreTracePreserving) {
  // Construction itself validates sum K^H K = I.
  EXPECT_NO_THROW(KrausChannel<double>::identity());
  EXPECT_NO_THROW(KrausChannel<double>::bitFlip(0.3));
  EXPECT_NO_THROW(KrausChannel<double>::phaseFlip(0.9));
  EXPECT_NO_THROW(KrausChannel<double>::bitPhaseFlip(0.5));
  EXPECT_NO_THROW(KrausChannel<double>::depolarizing(0.7));
  EXPECT_NO_THROW(KrausChannel<double>::amplitudeDamping(0.4));
  EXPECT_NO_THROW(KrausChannel<double>::phaseDamping(0.2));
}

TEST(KrausChannel, Validation) {
  EXPECT_THROW(KrausChannel<double>::bitFlip(-0.1), InvalidArgumentError);
  EXPECT_THROW(KrausChannel<double>::bitFlip(1.1), InvalidArgumentError);
  EXPECT_THROW(KrausChannel<double>({}), InvalidArgumentError);
  // Non-trace-preserving set rejected.
  EXPECT_THROW(KrausChannel<double>({dense::pauliX<double>() * C(0.5)}),
               InvalidArgumentError);
  EXPECT_EQ(KrausChannel<double>::bitFlip(0.1).nbQubits(), 1);
}

TEST(DensityMatrix, PureStateConstruction) {
  const DensityMatrix<double> rho("01");
  EXPECT_EQ(rho.nbQubits(), 2);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-14);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-14);
  EXPECT_NEAR(std::abs(rho.matrix()(1, 1) - C(1)), 0.0, 1e-14);

  const DensityMatrix<double> fromVector(paperV());
  EXPECT_EQ(fromVector.nbQubits(), 1);
  EXPECT_NEAR(fromVector.fidelityWith(paperV()), 1.0, 1e-14);
}

TEST(DensityMatrix, GateConjugationMatchesPureEvolution) {
  // For a pure state, U rho U^H == |U psi><U psi|.
  random::Rng rng(1);
  const auto circuit = qclab::test::randomCircuit<double>(3, 15, 4);
  const auto psi0 = qclab::test::randomState<double>(3, rng);
  DensityMatrix<double> rho(psi0);
  for (const auto& object : circuit) {
    rho.applyGate(static_cast<const qgates::QGate<double>&>(*object));
  }
  const auto psi1 = circuit.simulate(psi0).state(0);
  qclab::test::expectMatrixNear(rho.matrix(), dense::outer(psi1, psi1),
                                1e-11);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-11);
}

TEST(DensityMatrix, BitFlipChannelAction) {
  // rho = |0><0| under bit flip p: diag(1-p, p).
  DensityMatrix<double> rho("0");
  rho.applyChannel(KrausChannel<double>::bitFlip(0.2), {0});
  EXPECT_NEAR(std::real(rho.matrix()(0, 0)), 0.8, 1e-14);
  EXPECT_NEAR(std::real(rho.matrix()(1, 1)), 0.2, 1e-14);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-14);
}

TEST(DensityMatrix, DepolarizingDrivesToMaximallyMixed) {
  DensityMatrix<double> rho("0");
  rho.applyChannel(KrausChannel<double>::depolarizing(1.0), {0});
  auto half = M::identity(2);
  half *= C(0.5);
  qclab::test::expectMatrixNear(rho.matrix(), half, 1e-13);
  EXPECT_NEAR(rho.purity(), 0.5, 1e-13);
}

TEST(DensityMatrix, AmplitudeDampingDecaysToGround) {
  DensityMatrix<double> rho("1");
  rho.applyChannel(KrausChannel<double>::amplitudeDamping(1.0), {0});
  EXPECT_NEAR(std::real(rho.matrix()(0, 0)), 1.0, 1e-14);
  // Partial damping.
  DensityMatrix<double> partial("1");
  partial.applyChannel(KrausChannel<double>::amplitudeDamping(0.3), {0});
  EXPECT_NEAR(std::real(partial.matrix()(1, 1)), 0.7, 1e-14);
}

TEST(DensityMatrix, PhaseDampingKillsCoherence) {
  const double h = 1.0 / std::sqrt(2.0);
  DensityMatrix<double> rho(std::vector<C>{C(h), C(h)});
  rho.applyChannel(KrausChannel<double>::phaseDamping(1.0), {0});
  EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.0, 1e-14);
  EXPECT_NEAR(std::real(rho.matrix()(0, 0)), 0.5, 1e-14);
}

TEST(DensityMatrix, ChannelOnOneQubitOfMany) {
  // Bit flip on qubit 1 of |00>: |00> -> (1-p)|00> + p|01>.
  DensityMatrix<double> rho("00");
  rho.applyChannel(KrausChannel<double>::bitFlip(0.25), {1});
  EXPECT_NEAR(std::real(rho.matrix()(0, 0)), 0.75, 1e-14);
  EXPECT_NEAR(std::real(rho.matrix()(1, 1)), 0.25, 1e-14);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-14);
}

TEST(DensityMatrix, DephaseMatchesMeasurementStatistics) {
  const double h = 1.0 / std::sqrt(2.0);
  DensityMatrix<double> rho(std::vector<C>{C(h), C(h)});
  rho.dephase(0);
  EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.0, 1e-14);
  EXPECT_NEAR(rho.probability0(0), 0.5, 1e-14);
}

TEST(DensityMatrix, CollapseAndReset) {
  const auto bell = algorithms::bellState<double>();
  DensityMatrix<double> rho(bell);
  const double p = rho.collapse(0, 1);
  EXPECT_NEAR(p, 0.5, 1e-14);
  // Collapsed to |11>.
  EXPECT_NEAR(std::real(rho.matrix()(3, 3)), 1.0, 1e-13);

  DensityMatrix<double> toReset(bell);
  toReset.reset(0);
  // Qubit 0 in |0>; qubit 1 stays mixed.
  EXPECT_NEAR(toReset.probability0(0), 1.0, 1e-13);
  EXPECT_NEAR(toReset.probability0(1), 0.5, 1e-13);
  EXPECT_NEAR(toReset.trace(), 1.0, 1e-13);
}

TEST(DensityMatrix, CollapseOntoAnOutcomeWithNoWeightThrows) {
  // Trace 1 - 1e-13, all of it on |0>: outcome 1 has no weight, whatever
  // 1 - p0 says.
  M diag(2, 2);
  diag(0, 0) = C(1.0 - 1e-13);
  DensityMatrix<double> rho(1, diag);
  EXPECT_THROW(rho.collapse(0, 1), InvalidArgumentError);
  // Outcome 0 is renormalized by its own weight.
  EXPECT_EQ(rho.collapse(0, 0), 1.0 - 1e-13);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-15);
}

TEST(NoiselessDensitySimulation, MatchesStateVector) {
  auto circuit = qclab::test::randomCircuit<double>(3, 12, 9);
  const auto rho = simulateDensity(circuit, "000");
  const auto psi = circuit.simulate("000").state(0);
  qclab::test::expectMatrixNear(rho.matrix(), dense::outer(psi, psi), 1e-11);
}

TEST(NoiselessDensitySimulation, MeasurementDephasesBranches) {
  // H + measure: the density matrix becomes the classical mixture
  // (|0><0| + |1><1|)/2.
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));
  const auto rho = simulateDensity(circuit, "0");
  auto half = M::identity(2);
  half *= C(0.5);
  qclab::test::expectMatrixNear(rho.matrix(), half, 1e-13);
}

TEST(NoiselessDensitySimulation, XBasisMeasurementPreservesPlus) {
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0, 'x'));
  const auto rho = simulateDensity(circuit, "0");
  // |+> is an X eigenstate: the measurement leaves it pure.
  EXPECT_NEAR(rho.purity(), 1.0, 1e-13);
}

TEST(NoisySimulation, GateNoiseReducesPurity) {
  QCircuit<double> circuit(2);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(qgates::CX<double>(0, 1));
  const auto noisy = simulateDensity(circuit, "00",
                                     NoiseModel<double>::depolarizing(0.05));
  EXPECT_LT(noisy.purity(), 1.0 - 1e-4);
  EXPECT_NEAR(noisy.trace(), 1.0, 1e-12);
  // Fidelity with the ideal Bell state drops but stays dominant.
  const double fidelity = noisy.fidelityWith(algorithms::bellState<double>());
  EXPECT_GT(fidelity, 0.8);
  EXPECT_LT(fidelity, 1.0);
}

/// The headline QEC property: encoding + syndrome correction suppresses
/// bit-flip noise from O(p) to O(p^2).
TEST(NoisySimulation, RepetitionCodeSuppressesBitFlips) {
  const auto v = paperV();
  const double p = 0.05;
  const auto channel = KrausChannel<double>::bitFlip(p);

  // Unprotected qubit: fidelity 1 - p.
  DensityMatrix<double> bare(v);
  bare.applyChannel(channel, {0});
  EXPECT_NEAR(bare.fidelityWith(v), 1.0 - p, 1e-12);

  // Encoded qubit: noise on each data qubit, then syndrome + correction.
  DensityMatrix<double> encoded(dense::kron(v, basisState<double>("0000")));
  const auto encoder = algorithms::repetitionEncoder<double>(5);
  simulateDensity(encoder, encoded);
  for (int q = 0; q < 3; ++q) encoded.applyChannel(channel, {q});
  const auto corrector = algorithms::repetitionSyndromeAndCorrect<double>();
  simulateDensity(corrector, encoded);

  // Logical fidelity: data qubits back in alpha|000> + beta|111|, ancillas
  // traced out implicitly by comparing against each syndrome... simplest:
  // fidelity of the reduced data state with the logical state.
  const auto dataRho =
      density::partialTrace(encoded.matrix(), 5, {3, 4});
  std::vector<C> logical(8);
  logical[0] = v[0];
  logical[7] = v[1];
  const double logicalFidelity = density::fidelity(logical, dataRho);

  // 1 - F_logical ~ 3p^2 - 2p^3 << p.
  const double expectedError = 3 * p * p - 2 * p * p * p;
  EXPECT_NEAR(1.0 - logicalFidelity, expectedError, 1e-10);
  EXPECT_LT(1.0 - logicalFidelity, p / 2);
}

TEST(NoisySimulation, RepetitionCodeBreaksAboveHalf) {
  // At p = 0.5 the code cannot help: logical error = 0.5.
  const auto v = paperV();
  const auto channel = KrausChannel<double>::bitFlip(0.5);
  DensityMatrix<double> encoded(dense::kron(v, basisState<double>("0000")));
  simulateDensity(algorithms::repetitionEncoder<double>(5), encoded);
  for (int q = 0; q < 3; ++q) encoded.applyChannel(channel, {q});
  simulateDensity(algorithms::repetitionSyndromeAndCorrect<double>(),
                  encoded);
  const auto dataRho = density::partialTrace(encoded.matrix(), 5, {3, 4});
  std::vector<C> logical(8);
  logical[0] = v[0];
  logical[7] = v[1];
  EXPECT_NEAR(density::fidelity(logical, dataRho), 0.5, 1e-10);
}

class ChannelSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelSweep, AllChannelsPreserveTraceOnRandomStates) {
  const double p = GetParam();
  random::Rng rng(7);
  const auto psi = qclab::test::randomState<double>(2, rng);
  for (const auto& channel :
       {KrausChannel<double>::bitFlip(p), KrausChannel<double>::phaseFlip(p),
        KrausChannel<double>::bitPhaseFlip(p),
        KrausChannel<double>::depolarizing(p),
        KrausChannel<double>::amplitudeDamping(p),
        KrausChannel<double>::phaseDamping(p)}) {
    DensityMatrix<double> rho(psi);
    rho.applyChannel(channel, {1});
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_TRUE(density::isDensityMatrix(rho.matrix(), 1e-10));
    EXPECT_LE(rho.purity(), 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ChannelSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.9, 1.0));

TEST(DensityMatrix, ProbabilitiesOverQubits) {
  const auto bell = algorithms::bellState<double>();
  const DensityMatrix<double> rho(bell);
  const auto joint = rho.probabilities({0, 1});
  ASSERT_EQ(joint.size(), 4u);
  EXPECT_NEAR(joint[0], 0.5, 1e-14);
  EXPECT_NEAR(joint[3], 0.5, 1e-14);
  EXPECT_NEAR(joint[1], 0.0, 1e-14);
  const auto single = rho.probabilities({1});
  EXPECT_NEAR(single[0], 0.5, 1e-14);
}

TEST(KrausChannel, ReadoutConfusionMatrix) {
  // readout(p01, p10) implements the classical confusion matrix on
  // diagonal states: |0> reads 1 with probability p01, |1> reads 0 with
  // probability p10.
  const auto channel = KrausChannel<double>::readout(0.1, 0.3);
  EXPECT_EQ(channel.nbQubits(), 1);

  DensityMatrix<double> ground("0");
  ground.applyChannel(channel, {0});
  auto probs = ground.probabilities({0});
  EXPECT_NEAR(probs[0], 0.9, 1e-12);
  EXPECT_NEAR(probs[1], 0.1, 1e-12);

  DensityMatrix<double> excited("1");
  excited.applyChannel(channel, {0});
  probs = excited.probabilities({0});
  EXPECT_NEAR(probs[0], 0.3, 1e-12);
  EXPECT_NEAR(probs[1], 0.7, 1e-12);
}

TEST(KrausChannel, ReadoutSymmetricAndValidation) {
  // Single-argument overload is the symmetric case.
  DensityMatrix<double> rho("0");
  rho.applyChannel(KrausChannel<double>::readout(0.25), {0});
  const auto probs = rho.probabilities({0});
  EXPECT_NEAR(probs[1], 0.25, 1e-12);

  EXPECT_THROW(KrausChannel<double>::readout(-0.1, 0.5), InvalidArgumentError);
  EXPECT_THROW(KrausChannel<double>::readout(0.5, 1.1), InvalidArgumentError);
  EXPECT_NO_THROW(KrausChannel<double>::readout(0.0, 1.0));
}

TEST(NoisySimulation, ZBasisReadoutNoiseCorruptsRecordedOutcome) {
  // |1> measured in the computational basis with readout(0, p10) must
  // report 0 with probability p10.
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::PauliX<double>(0));
  circuit.push_back(Measurement<double>(0));

  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::readout(0.0, 0.25);

  const auto rho = simulateDensity(circuit, "0", model);
  const auto probs = rho.probabilities({0});
  EXPECT_NEAR(probs[0], 0.25, 1e-12);
  EXPECT_NEAR(probs[1], 0.75, 1e-12);
}

TEST(NoisySimulation, MeasurementNoiseActsInMeasurementBasis) {
  // Regression for the ordering bug: measurementNoise must act AFTER the
  // basis change V^H, i.e. in the measurement frame.  For an X-basis
  // measurement of |+> with bit-flip readout noise, the recorded
  // distribution is {1-p, p}; with the old (pre-V^H) ordering the
  // bit-flip channel commuted with the X measurement and the corruption
  // silently vanished.
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0, 'x'));
  circuit.push_back(qgates::Hadamard<double>(0));  // map X frame to Z frame

  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::bitFlip(0.2);

  const auto rho = simulateDensity(circuit, "0", model);
  const auto probs = rho.probabilities({0});
  EXPECT_NEAR(probs[0], 0.8, 1e-12);
  EXPECT_NEAR(probs[1], 0.2, 1e-12);
}

TEST(NoisySimulation, GateNoiseAppliedOncePerQubitOfMultiQubitGate) {
  // A two-qubit gate under gate noise must trigger exactly one channel
  // application per distinct qubit it touches.
  obs::metrics().reset();
  QCircuit<double> circuit(2);
  circuit.push_back(qgates::CX<double>(0, 1));

  NoiseModel<double> model;
  model.gateNoise = KrausChannel<double>::depolarizing(0.1);
  const auto rho = simulateDensity(circuit, "00", model);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  if (obs::kEnabled) {
    EXPECT_EQ(obs::metrics().noiseChannelApplications(), 2u);
  }

  // A gate can never list the same qubit twice, so "noise applied twice
  // to one qubit" cannot arise from circuit construction.
  EXPECT_THROW(qgates::CX<double>(1, 1), InvalidArgumentError);
}

}  // namespace
}  // namespace qclab::noise
