/// \file test_noise.cpp
/// \brief Unit tests for the noise extension: Kraus channels, the density
/// matrix state, and noisy circuit simulation — including the repetition
/// code suppressing bit-flip noise (paper §5.4 made quantitative).  Every
/// density operation is also checked against its dense product, built
/// from the paper's sparse-Kronecker extended unitary and dense::kron.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

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

TEST(KrausChannel, FactoriesBuildInFloat) {
  // The default tolerance scales with float's epsilon; double's stays.
  EXPECT_EQ(KrausChannel<double>::kDefaultTolerance, 1e-10);
  EXPECT_NO_THROW(KrausChannel<float>::identity());
  for (const float p : {0.0f, 0.1f, 0.3f, 0.5f, 0.9f, 1.0f}) {
    EXPECT_NO_THROW(KrausChannel<float>::bitFlip(p)) << p;
    EXPECT_NO_THROW(KrausChannel<float>::phaseFlip(p)) << p;
    EXPECT_NO_THROW(KrausChannel<float>::bitPhaseFlip(p)) << p;
    EXPECT_NO_THROW(KrausChannel<float>::depolarizing(p)) << p;
    EXPECT_NO_THROW(KrausChannel<float>::amplitudeDamping(p)) << p;
    EXPECT_NO_THROW(KrausChannel<float>::phaseDamping(p)) << p;
    EXPECT_NO_THROW(KrausChannel<float>::readout(p, 1.0f - p)) << p;
  }
}

TEST(KrausChannel, NonTracePreservingSetThrowsInBothScalarTypes) {
  // A bit flip whose identity branch lost 1e-3 of its weight.
  EXPECT_THROW(
      KrausChannel<double>({dense::pauliI<double>() * C(std::sqrt(0.899)),
                            dense::pauliX<double>() * C(std::sqrt(0.1))}),
      InvalidArgumentError);
  using Cf = std::complex<float>;
  EXPECT_THROW(
      KrausChannel<float>({dense::pauliI<float>() * Cf(std::sqrt(0.899f)),
                           dense::pauliX<float>() * Cf(std::sqrt(0.1f))}),
      InvalidArgumentError);
  EXPECT_THROW(KrausChannel<float>({dense::pauliX<float>() * Cf(0.5f)}),
               InvalidArgumentError);
}

TEST(NoisySimulation, FloatBellMatchesDouble) {
  const auto bell = [](auto zero) {
    using T = decltype(zero);
    QCircuit<T> circuit(2);
    circuit.push_back(qgates::Hadamard<T>(0));
    circuit.push_back(qgates::CX<T>(0, 1));
    circuit.push_back(Measurement<T>(1));
    NoiseModel<T> model = NoiseModel<T>::depolarizing(T(0.05));
    model.measurementNoise = KrausChannel<T>::readout(T(0.02), T(0.04));
    return simulateDensity(circuit, "00", model);
  };
  const auto single = bell(0.0f);
  const auto reference = bell(0.0);
  const auto& rho = single.matrix();
  const auto& rhoRef = reference.matrix();
  ASSERT_EQ(rho.rows(), rhoRef.rows());
  for (std::size_t i = 0; i < rho.rows(); ++i) {
    for (std::size_t j = 0; j < rho.cols(); ++j) {
      EXPECT_NEAR(rho(i, j).real(), rhoRef(i, j).real(), 1e-5) << i << "," << j;
      EXPECT_NEAR(rho(i, j).imag(), rhoRef(i, j).imag(), 1e-5) << i << "," << j;
    }
  }
  EXPECT_LT(reference.purity(), 1.0 - 1e-3);
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

// ---- every density operation against its dense product ----------------

/// A random full-rank mixed state A A^H / tr(A A^H) on `n` qubits.
M randomMixedState(int n, std::uint64_t seed) {
  random::Rng rng(seed);
  const std::size_t dim = std::size_t{1} << n;
  M a(dim, dim);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = C(rng.normal(), rng.normal());
  }
  M rho = a * a.dagger();
  rho *= C(1.0 / std::real(rho.trace()));
  return rho;
}

/// I (x) op (x) I on an n-qubit register: `op` acts on the contiguous
/// qubits from `qubit` on.
M embed(int n, int qubit, const M& op) {
  const int k = util::log2PowerOfTwo(op.rows());
  return dense::kron(dense::kron(M::identity(std::size_t{1} << qubit), op),
                     M::identity(std::size_t{1} << (n - qubit - k)));
}

/// sum_i K_i rho K_i^H over full-register operators.
M krausSum(const M& rho, const std::vector<M>& ops) {
  M result(rho.rows(), rho.cols());
  for (const M& k : ops) result += k * rho * k.dagger();
  return result;
}

/// A dense two-qubit unitary: (u0 (x) u1) CX.
M denseUnitary2(random::Rng& rng) {
  return dense::kron(qclab::test::randomUnitary1<double>(rng),
                     qclab::test::randomUnitary1<double>(rng)) *
         qgates::CX<double>(0, 1).matrix();
}

TEST(DensityMatrix, EveryKernelPathMatchesTheDenseProduct) {
  random::Rng rng(11);
  const M u2 = denseUnitary2(rng);
  const M u3 = dense::kron(qclab::test::randomUnitary1<double>(rng), u2);
  std::vector<std::pair<std::unique_ptr<qgates::QGate<double>>,
                        sim::KernelPath>> gates;
  gates.emplace_back(std::make_unique<qgates::U3<double>>(0, 0.3, -1.1, 0.7),
                     sim::KernelPath::kDense1);
  gates.emplace_back(std::make_unique<qgates::RotationZ<double>>(0, 0.9),
                     sim::KernelPath::kDiagonal1);
  gates.emplace_back(std::make_unique<qgates::CX<double>>(1, 0, 0),
                     sim::KernelPath::kControlled1);
  gates.emplace_back(std::make_unique<qgates::CPhase<double>>(0, 1, 0.6),
                     sim::KernelPath::kControlledDiagonal1);
  gates.emplace_back(std::make_unique<qgates::SWAP<double>>(0, 1),
                     sim::KernelPath::kSwap);
  gates.emplace_back(std::make_unique<qgates::RotationZZ<double>>(0, 1, 0.8),
                     sim::KernelPath::kDiagonalK);
  gates.emplace_back(
      std::make_unique<qgates::MatrixGateN<double>>(std::vector<int>{0, 1}, u2),
      sim::KernelPath::kDenseK);
  gates.emplace_back(std::make_unique<qgates::MatrixGateN<double>>(
                         std::vector<int>{0, 1, 2}, u3),
                     sim::KernelPath::kDenseK);
  for (const int n : {3, 4}) {
    const M rho = randomMixedState(n, 100 + static_cast<std::uint64_t>(n));
    for (const auto& [gate, path] : gates) {
      // Pushed to the bottom of the register: a nonzero offset for every
      // gate but the three-qubit one at n = 3.
      const int offset = n - 1 - gate->qubits().back();
      SCOPED_TRACE("n=" + std::to_string(n) + " path=" +
                   sim::kernelPathName(path) + " k=" +
                   std::to_string(gate->nbQubits()));
      EXPECT_EQ(sim::classifyKernelPath(*gate), path);
      DensityMatrix<double> state(n, rho);
      state.applyGate(*gate, offset);
      const M e = sim::extendedUnitary(n, *gate, offset).toDense();
      qclab::test::expectMatrixNear(state.matrix(), krausSum(rho, {e}),
                                    1e-13);
    }
  }
}

TEST(DensityMatrix, OneAndTwoQubitChannelsMatchTheKrausSum) {
  random::Rng rng(12);
  const double p = 0.3;
  // A mixed-unitary two-qubit channel {sqrt(1-p) I, sqrt(p) U}: each
  // operator extends over any qubit pair through extendedUnitary.
  const M u = denseUnitary2(rng);
  const KrausChannel<double> mixedUnitary(
      {M::identity(4) * C(std::sqrt(1 - p)), u * C(std::sqrt(p))});
  // A non-unitary two-qubit channel: amplitude damping (x) depolarizing.
  const auto damping = KrausChannel<double>::amplitudeDamping(p);
  const auto depolarizing = KrausChannel<double>::depolarizing(p);
  std::vector<M> productOps;
  for (const M& a : damping.operators()) {
    for (const M& b : depolarizing.operators()) {
      productOps.push_back(dense::kron(a, b));
    }
  }
  const KrausChannel<double> product(productOps);
  for (const int n : {3, 4}) {
    const M rho = randomMixedState(n, 200 + static_cast<std::uint64_t>(n));
    for (int q = 0; q < n; ++q) {
      for (const auto& channel :
           {damping, depolarizing, KrausChannel<double>::readout(0.1, 0.4)}) {
        DensityMatrix<double> state(n, rho);
        state.applyChannel(channel, {q});
        std::vector<M> ops;
        for (const M& k : channel.operators()) ops.push_back(embed(n, q, k));
        qclab::test::expectMatrixNear(state.matrix(), krausSum(rho, ops),
                                      1e-13);
      }
      for (int q1 = q + 1; q1 < n; ++q1) {
        SCOPED_TRACE("n=" + std::to_string(n) + " qubits " +
                     std::to_string(q) + "," + std::to_string(q1));
        DensityMatrix<double> state(n, rho);
        state.applyChannel(mixedUnitary, {q, q1});
        const M e = sim::extendedUnitary(
                        n, qgates::MatrixGateN<double>({q, q1}, u))
                        .toDense();
        const M expected = rho * C(1 - p) + krausSum(rho, {e}) * C(p);
        qclab::test::expectMatrixNear(state.matrix(), expected, 1e-13);
      }
      if (q + 1 < n) {
        DensityMatrix<double> state(n, rho);
        state.applyChannel(product, {q, q + 1});
        std::vector<M> ops;
        for (const M& k : productOps) ops.push_back(embed(n, q, k));
        qclab::test::expectMatrixNear(state.matrix(), krausSum(rho, ops),
                                      1e-13);
      }
    }
  }
}

TEST(DensityMatrix, DephaseCollapseAndResetMatchTheirProjectors) {
  const M p0{{C(1), C(0)}, {C(0), C(0)}};
  const M p1{{C(0), C(0)}, {C(0), C(1)}};
  const M lower{{C(0), C(1)}, {C(0), C(0)}};  // |0><1|
  for (const int n : {3, 4}) {
    const M rho = randomMixedState(n, 300 + static_cast<std::uint64_t>(n));
    for (int q = 0; q < n; ++q) {
      SCOPED_TRACE("n=" + std::to_string(n) + " qubit " + std::to_string(q));
      DensityMatrix<double> dephased(n, rho);
      dephased.dephase(q);
      qclab::test::expectMatrixNear(
          dephased.matrix(), krausSum(rho, {embed(n, q, p0), embed(n, q, p1)}),
          1e-13);

      DensityMatrix<double> reset(n, rho);
      reset.reset(q);
      qclab::test::expectMatrixNear(
          reset.matrix(), krausSum(rho, {embed(n, q, p0), embed(n, q, lower)}),
          1e-13);

      for (const int outcome : {0, 1}) {
        DensityMatrix<double> collapsed(n, rho);
        const double weight = collapsed.collapse(q, outcome);
        M expected = krausSum(rho, {embed(n, q, outcome == 0 ? p0 : p1)});
        EXPECT_NEAR(weight, std::real(expected.trace()), 1e-13);
        expected *= C(1.0 / weight);
        qclab::test::expectMatrixNear(collapsed.matrix(), expected, 1e-13);
      }
    }
  }
}

/// The 2n-qubit register of an n = 8 density matrix is large enough for
/// every kernel to fork: each thread count must give the same bits.
TEST(NoisySimulation, BitIdenticalAcrossThreadCounts) {
#ifndef QCLAB_HAS_OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  const int n = 8;
  QCircuit<double> circuit = qclab::test::randomCircuit<double>(n, 12, 31);
  circuit.push_back(Measurement<double>(2, 'x'));
  circuit.push_back(Reset<double>(5));
  NoiseModel<double> model = NoiseModel<double>::depolarizing(0.05);
  model.measurementNoise = KrausChannel<double>::readout(0.1, 0.2);
  const int saved = omp_get_max_threads();
  std::vector<M> results;
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    results.push_back(
        simulateDensity(circuit, std::string(n, '0'), model).matrix());
  }
  omp_set_num_threads(saved);
  EXPECT_NEAR(std::real(results[0].trace()), 1.0, 1e-12);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(std::memcmp(results[0].data(), results[i].data(),
                          results[0].size() * sizeof(C)),
              0)
        << "thread-count run " << i;
  }
#endif
}

}  // namespace
}  // namespace qclab::noise
