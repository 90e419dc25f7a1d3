/// \file test_drivers.cpp
/// \brief Cross-driver agreement on nested circuits with barriers: every
/// execution driver (simulate with fusion off / on and dispatch
/// kStatevector / kAuto, the SparseKron reference backend, the batch
/// engine, the trajectory engine, and the density engine) runs a program
/// sim::compile built from the same flat op list, so all of them must
/// agree with the circuit written out flat by hand, and the fused drivers
/// with each other bit for bit.  Also pins that every driver rejects an op
/// outside the register with QubitRangeError on the calling thread.

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace qclab {
namespace {

using namespace qclab::qgates;

/// One circuit built twice: `nested` from sub-circuits at nonzero offsets
/// (two levels deep), `flat` with every op written at its absolute
/// qubits.  Barriers sit between gate runs; `branching` adds a
/// mid-circuit measurement and a reset.
struct CircuitPair {
  QCircuit<double> nested;
  QCircuit<double> flat;
};

CircuitPair makeCircuits(bool branching) {
  CircuitPair pair{QCircuit<double>(4), QCircuit<double>(4)};
  QCircuit<double>& nested = pair.nested;
  QCircuit<double>& flat = pair.flat;

  QCircuit<double> inner(2, /*offset=*/1);  // qubits 2..3 of the register
  inner.push_back(CZ<double>(0, 1));
  inner.push_back(RotationY<double>(1, 0.3));
  QCircuit<double> outer(3, /*offset=*/1);  // qubits 1..3
  outer.push_back(Hadamard<double>(0));
  outer.push_back(CX<double>(0, 1));
  outer.push_back(inner);
  outer.push_back(Hadamard<double>(1));
  nested.push_back(Hadamard<double>(0));
  nested.push_back(outer);
  flat.push_back(Hadamard<double>(0));
  flat.push_back(Hadamard<double>(1));
  flat.push_back(CX<double>(1, 2));
  flat.push_back(CZ<double>(2, 3));
  flat.push_back(RotationY<double>(3, 0.3));
  flat.push_back(Hadamard<double>(2));

  for (QCircuit<double>* circuit : {&nested, &flat}) {
    circuit->push_back(Barrier<double>(0, 3));
    circuit->push_back(CX<double>(0, 3));
    if (branching) circuit->push_back(Measurement<double>(1));
  }

  QCircuit<double> middle(3, /*offset=*/1);  // qubits 1..3
  middle.push_back(RotationX<double>(0, 0.9));
  middle.push_back(Barrier<double>(0, 2));
  middle.push_back(CX<double>(2, 1));
  middle.push_back(TGate<double>(1));
  nested.push_back(middle);
  flat.push_back(RotationX<double>(1, 0.9));
  flat.push_back(Barrier<double>(1, 3));
  flat.push_back(CX<double>(3, 2));
  flat.push_back(TGate<double>(2));

  for (QCircuit<double>* circuit : {&nested, &flat}) {
    if (branching) circuit->push_back(Reset<double>(2));
    circuit->push_back(RotationZ<double>(0, 1.1));
    circuit->push_back(Hadamard<double>(3));
  }
  return pair;
}

bool bitIdentical(const sim::StateBuffer<double>& a,
                  const sim::StateBuffer<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

void expectSimulationsNear(const Simulation<double>& actual,
                           const Simulation<double>& expected,
                           double tolerance) {
  ASSERT_EQ(actual.nbBranches(), expected.nbBranches());
  for (std::size_t b = 0; b < expected.nbBranches(); ++b) {
    EXPECT_EQ(actual.result(b), expected.result(b)) << "branch " << b;
    EXPECT_NEAR(actual.probability(b), expected.probability(b), tolerance)
        << "branch " << b;
    test::expectStateNear(actual.state(b), expected.state(b), tolerance);
  }
}

// ---- every driver agrees on nested circuits with barriers ---------------

TEST(DriverAgreement, SimulateRoutesMatchTheFlatCircuit) {
  const CircuitPair pair = makeCircuits(/*branching=*/true);
  const Simulation<double> reference = pair.flat.simulate("0000");
  ASSERT_EQ(reference.nbBranches(), 4u);  // the measurement and reset fork

  for (const bool fusion : {false, true}) {
    for (const sim::DispatchMode mode :
         {sim::DispatchMode::kStatevector, sim::DispatchMode::kAuto}) {
      SCOPED_TRACE("fusion=" + std::to_string(fusion) +
                   " dispatch=" + std::to_string(static_cast<int>(mode)));
      SimulateOptions options;
      options.fusion = fusion;
      options.dispatch = mode;
      const Simulation<double> nested = pair.nested.simulate("0000", options);
      expectSimulationsNear(nested, reference, 1e-12);
      // Flattening is exact: the hand-flattened circuit takes the same
      // segments through the same kernels.
      const Simulation<double> flat = pair.flat.simulate("0000", options);
      ASSERT_EQ(nested.nbBranches(), flat.nbBranches());
      for (std::size_t b = 0; b < flat.nbBranches(); ++b) {
        EXPECT_TRUE(bitIdentical(nested.stateBuffer(b), flat.stateBuffer(b)))
            << "branch " << b;
      }
    }
  }
  expectSimulationsNear(
      pair.nested.simulate("0000", sim::SparseKronBackend<double>()),
      reference, 1e-12);
}

TEST(DriverAgreement, KAutoTakesTheTableauPrefixThroughSubCircuits) {
  // H(0) and the first three ops of `outer` are Clifford: a prefix of
  // four ops meets the default minCliffordPrefixOps, so kAuto converts
  // inside the nested sub-circuits rather than declining.
  const CircuitPair pair = makeCircuits(/*branching=*/true);
  EXPECT_EQ(sim::analyzeCircuit(pair.nested).cliffordPrefixOps, 4u);
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  const obs::Metrics& m = obs::metrics();
  const std::uint64_t hybridBefore =
      m.dispatchRoutes(sim::DispatchRoute::kHybrid);
  SimulateOptions options;
  options.dispatch = sim::DispatchMode::kAuto;
  (void)pair.nested.simulate("0000", options);
  EXPECT_EQ(m.dispatchRoutes(sim::DispatchRoute::kHybrid), hybridBefore + 1);
}

TEST(DriverAgreement, BatchMatchesSimulateBitForBit) {
  const QCircuit<double> unitary = makeCircuits(/*branching=*/false).nested;
  sim::BatchedSimulation<double> engine(unitary);
  ASSERT_EQ(engine.nbParameters(), 3u);  // RY, RX, RZ
  const std::vector<std::vector<double>> parameterSets = {
      {0.3, 0.9, 1.1}, {-1.2, 0.4, 2.5}, {2.0, -0.7, 0.05}};
  const std::vector<Simulation<double>> members = engine.run(parameterSets);
  ASSERT_EQ(members.size(), parameterSets.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    QCircuit<double> instance(unitary);
    ParameterBinding<double>(instance).bind(parameterSets[m]);
    SimulateOptions simulate;
    simulate.fusion = true;
    const Simulation<double> reference = instance.simulate("0000", simulate);
    EXPECT_TRUE(
        bitIdentical(members[m].stateBuffer(0), reference.stateBuffer(0)))
        << "member " << m;
  }
}

TEST(DriverAgreement, NoiseFreeTrajectoriesMatchSimulate) {
  // A noise-free trajectory replays the plans fused simulate builds, and
  // the all-qubit marginal adds each |amplitude|^2 to zero exactly.
  const QCircuit<double> unitary = makeCircuits(/*branching=*/false).nested;
  noise::TrajectoryOptions options;
  options.nbTrajectories = 2;
  options.marginalQubits = {0, 1, 2, 3};
  const auto result =
      noise::TrajectorySimulator<double>(unitary, {}, options).run("0000");
  const std::vector<double>& probabilities = result.probabilities();
  for (const bool fusion : {false, true}) {
    SCOPED_TRACE("fusion=" + std::to_string(fusion));
    SimulateOptions simulate;
    simulate.fusion = fusion;
    const std::vector<std::complex<double>> state =
        unitary.simulate("0000", simulate).state(0);
    ASSERT_EQ(probabilities.size(), state.size());
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (fusion) {
        EXPECT_EQ(probabilities[i], std::norm(state[i])) << "outcome " << i;
      } else {
        EXPECT_NEAR(probabilities[i], std::norm(state[i]), 1e-12)
            << "outcome " << i;
      }
    }
  }
}

TEST(DriverAgreement, DensityEngineMatchesTheBranchMixture) {
  // Measurement dephases and reset resets rho, so the noiseless density
  // engine ends in the mixture sum_b p_b |psi_b><psi_b| of the branches.
  for (const bool branching : {false, true}) {
    SCOPED_TRACE("branching=" + std::to_string(branching));
    const CircuitPair pair = makeCircuits(branching);
    const Simulation<double> reference = pair.flat.simulate("0000");
    dense::Matrix<double> mixture(16, 16);
    for (std::size_t b = 0; b < reference.nbBranches(); ++b) {
      const std::vector<std::complex<double>> psi = reference.state(b);
      mixture += dense::outer(psi, psi) *
                 std::complex<double>(reference.probability(b));
    }
    const noise::DensityMatrix<double> rho =
        noise::simulateDensity(pair.nested, "0000");
    test::expectMatrixNear(rho.matrix(), mixture, 1e-12);
  }
}

TEST(DriverAgreement, BarriersEndFusedRunsInEveryDriver) {
  // H(0) H(1) CX(0,1) fits one two-qubit block; a barrier before the CX
  // splits the run, and with it the block, in two.  The batch and
  // trajectory engines compile once, so with default options they fuse
  // even this 3-qubit register.
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  const obs::Metrics& m = obs::metrics();
  for (const bool barrier : {false, true}) {
    SCOPED_TRACE("barrier=" + std::to_string(barrier));
    QCircuit<double> circuit(3);
    circuit.push_back(Hadamard<double>(0));
    circuit.push_back(Hadamard<double>(1));
    if (barrier) circuit.push_back(Barrier<double>(0, 1));
    circuit.push_back(CX<double>(0, 1));
    const std::uint64_t expected = barrier ? 2 : 1;

    SimulateOptions options;
    options.fusion = true;
    std::uint64_t before = m.fusionBlocks();
    (void)circuit.simulate("000", options);
    EXPECT_EQ(m.fusionBlocks() - before, expected) << "simulate";

    noise::TrajectoryOptions trajectory;
    trajectory.nbTrajectories = 1;
    before = m.fusionBlocks();
    (void)noise::TrajectorySimulator<double>(circuit, {}, trajectory)
        .run("000");
    EXPECT_EQ(m.fusionBlocks() - before, expected) << "trajectory engine";

    before = m.fusionBlocks();
    (void)sim::BatchedSimulation<double>(circuit).run(
        std::vector<std::vector<double>>(1));
    EXPECT_EQ(m.fusionBlocks() - before, expected) << "batch engine";
  }
}

// ---- an op outside the register throws on the calling thread ------------

/// Offset 1 shifts both gates onto qubit 2 of a 2-qubit register.
QCircuit<double> offsetPastRegister() {
  QCircuit<double> circuit(2, /*offset=*/1);
  circuit.push_back(Hadamard<double>(1));
  circuit.push_back(RotationZ<double>(1, 0.2));
  return circuit;
}

TEST(DriverRangeCheck, Simulate) {
  EXPECT_THROW(offsetPastRegister().simulate("00"), QubitRangeError);
}

TEST(DriverRangeCheck, TrajectoryEngine) {
  EXPECT_THROW(
      noise::TrajectorySimulator<double>(offsetPastRegister(), {}).run("00"),
      QubitRangeError);
}

TEST(DriverRangeCheck, DensityEngine) {
  // In the 2n-qubit register behind rho, qubit 2 of this 2-qubit register
  // is column qubit 0: the gate must throw before its row half writes.
  random::Rng rng(5);
  noise::DensityMatrix<double> rho(test::randomState<double>(2, rng));
  const dense::Matrix<double> before = rho.matrix();
  EXPECT_THROW(noise::simulateDensity(offsetPastRegister(), rho),
               QubitRangeError);
  EXPECT_EQ(std::memcmp(rho.matrix().data(), before.data(),
                        before.size() * sizeof(std::complex<double>)),
            0);
}

TEST(DriverRangeCheck, BatchEngine) {
  const std::vector<std::vector<double>> parameterSets = {{0.1}, {0.2},
                                                          {0.3}};
  EXPECT_THROW(
      sim::BatchedSimulation<double>(offsetPastRegister()).run(parameterSets),
      QubitRangeError);
}

TEST(DriverRangeCheck, DispatchSampleCounts) {
  QCircuit<double> circuit = offsetPastRegister();
  circuit.push_back(Measurement<double>(1));
  EXPECT_THROW(sim::dispatchSampleCounts(circuit, 1000, 7), QubitRangeError);

  // A Clifford circuit reaches the sampler's parallel shot loop.
  QCircuit<double> clifford(2, /*offset=*/1);
  clifford.push_back(Hadamard<double>(1));
  clifford.push_back(Measurement<double>(1));
  EXPECT_THROW(sim::dispatchSampleCounts(clifford, 1000, 7),
               QubitRangeError);
}

}  // namespace
}  // namespace qclab
