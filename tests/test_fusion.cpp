/// \file test_fusion.cpp
/// \brief Tests of the simulation-time gate-fusion engine: scheduler plan
/// shapes, fused-vs-unfused state equivalence (including the sparse-kron
/// backend as an independent reference), measurement-interleaved runs, and
/// the SimulateOptions wiring.

#include <gtest/gtest.h>

#include <complex>
#include <memory>
#include <vector>

#include "test_helpers.hpp"

namespace qclab::sim {
namespace {

using namespace qclab::qgates;

/// Gate refs (offset 0) over the flat object list of `circuit`.
template <typename T>
std::vector<GateRef<T>> gateRefs(const QCircuit<T>& circuit) {
  std::vector<GateRef<T>> refs;
  for (const auto& object : circuit) {
    refs.push_back({static_cast<const QGate<T>*>(object.get()), 0});
  }
  return refs;
}

// ---- scheduler plan shapes --------------------------------------------

TEST(FusionScheduler, MergesRunWithinWindow) {
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(RotationZ<double>(1, 0.4));
  circuit.push_back(CX<double>(1, 2));

  FusionOptions options;
  options.maxQubits = 3;
  options.separateDiagonalRuns = false;
  const auto plan = fuseGates(gateRefs(circuit), 3, options);
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.blocks[0].qubits, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(plan.blocks[0].diagonal);
  EXPECT_EQ(plan.blocks[0].gatesIn, 4u);

  const auto stats = plan.stats();
  EXPECT_EQ(stats.gatesIn, 4u);
  EXPECT_EQ(stats.blocksOut, 1u);
  EXPECT_EQ(stats.sweepsSaved, 3u);
}

TEST(FusionScheduler, FlushesWhenWindowOverflows) {
  // Two disjoint qubit pairs cannot share a 2-qubit window.
  QCircuit<double> circuit(4);
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(CX<double>(2, 3));

  FusionOptions options;
  options.maxQubits = 2;
  const auto plan = fuseGates(gateRefs(circuit), 4, options);
  ASSERT_EQ(plan.blocks.size(), 2u);
  EXPECT_EQ(plan.blocks[0].qubits, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.blocks[1].qubits, (std::vector<int>{2, 3}));
}

TEST(FusionScheduler, DiagonalRunKeepsDiagonalBlock) {
  QCircuit<double> circuit(3);
  circuit.push_back(RotationZ<double>(0, 0.2));
  circuit.push_back(CZ<double>(0, 1));
  circuit.push_back(RotationZZ<double>(1, 2, 0.7));
  circuit.push_back(PauliZ<double>(2));

  FusionOptions options;
  options.maxQubits = 3;
  options.separateDiagonalRuns = false;
  const auto plan = fuseGates(gateRefs(circuit), 3, options);
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_TRUE(plan.blocks[0].diagonal);

  // One dense gate poisons the diagonal flag.
  circuit.push_back(Hadamard<double>(1));
  const auto mixed = fuseGates(gateRefs(circuit), 3, options);
  ASSERT_EQ(mixed.blocks.size(), 1u);
  EXPECT_FALSE(mixed.blocks[0].diagonal);
}

TEST(FusionScheduler, WiderThanWindowGatePassesThrough) {
  QCircuit<double> circuit(4);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(MCX<double>({0, 1, 2}, 3, {1, 1, 1}));  // 4 qubits
  circuit.push_back(Hadamard<double>(1));

  FusionOptions options;
  options.maxQubits = 2;
  const auto plan = fuseGates(gateRefs(circuit), 4, options);
  ASSERT_EQ(plan.blocks.size(), 3u);
  EXPECT_EQ(plan.blocks[1].qubits.size(), 4u);
  EXPECT_EQ(plan.blocks[1].gatesIn, 1u);
}

TEST(FusionScheduler, RejectsEmptyWindow) {
  const std::vector<GateRef<double>> none;
  FusionOptions options;
  options.maxQubits = 0;
  EXPECT_THROW(fuseGates(none, 2, options), InvalidArgumentError);
}

TEST(FusionScheduler, PlanMatrixMatchesCircuitUnitary) {
  // The block products must reproduce the circuit unitary exactly: apply
  // the plan to every basis column and compare against circuit.matrix().
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto circuit = qclab::test::randomCircuit<double>(4, 25, seed);
    const auto refs = gateRefs(circuit);
    const auto plan = fuseGates(refs, 4, FusionOptions{});
    EXPECT_LT(plan.blocks.size(), refs.size());

    const std::size_t dim = 16;
    for (std::size_t j = 0; j < dim; ++j) {
      std::vector<std::complex<double>> state(dim);
      state[j] = 1.0;
      applyFusionPlan(state, 4, plan);
      const auto u = circuit.matrix();
      for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_NEAR(std::abs(state[i] - u(i, j)), 0.0, 1e-12);
      }
    }
  }
}

// ---- backend equivalence fuzz -----------------------------------------

template <typename T>
void expectFusedMatchesBackends(int nbQubits, int length, std::uint64_t seed,
                                T tolerance,
                                const FusionOptions& fusionOptions = {}) {
  const auto circuit = qclab::test::randomCircuit<T>(nbQubits, length, seed);
  random::Rng rng(seed + 1000);
  const auto initial = qclab::test::randomState<T>(nbQubits, rng);

  const KernelBackend<T> kernel;
  const SparseKronBackend<T> sparse;
  SimulateOptions options;
  options.fusion = true;
  options.fusionOptions = fusionOptions;

  const auto viaKernel = circuit.simulate(initial, kernel);
  const auto viaSparse = circuit.simulate(initial, sparse);
  const auto viaFusion = circuit.simulate(initial, options);

  ASSERT_EQ(viaFusion.nbBranches(), 1u);
  qclab::test::expectStateNear(viaFusion.state(0), viaKernel.state(0),
                               tolerance);
  qclab::test::expectStateNear(viaFusion.state(0), viaSparse.state(0),
                               tolerance);
}

class FusionFuzzDouble : public ::testing::TestWithParam<int> {};

TEST_P(FusionFuzzDouble, AgreesWithKernelAndSparseBackends) {
  const int seed = GetParam();
  const int nbQubits = 6 + seed % 3;  // 6-8 qubits
  expectFusedMatchesBackends<double>(nbQubits, 60,
                                     static_cast<std::uint64_t>(seed), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionFuzzDouble, ::testing::Range(1, 9));

class FusionFuzzFloat : public ::testing::TestWithParam<int> {};

TEST_P(FusionFuzzFloat, AgreesWithKernelAndSparseBackends) {
  const int seed = GetParam();
  const int nbQubits = 6 + seed % 3;
  expectFusedMatchesBackends<float>(nbQubits, 60,
                                    static_cast<std::uint64_t>(seed), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionFuzzFloat, ::testing::Range(1, 9));

/// The scheduler configurations no driver defaults to: mixed merging
/// (diagonal blocks densified when a dense gate joins) at a 4-qubit
/// window, and separated runs whose diagonal window falls back to
/// maxQubits (diagonalMaxQubits = 0).
class FusionFuzzNonDefault : public ::testing::TestWithParam<int> {};

TEST_P(FusionFuzzNonDefault, AgreesWithKernelAndSparseBackends) {
  const int seed = GetParam();
  const int nbQubits = 6 + seed % 3;
  FusionOptions mixed;
  mixed.maxQubits = 4;
  mixed.separateDiagonalRuns = false;
  expectFusedMatchesBackends<double>(
      nbQubits, 60, static_cast<std::uint64_t>(seed), 1e-12, mixed);
  expectFusedMatchesBackends<float>(
      nbQubits, 60, static_cast<std::uint64_t>(seed), 1e-5f, mixed);
  FusionOptions narrowDiagonal;
  narrowDiagonal.maxQubits = 3;
  narrowDiagonal.diagonalMaxQubits = 0;
  expectFusedMatchesBackends<double>(
      nbQubits, 60, static_cast<std::uint64_t>(seed), 1e-12, narrowDiagonal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionFuzzNonDefault,
                         ::testing::Range(1, 9));

// ---- fusion window sweep ----------------------------------------------

class FusionWindowSweep : public ::testing::TestWithParam<int> {};

TEST_P(FusionWindowSweep, EveryWindowSizeIsExact) {
  const auto circuit = qclab::test::randomCircuit<double>(6, 50, 77);
  const auto reference = circuit.simulate("000000");

  SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.maxQubits = GetParam();
  const auto fused = circuit.simulate("000000", options);
  qclab::test::expectStateNear(fused.state(0), reference.state(0), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Windows, FusionWindowSweep, ::testing::Range(1, 7));

// ---- structured workloads ---------------------------------------------

TEST(FusionSimulate, QftMatchesUnfused) {
  const auto circuit = qclab::algorithms::qft<double>(7);
  random::Rng rng(5);
  const auto initial = qclab::test::randomState<double>(7, rng);
  const auto reference = circuit.simulate(initial);

  SimulateOptions options;
  options.fusion = true;
  const auto fused = circuit.simulate(initial, options);
  qclab::test::expectStateNear(fused.state(0), reference.state(0), 1e-12);
}

TEST(FusionSimulate, NestedSubCircuitsCarryOffsets) {
  // A sub-circuit with its own offset: fused gate refs must apply the
  // accumulated offset, like applyTo does.
  QCircuit<double> inner(2, 1);
  inner.push_back(Hadamard<double>(0));
  inner.push_back(CX<double>(0, 1));
  QCircuit<double> root(4);
  root.push_back(Hadamard<double>(0));
  root.push_back(QCircuit<double>(inner));
  root.push_back(CX<double>(2, 3));

  const auto reference = root.simulate("0000");
  SimulateOptions options;
  options.fusion = true;
  const auto fused = root.simulate("0000", options);
  qclab::test::expectStateNear(fused.state(0), reference.state(0), 1e-12);
}

TEST(FusionSimulate, MeasurementsFlushAndBranchesMatch) {
  // H(0) CX(0,1) M(0) H(1): the measurement forks two branches; the fused
  // run after the fork must be applied to both.
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Hadamard<double>(1));
  circuit.push_back(TGate<double>(1));

  const auto reference = circuit.simulate("00");
  SimulateOptions options;
  options.fusion = true;
  const auto fused = circuit.simulate("00", options);

  ASSERT_EQ(fused.nbBranches(), reference.nbBranches());
  for (std::size_t b = 0; b < reference.nbBranches(); ++b) {
    EXPECT_EQ(fused.result(b), reference.result(b));
    EXPECT_NEAR(fused.probability(b), reference.probability(b), 1e-12);
    qclab::test::expectStateNear(fused.state(b), reference.state(b), 1e-12);
  }
}

TEST(FusionSimulate, ResetFlushesRun) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Reset<double>(0));
  circuit.push_back(Hadamard<double>(0));

  const auto reference = circuit.simulate("00");
  SimulateOptions options;
  options.fusion = true;
  const auto fused = circuit.simulate("00", options);

  ASSERT_EQ(fused.nbBranches(), reference.nbBranches());
  for (std::size_t b = 0; b < reference.nbBranches(); ++b) {
    EXPECT_NEAR(fused.probability(b), reference.probability(b), 1e-12);
    qclab::test::expectStateNear(fused.state(b), reference.state(b), 1e-12);
  }
}

}  // namespace
}  // namespace qclab::sim
