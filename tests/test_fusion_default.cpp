/// \file test_fusion_default.cpp
/// \brief The default fusion decision (sim::resolveFusion): an unset
/// SimulateOptions::fusion fuses kernel-backend runs of at least
/// sim::kDefaultFusionMinQubits = 10 qubits in every simulate overload and
/// in the dispatch suffix, an explicit `fusion` or an explicit backend
/// wins, and the default run agrees with the paper's sparse-Kronecker
/// algorithm.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "test_helpers.hpp"

namespace qclab {
namespace {

using namespace qclab::qgates;

/// Gates the fusion scheduler consumed while `run` executed.
template <typename Run>
std::uint64_t fusedGates(Run&& run) {
  const std::uint64_t before = obs::metrics().fusionGatesIn();
  run();
  return obs::metrics().fusionGatesIn() - before;
}

/// Gates of a gate-only `circuit`, sub-circuits expanded.
template <typename T>
std::uint64_t gateCount(const QCircuit<T>& circuit) {
  return circuit.flatten().size();
}

/// First-order Trotter-Ising: RX layers and RZZ ladders.
template <typename T>
QCircuit<T> trotter(int n) {
  return algorithms::trotterIsing<T>(n, T(1), T(0.7), T(1), 2);
}

/// A seeded n-bit basis string.
std::string seededBits(int n, std::uint64_t seed) {
  random::Rng rng(seed);
  std::string bits(static_cast<std::size_t>(n), '0');
  for (char& bit : bits) bit = rng.uniformInt(2) == 1 ? '1' : '0';
  return bits;
}

/// |0...0> allocated outside simulate through the tier ladder, as the
/// traced end-to-end run does before calling simulate(StateBuffer, ...).
sim::StateBuffer<double> tieredZeros(int n) {
  auto state = sim::StateBuffer<double>::zeros(std::size_t{1} << n,
                                               SimulateOptions{}.stateTier);
  state.data()[0] = 1.0;
  return state;
}

/// Random gates around a mid-circuit measurement, a reset, and a final
/// measurement, so the run branches.
template <typename T>
QCircuit<T> branchingCircuit(int n, std::uint64_t seed) {
  random::Rng rng(seed);
  QCircuit<T> circuit(n);
  test::addRandomGates(circuit, 3 * n, rng);
  circuit.push_back(Measurement<T>(1));
  test::addRandomGates(circuit, 2 * n, rng);
  circuit.push_back(Reset<T>(n - 2));
  test::addRandomGates(circuit, 2 * n, rng);
  circuit.push_back(Measurement<T>(n - 1));
  return circuit;
}

// ---- the 10-qubit cut ---------------------------------------------------

TEST(FusionDefault, FusesFromTenQubitsInEverySimulateOverload) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  for (const int n : {9, 10}) {
    const QCircuit<double> circuit = trotter<double>(n);
    const std::string bits(static_cast<std::size_t>(n), '0');
    const std::uint64_t expected = n == 10 ? gateCount(circuit) : 0;
    EXPECT_EQ(fusedGates([&] { (void)circuit.simulate(bits); }), expected)
        << "simulate(bits), n = " << n;
    EXPECT_EQ(fusedGates([&] {
                (void)circuit.simulate(basisState<double>(bits));
              }),
              expected)
        << "simulate(vector), n = " << n;
    EXPECT_EQ(fusedGates([&] {
                (void)circuit.simulate(tieredZeros(n), SimulateOptions{});
              }),
              expected)
        << "simulate(StateBuffer, SimulateOptions{}), n = " << n;
  }
}

TEST(FusionDefault, FusesFromTenQubitsInTheHybridDispatchSuffix) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  for (const int n : {9, 10}) {
    // A GHZ Clifford prefix for the tableau, then a non-Clifford suffix.
    QCircuit<double> circuit = algorithms::ghz<double>(n);
    const std::uint64_t prefixGates = gateCount(circuit);
    for (int q = 0; q < n; ++q) circuit.push_back(TGate<double>(q));
    for (int q = 0; q + 1 < n; ++q) {
      circuit.push_back(RotationZZ<double>(q, q + 1, 0.3));
    }
    for (int q = 0; q < n; ++q) circuit.push_back(RotationX<double>(q, 0.2));
    SimulateOptions options;
    options.dispatch = sim::DispatchMode::kAuto;
    const std::uint64_t hybridBefore =
        obs::metrics().dispatchRoutes(sim::DispatchRoute::kHybrid);
    const std::uint64_t fused = fusedGates([&] {
      (void)circuit.simulate(std::string(static_cast<std::size_t>(n), '0'),
                             options);
    });
    EXPECT_EQ(obs::metrics().dispatchRoutes(sim::DispatchRoute::kHybrid),
              hybridBefore + 1)
        << "n = " << n;
    EXPECT_EQ(fused, n == 10 ? gateCount(circuit) - prefixGates : 0)
        << "n = " << n;
  }
}

// ---- explicit requests and explicit backends win ------------------------

TEST(FusionDefault, ExplicitFusionRequestWins) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  const QCircuit<double> wide = trotter<double>(12);
  SimulateOptions off;
  off.fusion = false;
  EXPECT_EQ(fusedGates([&] { (void)wide.simulate(std::string(12, '0'), off); }),
            0u);

  const QCircuit<double> narrow = trotter<double>(3);
  SimulateOptions on;
  on.fusion = true;
  EXPECT_EQ(fusedGates([&] { (void)narrow.simulate("000", on); }),
            gateCount(narrow));
}

TEST(FusionDefault, ExplicitBackendAppliesEveryGate) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  const QCircuit<double> circuit = trotter<double>(12);
  const std::string bits(12, '0');
  const sim::SparseKronBackend<double> sparseKron;
  EXPECT_EQ(fusedGates([&] { (void)circuit.simulate(bits, sparseKron); }), 0u);

  obs::metrics().reset();
  const obs::InstrumentedBackend<double> instrumented;
  EXPECT_EQ(fusedGates([&] { (void)circuit.simulate(bits, instrumented); }),
            0u);
  std::uint64_t metered = 0;
  for (const auto& [kind, count] : obs::metrics().gateKinds()) {
    metered += count;
  }
  EXPECT_EQ(metered, gateCount(circuit));
}

// ---- the traced e2e run splits simulate(bits) without changing it ------

TEST(FusionDefault, BitsAndStateBufferOverloadsAreBitIdentical) {
  for (const int n : {10, 12}) {
    for (const QCircuit<double>& circuit :
         {algorithms::qft<double>(n), trotter<double>(n),
          branchingCircuit<double>(n, 7)}) {
      const std::string bits(static_cast<std::size_t>(n), '0');
      const Simulation<double> plain = circuit.simulate(bits);
      const Simulation<double> split =
          circuit.simulate(tieredZeros(n), SimulateOptions{});
      ASSERT_EQ(plain.nbBranches(), split.nbBranches());
      for (std::size_t b = 0; b < plain.nbBranches(); ++b) {
        EXPECT_EQ(plain.result(b), split.result(b));
        EXPECT_EQ(plain.probability(b), split.probability(b));
        const auto& a = plain.state(b);
        const auto& c = split.state(b);
        ASSERT_EQ(a.size(), c.size());
        EXPECT_EQ(std::memcmp(a.data(), c.data(), a.size() * sizeof(a[0])),
                  0)
            << "n = " << n << ", branch " << b;
      }
    }
  }
}

// ---- agreement with the paper's algorithm -------------------------------

/// Default simulate from |bits> against SparseKronBackend, branch by
/// branch, within `tolerance`; the default run must have fused.
template <typename T>
void expectMatchesSparseKron(const QCircuit<T>& circuit,
                             const std::string& bits, T tolerance,
                             const std::string& label) {
  SCOPED_TRACE(label + ", n = " + std::to_string(circuit.nbQubits()));
  Simulation<T> fast;
  const std::uint64_t fused =
      fusedGates([&] { fast = circuit.simulate(bits); });
  if (obs::kEnabled) {
    EXPECT_GT(fused, 0u);
  }
  const Simulation<T> reference =
      circuit.simulate(bits, sim::SparseKronBackend<T>());
  ASSERT_EQ(fast.nbBranches(), reference.nbBranches());
  for (std::size_t b = 0; b < fast.nbBranches(); ++b) {
    EXPECT_EQ(fast.result(b), reference.result(b));
    EXPECT_NEAR(fast.probability(b), reference.probability(b), tolerance);
    EXPECT_LE(dense::distanceMax(fast.state(b), reference.state(b)),
              tolerance)
        << "branch " << b;
  }
}

template <typename T>
void expectDefaultMatchesSparseKron(T tolerance) {
  for (int n = 10; n <= 12; ++n) {
    const std::string zeros(static_cast<std::size_t>(n), '0');
    expectMatchesSparseKron(algorithms::qft<T>(n), seededBits(n, 11 + n),
                            tolerance, "QFT");
    expectMatchesSparseKron(trotter<T>(n), zeros, tolerance, "Trotter-Ising");
    expectMatchesSparseKron(algorithms::ghz<T>(n), zeros, tolerance, "GHZ");
    expectMatchesSparseKron(branchingCircuit<T>(n, 29 + n), zeros, tolerance,
                            "branching");
  }
}

TEST(FusionDefault, MatchesSparseKronDouble) {
  expectDefaultMatchesSparseKron<double>(1e-12);
}

TEST(FusionDefault, MatchesSparseKronFloat) {
  expectDefaultMatchesSparseKron<float>(1e-4f);
}

}  // namespace
}  // namespace qclab
