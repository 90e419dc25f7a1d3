/// \file test_observable.cpp
/// \brief Unit tests for Pauli-string observables and expectation values.

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace qclab {
namespace {

using C = std::complex<double>;
using M = dense::Matrix<double>;

TEST(PauliString, ConstructionAndValidation) {
  const PauliString<double> p("XIZY", 1.5);
  EXPECT_EQ(p.nbQubits(), 4);
  EXPECT_EQ(p.paulis(), "XIZY");
  EXPECT_EQ(p.coefficient(), 1.5);
  EXPECT_EQ(p.weight(), 3);
  // Lowercase accepted and normalized.
  EXPECT_EQ(PauliString<double>("xz").paulis(), "XZ");
  EXPECT_THROW(PauliString<double>(""), InvalidArgumentError);
  EXPECT_THROW(PauliString<double>("XA"), InvalidArgumentError);
}

TEST(PauliString, MatrixMatchesKron) {
  const PauliString<double> p("XZ", 2.0);
  const auto expected =
      dense::kron(dense::pauliX<double>(), dense::pauliZ<double>()) * C(2.0);
  qclab::test::expectMatrixNear(p.matrix(), expected);
}

TEST(PauliString, ApplyMatchesMatrix) {
  random::Rng rng(1);
  for (const std::string paulis : {"X", "Y", "Z", "IXYZ", "YYXZ", "IIII"}) {
    const PauliString<double> p(paulis, 0.7);
    const int n = p.nbQubits();
    const auto state = qclab::test::randomState<double>(n, rng);
    const auto viaKernels = p.apply(state);
    const auto viaMatrix = p.matrix().apply(state);
    qclab::test::expectStateNear(viaKernels, viaMatrix, 1e-12);
  }
}

TEST(PauliString, ExpectationOfEigenstates) {
  // <0|Z|0> = 1, <1|Z|1> = -1, <+|X|+> = 1, <0|X|0> = 0.
  EXPECT_NEAR(PauliString<double>("Z").expectation(basisState<double>("0")),
              1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("Z").expectation(basisState<double>("1")),
              -1.0, 1e-14);
  const double h = 1.0 / std::sqrt(2.0);
  const std::vector<C> plus = {C(h), C(h)};
  EXPECT_NEAR(PauliString<double>("X").expectation(plus), 1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("X").expectation(basisState<double>("0")),
              0.0, 1e-14);
}

TEST(PauliString, BellCorrelations) {
  // For the Bell state: <XX> = <ZZ> = 1, <YY> = -1, single-qubit <Z> = 0.
  const double h = 1.0 / std::sqrt(2.0);
  const std::vector<C> bell = {C(h), C(0), C(0), C(h)};
  EXPECT_NEAR(PauliString<double>("XX").expectation(bell), 1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("ZZ").expectation(bell), 1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("YY").expectation(bell), -1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("ZI").expectation(bell), 0.0, 1e-14);
}

TEST(Observable, AddMergesDuplicateStrings) {
  Observable<double> obs(2);
  obs.add("ZZ", 1.0);
  obs.add("XI", 0.5);
  obs.add("ZZ", 2.0);
  EXPECT_EQ(obs.nbTerms(), 2u);
  EXPECT_NEAR(obs.terms()[0].coefficient(), 3.0, 1e-15);
}

TEST(Observable, Validation) {
  Observable<double> obs(2);
  EXPECT_THROW(obs.add("ZZZ", 1.0), InvalidArgumentError);
  EXPECT_THROW(Observable<double>(0), InvalidArgumentError);
}

TEST(Observable, ExpectationMatchesMatrix) {
  random::Rng rng(2);
  auto hamiltonian = isingHamiltonian<double>(3, 1.0, 0.5);
  const auto state = qclab::test::randomState<double>(3, rng);
  const auto matrix = hamiltonian.matrix();
  const auto hPsi = matrix.apply(state);
  const double viaMatrix = std::real(dense::inner(state, hPsi));
  EXPECT_NEAR(hamiltonian.expectation(state), viaMatrix, 1e-11);
}

TEST(Observable, MatrixIsHermitian) {
  const auto hamiltonian = isingHamiltonian<double>(4, 1.3, 0.7, true);
  EXPECT_TRUE(hamiltonian.matrix().isHermitian(1e-13));
}

TEST(Observable, VarianceOfEigenstateIsZero) {
  // |00> is an eigenstate of -J Z0 Z1 (no field).
  const auto hamiltonian = isingHamiltonian<double>(2, 1.0, 0.0);
  const auto state = basisState<double>("00");
  EXPECT_NEAR(hamiltonian.variance(state), 0.0, 1e-12);
  EXPECT_NEAR(hamiltonian.expectation(state), -1.0, 1e-13);
}

TEST(Observable, VarianceNonNegativeAndMatchesMoments) {
  random::Rng rng(3);
  const auto hamiltonian = isingHamiltonian<double>(3, 0.8, 0.6);
  for (int trial = 0; trial < 5; ++trial) {
    const auto state = qclab::test::randomState<double>(3, rng);
    const double variance = hamiltonian.variance(state);
    EXPECT_GE(variance, -1e-10);
    // Reference via dense matrices.
    const auto h = hamiltonian.matrix();
    const auto hPsi = h.apply(state);
    const double mean = std::real(dense::inner(state, hPsi));
    const double second = dense::normSquared(hPsi);
    EXPECT_NEAR(variance, second - mean * mean, 1e-10);
  }
}

TEST(Observable, IsingStructure) {
  // Open chain of 4: 3 bonds + 4 fields.
  EXPECT_EQ(isingHamiltonian<double>(4, 1.0, 1.0).nbTerms(), 7u);
  // Periodic chain of 4: 4 bonds + 4 fields.
  EXPECT_EQ(isingHamiltonian<double>(4, 1.0, 1.0, true).nbTerms(), 8u);
  // Zero-field terms still present as explicit 0-coefficient terms.
  const auto h = isingHamiltonian<double>(3, 1.0, 0.0);
  EXPECT_EQ(h.nbTerms(), 5u);
}

TEST(Observable, GroundStateEnergyOfTwoSiteIsing) {
  // H = -J Z0 Z1 - h (X0 + X1) for J = h = 1: ground energy of the 4x4
  // matrix; compare eigh result with the known value -sqrt(1 + ...).
  const auto hamiltonian = isingHamiltonian<double>(2, 1.0, 1.0);
  const auto eig = dense::eigh(hamiltonian.matrix());
  // Exact ground energy for two-site TFIM with J=h=1: -sqrt(5) ... verify
  // against direct numerical value instead of a closed form.
  EXPECT_NEAR(eig.values[0], -std::sqrt(5.0), 1e-10);
}

TEST(Observable, EnergyAfterCircuitEvolution) {
  // Rotating |0> by RX(pi) flips <Z> from +1 to -1.
  Observable<double> z(1);
  z.add("Z", 1.0);
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::RotationX<double>(0, M_PI));
  const auto state = circuit.simulate("0").state(0);
  EXPECT_NEAR(z.expectation(state), -1.0, 1e-12);
}

TEST(Observable, BranchAveragedExpectation) {
  // H then measure: branches |0> and |1> at 1/2 each; <Z> averages to 0
  // while each branch individually gives +-1.
  Observable<double> z(1);
  z.add("Z", 1.0);
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("0");
  const double averaged = simulation.average(
      [&](const Branch<double>& branch) { return z.expectation(branch.state); });
  EXPECT_NEAR(averaged, 0.0, 1e-12);
  EXPECT_NEAR(z.expectation(simulation.state(0)), 1.0, 1e-12);
  EXPECT_NEAR(z.expectation(simulation.state(1)), -1.0, 1e-12);
}

TEST(Observable, AverageOfUnityIsOne) {
  auto circuit = qclab::test::randomCircuit<double>(3, 10, 4);
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(2));
  const auto simulation = circuit.simulate("000");
  EXPECT_NEAR(simulation.average([](const Branch<double>&) { return 1.0; }),
              1.0, 1e-10);
}

/// Random observable on `n` qubits: the all-identity term plus `nbTerms`
/// strings drawn uniformly from I/X/Y/Z.
template <typename T>
Observable<T> randomObservable(int n, int nbTerms, random::Rng& rng) {
  Observable<T> observable(n);
  observable.add(std::string(static_cast<std::size_t>(n), 'I'),
                 static_cast<T>(rng.uniform(-1.0, 1.0)));
  const char alphabet[4] = {'I', 'X', 'Y', 'Z'};
  for (int t = 0; t < nbTerms; ++t) {
    std::string paulis;
    for (int q = 0; q < n; ++q) paulis += alphabet[rng.uniformInt(4)];
    observable.add(paulis, static_cast<T>(rng.uniform(-1.0, 1.0)));
  }
  return observable;
}

/// <psi|M|psi> through the dense matrix.
template <typename T>
T denseExpectation(const dense::Matrix<T>& matrix,
                   const std::vector<std::complex<T>>& state) {
  return std::real(dense::inner(state, matrix.apply(state)));
}

template <typename T>
void expectMatchesDenseMatrices(T tolerance) {
  random::Rng rng(31);
  for (int n = 1; n <= 10; ++n) {
    const auto observable = randomObservable<T>(n, 6, rng);
    const auto state = qclab::test::randomState<T>(n, rng);
    EXPECT_NEAR(observable.expectation(state),
                denseExpectation(observable.matrix(), state), tolerance)
        << "n = " << n;
    for (const auto& term : observable.terms()) {
      EXPECT_NEAR(term.expectation(state),
                  denseExpectation(term.matrix(), state), tolerance)
          << term.paulis();
    }
  }
}

TEST(Observable, ExpectationMatchesDenseMatrixDouble) {
  expectMatchesDenseMatrices<double>(1e-11);
}

TEST(Observable, ExpectationMatchesDenseMatrixFloat) {
  expectMatchesDenseMatrices<float>(2e-4f);
}

TEST(PauliString, EveryThreeQubitStringMatchesMatrix) {
  // All 64 strings: every count of Y factors, so every power of i.
  random::Rng rng(34);
  const auto state = qclab::test::randomState<double>(3, rng);
  const char alphabet[4] = {'I', 'X', 'Y', 'Z'};
  for (int code = 0; code < 64; ++code) {
    const std::string paulis = {alphabet[code / 16], alphabet[code / 4 % 4],
                                alphabet[code % 4]};
    const PauliString<double> term(paulis, -0.75);
    EXPECT_NEAR(term.expectation(state), denseExpectation(term.matrix(), state),
                1e-13)
        << paulis;
  }
}

TEST(Observable, StateBufferMatchesVectorOnEveryTier) {
  // The buffer overloads read the amplitudes in place on every tier and
  // give the vector result bit for bit.
  random::Rng rng(32);
  const int n = 9;
  const auto observable = randomObservable<double>(n, 8, rng);
  const auto state = qclab::test::randomState<double>(n, rng);
  for (const auto tier :
       {sim::StateTier::kHeap, sim::StateTier::kNuma, sim::StateTier::kMmap}) {
    sim::StateTierOptions options;
    options.tier = tier;
    auto buffer = sim::StateBuffer<double>::zeros(state.size(), options);
    std::copy(state.begin(), state.end(), buffer.data());
    EXPECT_EQ(observable.expectation(buffer), observable.expectation(state));
    for (const auto& term : observable.terms()) {
      EXPECT_EQ(term.expectation(buffer), term.expectation(state))
          << term.paulis();
    }
  }
}

TEST(Observable, MaxCutExpectationMatchesBruteForceCut) {
  // <C> = sum_i |psi_i|^2 cut(i), with vertex v at bit position n-1-v of
  // the basis index: on K_n and on a random sparse graph, where the bit
  // order matters.
  random::Rng rng(33);
  for (int n = 2; n <= 10; ++n) {
    algorithms::Graph complete{n, {}};
    algorithms::Graph sparse{n, {}};
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        complete.edges.push_back({i, j});
        if (rng.uniform() < 0.3) sparse.edges.push_back({i, j});
      }
    }
    if (sparse.edges.empty()) sparse.edges.push_back({0, n - 1});
    const auto state = qclab::test::randomState<double>(n, rng);
    for (const auto* graph : {&complete, &sparse}) {
      double reference = 0.0;
      for (util::index_t i = 0; i < state.size(); ++i) {
        int cut = 0;
        for (const auto& [a, b] : graph->edges) {
          cut += util::getBit(i, util::bitPosition(a, n)) !=
                 util::getBit(i, util::bitPosition(b, n));
        }
        reference += std::norm(state[i]) * cut;
      }
      EXPECT_NEAR(
          algorithms::maxCutHamiltonian<double>(*graph).expectation(state),
          reference, 1e-11)
          << "n = " << n << ", " << graph->edges.size() << " edges";
    }
  }
}

class PauliApplySweep : public ::testing::TestWithParam<int> {};

TEST_P(PauliApplySweep, RandomStringsMatchMatrices) {
  const int n = 4;
  random::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::string paulis;
  const char alphabet[4] = {'I', 'X', 'Y', 'Z'};
  for (int q = 0; q < n; ++q) {
    paulis += alphabet[rng.uniformInt(4)];
  }
  const PauliString<double> p(paulis, rng.uniform(-2.0, 2.0));
  const auto state = qclab::test::randomState<double>(n, rng);
  qclab::test::expectStateNear(p.apply(state), p.matrix().apply(state),
                               1e-12);
  // Pauli strings square to coefficient^2 * identity.
  PauliString<double> unit(paulis, 1.0);
  qclab::test::expectStateNear(unit.apply(unit.apply(state)), state, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PauliApplySweep, ::testing::Range(1, 11));

}  // namespace
}  // namespace qclab
