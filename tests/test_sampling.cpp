/// \file test_sampling.cpp
/// \brief Unit tests for the direct-sampling fast path
/// (sampleStateCounts), the stabilizer Pauli expectation, and multi-marked
/// Grover search.

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace qclab {
namespace {

using C = std::complex<double>;
using namespace qclab::qgates;

TEST(SampleStateCounts, GhzOnlyTwoOutcomes) {
  const auto state = algorithms::ghz<double>(5).simulate("00000").state(0);
  random::Rng rng(1);
  const auto counts = sampleStateCounts(state, 2000, rng);
  ASSERT_EQ(counts.size(), 32u);
  EXPECT_EQ(counts[0] + counts[31], 2000u);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 2000.0, 0.5, 0.05);
  for (std::size_t i = 1; i < 31; ++i) EXPECT_EQ(counts[i], 0u);
}

TEST(SampleStateCounts, SubsetMarginals) {
  // Bell pair + spectator |+>: sampling only qubit 1 of 3 is 50/50.
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Hadamard<double>(2));
  const auto state = circuit.simulate("000").state(0);
  random::Rng rng(2);
  const auto counts = sampleStateCounts(state, {1}, 4000, rng);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0] + counts[1], 4000u);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 4000.0, 0.5, 0.04);
}

TEST(SampleStateCounts, MatchesBranchingCountsDistribution) {
  // The fast path and the Measurement-object route draw from the same
  // distribution: compare their underlying weights via large samples of
  // the same seeded generator ordering is fragile, so compare frequencies.
  auto circuit = qclab::test::randomCircuit<double>(3, 15, 6);
  const auto state = circuit.simulate("000").state(0);
  random::Rng rng(3);
  const auto fast = sampleStateCounts(state, 50000, rng);

  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  circuit.push_back(Measurement<double>(2));
  const auto branching = circuit.simulate("000").counts(50000, 4);
  ASSERT_EQ(fast.size(), branching.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(fast[i]) / 50000.0,
                static_cast<double>(branching[i]) / 50000.0, 0.02)
        << "outcome " << i;
  }
}

TEST(SampleStateCounts, QubitOrderControlsBitOrder) {
  // |01>: sampling qubits {1, 0} reports '10'.
  const auto state = basisState<double>("01");
  random::Rng rng(4);
  const auto counts = sampleStateCounts(state, {1, 0}, 10, rng);
  EXPECT_EQ(counts[util::bitstringToIndex("10")], 10u);
}

TEST(SampleStateCounts, BasisStatesLandOnTheirOutcome) {
  // Out-of-order qubit subsets whose bit positions fall in different bytes
  // of the state index: every shot of a basis state must land on the
  // outcome read off its bits in the listed order.
  random::Rng rng(6);
  for (const int n : {1, 3, 8, 9, 12, 16, 17, 20}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::string bits;
      for (int q = 0; q < n; ++q) bits += rng.uniformInt(2) ? '1' : '0';
      // Every other qubit, then the rest, read from the last qubit down.
      std::vector<int> qubits;
      for (int q = n - 1 - trial % 2; q >= 0; q -= 2) qubits.push_back(q);
      for (int q = n - 2 + trial % 2; q >= 0; q -= 2) qubits.push_back(q);
      if (trial == 2 && qubits.size() > 3) qubits.resize(3 + n / 4);
      std::string expected;
      for (int q : qubits) expected += bits[static_cast<std::size_t>(q)];

      const auto state = basisState<double>(bits);
      const auto counts = sampleStateCounts(state, qubits, 64, rng);
      ASSERT_EQ(counts.size(), std::size_t{1} << qubits.size());
      const auto outcome = util::bitstringToIndex(expected);
      EXPECT_EQ(counts[outcome], 64u) << "n = " << n << ", bits " << bits;
      std::uint64_t total = 0;
      for (auto c : counts) total += c;
      EXPECT_EQ(total, 64u);
    }
  }
}

TEST(SampleStateCounts, Validation) {
  const auto state = basisState<double>("00");
  random::Rng rng(5);
  EXPECT_THROW(sampleStateCounts(state, {}, 10, rng), InvalidArgumentError);
  EXPECT_THROW(sampleStateCounts(state, {5}, 10, rng), QubitRangeError);
  EXPECT_THROW(sampleStateCounts(std::vector<C>(3), 10, rng),
               InvalidArgumentError);
}

TEST(StabilizerExpectation, BellCorrelations) {
  stabilizer::Tableau tableau(2);
  tableau.h(0);
  tableau.cx(0, 1);
  EXPECT_EQ(tableau.expectation("XX"), 1);
  EXPECT_EQ(tableau.expectation("ZZ"), 1);
  EXPECT_EQ(tableau.expectation("YY"), -1);
  EXPECT_EQ(tableau.expectation("ZI"), 0);
  EXPECT_EQ(tableau.expectation("XI"), 0);
  EXPECT_EQ(tableau.expectation("II"), 1);
}

TEST(StabilizerExpectation, SingleQubitStates) {
  stabilizer::Tableau zero(1);
  EXPECT_EQ(zero.expectation("Z"), 1);
  EXPECT_EQ(zero.expectation("X"), 0);
  zero.x(0);  // |1>
  EXPECT_EQ(zero.expectation("Z"), -1);

  stabilizer::Tableau plus(1);
  plus.h(0);
  EXPECT_EQ(plus.expectation("X"), 1);
  EXPECT_EQ(plus.expectation("Z"), 0);
  plus.s(0);  // S|+> = Y eigenstate
  EXPECT_EQ(plus.expectation("Y"), 1);
  EXPECT_EQ(plus.expectation("X"), 0);
}

TEST(StabilizerExpectation, MatchesStateVectorOnRandomCliffords) {
  // Cross-validate against the observable module on random Clifford
  // circuits: stabilizer expectations are always exactly -1, 0, or +1 and
  // must match <psi|P|psi>.
  random::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 3;
    QCircuit<double> circuit(n);
    // Clifford-only random circuit.
    for (int g = 0; g < 20; ++g) {
      const int q = static_cast<int>(rng.uniformInt(n));
      switch (rng.uniformInt(4)) {
        case 0: circuit.push_back(Hadamard<double>(q)); break;
        case 1: circuit.push_back(SGate<double>(q)); break;
        case 2: circuit.push_back(PauliX<double>(q)); break;
        default: {
          int t = static_cast<int>(rng.uniformInt(n));
          while (t == q) t = static_cast<int>(rng.uniformInt(n));
          circuit.push_back(CX<double>(q, t));
          break;
        }
      }
    }
    stabilizer::Tableau tableau(n);
    random::Rng shotRng(8);
    stabilizer::simulateShot(circuit, tableau, shotRng);
    const auto state = circuit.simulate("000").state(0);
    const char alphabet[4] = {'I', 'X', 'Y', 'Z'};
    for (int probe = 0; probe < 10; ++probe) {
      std::string paulis;
      for (int q = 0; q < n; ++q) paulis += alphabet[rng.uniformInt(4)];
      const double reference = PauliString<double>(paulis).expectation(state);
      EXPECT_NEAR(static_cast<double>(tableau.expectation(paulis)), reference,
                  1e-10)
          << paulis;
    }
  }
}

TEST(StabilizerExpectation, Validation) {
  stabilizer::Tableau tableau(2);
  EXPECT_THROW(tableau.expectation("Z"), InvalidArgumentError);
  EXPECT_THROW(tableau.expectation("ZA"), InvalidArgumentError);
}

TEST(GroverMulti, FindsOneOfSeveralMarkedStates) {
  const std::set<std::string> marked = {"001", "110"};
  const auto circuit = algorithms::grover<double>(marked);
  const auto simulation = circuit.simulate("000");
  double success = 0.0;
  for (std::size_t i = 0; i < simulation.nbBranches(); ++i) {
    if (marked.count(simulation.result(i))) {
      success += simulation.probability(i);
    }
  }
  EXPECT_GT(success, 0.9);
}

TEST(GroverMulti, MatchesAnalyticProbability) {
  const std::set<std::string> marked = {"0001", "0110", "1011"};
  for (int iterations = 1; iterations <= 2; ++iterations) {
    const auto circuit = algorithms::grover<double>(marked, iterations);
    const auto simulation = circuit.simulate("0000");
    double success = 0.0;
    for (std::size_t i = 0; i < simulation.nbBranches(); ++i) {
      if (marked.count(simulation.result(i))) {
        success += simulation.probability(i);
      }
    }
    EXPECT_NEAR(success,
                algorithms::groverSuccessProbabilityMulti(4, 3, iterations),
                1e-10);
  }
}

TEST(GroverMulti, SingleElementSetMatchesScalarOverload) {
  const auto viaSet = algorithms::grover<double>(std::set<std::string>{"101"}, 2);
  const auto viaString = algorithms::grover<double>("101", 2);
  const auto a = viaSet.simulate("000");
  const auto b = viaString.simulate("000");
  ASSERT_EQ(a.nbBranches(), b.nbBranches());
  for (std::size_t i = 0; i < a.nbBranches(); ++i) {
    EXPECT_EQ(a.result(i), b.result(i));
    EXPECT_NEAR(a.probability(i), b.probability(i), 1e-12);
  }
}

}  // namespace
}  // namespace qclab
