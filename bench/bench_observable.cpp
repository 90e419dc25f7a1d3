/// \file bench_observable.cpp
/// \brief Experiment P8 (extension): cost of Pauli-observable expectation
/// values as a function of register size and term count — the primitive of
/// variational-algorithm prototyping on top of the simulator.

#include <benchmark/benchmark.h>

#include "obs_main.hpp"

#include "qclab/qclab.hpp"

namespace {

using T = double;
using C = std::complex<T>;

std::vector<C> uniformState(int nbQubits) {
  const std::size_t dim = std::size_t{1} << nbQubits;
  return std::vector<C>(dim, C(1.0 / std::sqrt(static_cast<double>(dim))));
}

void BM_SinglePauliString(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string paulis(static_cast<std::size_t>(n), 'I');
  paulis[0] = 'X';
  paulis[static_cast<std::size_t>(n / 2)] = 'Z';
  paulis[static_cast<std::size_t>(n - 1)] = 'Y';
  const qclab::PauliString<T> term(paulis, 0.5);
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(term.expectation(psi));
  }
}
BENCHMARK(BM_SinglePauliString)->DenseRange(8, 18, 2);

void BM_IsingEnergy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto hamiltonian = qclab::isingHamiltonian<T>(n, 1.0, 0.5);
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hamiltonian.expectation(psi));
  }
  state.counters["terms"] = static_cast<double>(hamiltonian.nbTerms());
}
BENCHMARK(BM_IsingEnergy)->DenseRange(4, 16, 4);

void BM_IsingVariance(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto hamiltonian = qclab::isingHamiltonian<T>(n, 1.0, 0.5);
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hamiltonian.variance(psi));
  }
}
BENCHMARK(BM_IsingVariance)->DenseRange(4, 16, 4);

qclab::algorithms::Graph completeGraph(int n) {
  qclab::algorithms::Graph graph{n, {}};
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) graph.edges.push_back({i, j});
  }
  return graph;
}

/// <C> of the K_n MaxCut cost (n(n-1)/2 + 1 I/Z terms), its diagonal
/// table formed before the timed loop: the variational inner loop.
void BM_MaxCutExpectation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto cost = qclab::algorithms::maxCutHamiltonian<T>(completeGraph(n));
  const auto psi = uniformState(n);
  benchmark::DoNotOptimize(cost.expectation(psi));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost.expectation(psi));
  }
  state.counters["terms"] = static_cast<double>(cost.nbTerms());
}
BENCHMARK(BM_MaxCutExpectation)->Arg(12)->Arg(16)->Arg(20);

/// The same <C> with the cost built on every call, as
/// algorithms::qaoaExpectedCut does: each call forms the table.
void BM_MaxCutExpectationOneShot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto graph = completeGraph(n);
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qclab::algorithms::maxCutHamiltonian<T>(graph).expectation(psi));
  }
}
BENCHMARK(BM_MaxCutExpectationOneShot)->Arg(16);

void BM_EntanglementEntropy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto circuit = qclab::algorithms::ghz<T>(n);
  const auto psi = circuit.simulate(std::string(n, '0')).state(0);
  std::vector<int> half;
  for (int q = 0; q < n / 2; ++q) half.push_back(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qclab::density::entanglementEntropy(psi, half));
  }
}
BENCHMARK(BM_EntanglementEntropy)->DenseRange(4, 10, 2);

}  // namespace

QCLAB_BENCH_MAIN("bench_observable")
