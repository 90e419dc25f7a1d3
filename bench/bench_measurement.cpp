/// \file bench_measurement.cpp
/// \brief Experiment P4: cost of the measurement machinery — probability
/// accumulation, collapse, branching simulation, and `counts` shot sampling
/// (paper §3.3 and §5.2).

#include <benchmark/benchmark.h>

#include "obs_main.hpp"

#include "qclab/qclab.hpp"

namespace {

using T = double;
using C = std::complex<T>;

void BM_ProbabilityAndCollapse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    // Uniform superposition so both outcomes stay alive.
    std::vector<C> psi(std::size_t{1} << n,
                       C(1.0 / std::sqrt(static_cast<double>(1ULL << n))));
    state.ResumeTiming();
    const T p0 = qclab::sim::measureWeights(psi, n, n / 2)[0];
    qclab::sim::collapse(psi, n, n / 2, 0, p0);
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_ProbabilityAndCollapse)->DenseRange(8, 20, 4);

void BM_MidCircuitBranching(benchmark::State& state) {
  // k measured qubits -> 2^k branches; cost grows geometrically.
  const int nbMeasured = static_cast<int>(state.range(0));
  const int n = 10;
  qclab::QCircuit<T> circuit(n);
  for (int q = 0; q < n; ++q) {
    circuit.push_back(qclab::qgates::Hadamard<T>(q));
  }
  for (int q = 0; q < nbMeasured; ++q) {
    circuit.push_back(qclab::Measurement<T>(q));
  }
  const auto initial = qclab::basisState<T>(std::string(n, '0'));
  for (auto _ : state) {
    auto simulation = circuit.simulate(initial);
    benchmark::DoNotOptimize(simulation.branches().data());
  }
  state.counters["branches"] = static_cast<double>(1ULL << nbMeasured);
}
BENCHMARK(BM_MidCircuitBranching)->DenseRange(1, 8, 1);

void BM_BasisChangeMeasurement(benchmark::State& state) {
  // X-basis measurement costs two extra apply1 calls per branch.
  const int n = static_cast<int>(state.range(0));
  qclab::QCircuit<T> circuit(n);
  circuit.push_back(qclab::Measurement<T>(n / 2, 'x'));
  const auto initial = qclab::basisState<T>(
      std::string(static_cast<std::size_t>(n), '0'));
  for (auto _ : state) {
    auto simulation = circuit.simulate(initial);
    benchmark::DoNotOptimize(simulation.branches().data());
  }
}
BENCHMARK(BM_BasisChangeMeasurement)->DenseRange(8, 16, 4);

void BM_CountsSampling(benchmark::State& state) {
  const std::uint64_t shots = static_cast<std::uint64_t>(state.range(0));
  qclab::QCircuit<T> circuit(4);
  for (int q = 0; q < 4; ++q) {
    circuit.push_back(qclab::qgates::Hadamard<T>(q));
    circuit.push_back(qclab::Measurement<T>(q));
  }
  const auto simulation = circuit.simulate("0000");
  qclab::random::Rng rng(1);
  for (auto _ : state) {
    auto counts = simulation.counts(shots, rng);
    benchmark::DoNotOptimize(counts.data());
  }
  state.counters["shots/s"] = benchmark::Counter(
      static_cast<double>(shots) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CountsSampling)->RangeMultiplier(10)->Range(100, 1000000);

void BM_DirectSampling(benchmark::State& state) {
  // Direct |amplitude|^2 sampling of all qubits: the fast path for
  // terminal measurements — compare with BM_MidCircuitBranching, which
  // pays 2^k branches for k measured qubits.
  const int n = static_cast<int>(state.range(0));
  qclab::QCircuit<T> circuit(n);
  for (int q = 0; q < n; ++q) {
    circuit.push_back(qclab::qgates::Hadamard<T>(q));
  }
  const auto psi =
      circuit.simulate(std::string(static_cast<std::size_t>(n), '0'))
          .state(0);
  qclab::random::Rng rng(3);
  for (auto _ : state) {
    auto counts = qclab::sampleStateCounts(psi, 1024, rng);
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_DirectSampling)->DenseRange(4, 16, 4);

void BM_Reset(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qclab::QCircuit<T> circuit(n);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::Reset<T>(0));
  const auto initial = qclab::basisState<T>(
      std::string(static_cast<std::size_t>(n), '0'));
  for (auto _ : state) {
    auto simulation = circuit.simulate(initial);
    benchmark::DoNotOptimize(simulation.branches().data());
  }
}
BENCHMARK(BM_Reset)->DenseRange(8, 16, 4);

}  // namespace

QCLAB_BENCH_MAIN("bench_measurement")
