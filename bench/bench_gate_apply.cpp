/// \file bench_gate_apply.cpp
/// \brief Experiment P2: per-gate-type application cost of the QCLAB++-style
/// kernel backend as a function of register size.  The expected shape is
/// O(2^n) per gate with diagonal < single-qubit < controlled < general
/// two-qubit constants.  The Hadamard, CNOT and measurement rows also run
/// at n = 2 and 5, the sizes of the paper's worked examples, where the
/// fixed cost of one kernel call is the whole row.

#include <benchmark/benchmark.h>

#include "obs_main.hpp"

#include "qclab/qclab.hpp"

namespace {

using T = double;
using C = std::complex<T>;

std::vector<C> makeState(int nbQubits) {
  std::vector<C> state(std::size_t{1} << nbQubits);
  state[0] = C(1);
  return state;
}

void BM_Hadamard(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  const auto u = qclab::qgates::Hadamard<T>(0).matrix();
  for (auto _ : state) {
    qclab::sim::apply1(psi, n, n / 2, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) *
                          sizeof(C));
}
BENCHMARK(BM_Hadamard)->Arg(2)->Arg(5)->DenseRange(8, 20, 4);

void BM_DiagonalRz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationZ<T>(0, 0.7).matrix();
  for (auto _ : state) {
    qclab::sim::applyDiagonal1(psi, n, n / 2, u(0, 0), u(1, 1));
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) *
                          sizeof(C));
}
BENCHMARK(BM_DiagonalRz)->DenseRange(8, 20, 4);

void BM_Cnot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  for (auto _ : state) {
    qclab::sim::applyControlled1(psi, n, {0}, {1}, n - 1,
                                 qclab::dense::pauliX<T>());
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_Cnot)->Arg(2)->Arg(5)->DenseRange(8, 20, 4);

void BM_Toffoli(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  for (auto _ : state) {
    qclab::sim::applyControlled1(psi, n, {0, 1}, {1, 1}, n - 1,
                                 qclab::dense::pauliX<T>());
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_Toffoli)->DenseRange(8, 20, 4);

void BM_Swap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  for (auto _ : state) {
    qclab::sim::applySwap(psi, n, 0, n - 1);
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_Swap)->DenseRange(8, 20, 4);

void BM_GeneralTwoQubit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationXX<T>(0, 1, 0.9).matrix();
  for (auto _ : state) {
    qclab::sim::applyK(psi, n, {0, n - 1}, u);
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_GeneralTwoQubit)->DenseRange(8, 20, 4);

// ---- SIMD tier: scalar vs vectorized, long vs short runs --------------
//
// Arg 0 is the register size, arg 1 the dispatch level (0 = scalar,
// 1 = highest detected).  Low qubit INDEX = high bit position = long
// unit-stride runs (the SIMD-friendly case); qubit n-1 has stride-1
// runs where the vector kernels cannot engage.

qclab::sim::SimdLevel benchLevel(const benchmark::State& state) {
  return state.range(1) ? qclab::sim::detectedSimdLevel()
                        : qclab::sim::SimdLevel::kScalar;
}

void BM_Apply1LongRuns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::Hadamard<T>(0).matrix();
  for (auto _ : state) {
    qclab::sim::apply1(psi, n, 0, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_Apply1LongRuns)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

void BM_Apply1ShortRuns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::Hadamard<T>(0).matrix();
  for (auto _ : state) {
    qclab::sim::apply1(psi, n, n - 1, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_Apply1ShortRuns)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

void BM_DiagonalLongRuns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationZ<T>(0, 0.7).matrix();
  for (auto _ : state) {
    qclab::sim::applyDiagonal1(psi, n, 0, u(0, 0), u(1, 1));
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_DiagonalLongRuns)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

// The fused-2 hot path: a dense 4x4 block (what a fused pair of gates
// becomes) applied through apply2's quad-run kernel vs applyK's
// gather/scatter on the same targets.
void BM_Fused2Apply2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationXX<T>(0, 1, 0.9).matrix();
  for (auto _ : state) {
    qclab::sim::apply2(psi, n, 0, 1, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_Fused2Apply2)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

// The fused-2 block at the bottom of the register.  Arg 2 is the low bit
// position: 0 puts the pair on qubits (n-2, n-1), where the low partner's
// stride is below a vector register; 2 puts it on (n-4, n-3), whose runs
// are one or two registers long.
void BM_Fused2Apply2ShortRuns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int low = static_cast<int>(state.range(2));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationXX<T>(0, 1, 0.9).matrix();
  for (auto _ : state) {
    qclab::sim::apply2(psi, n, n - 2 - low, n - 1 - low, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_Fused2Apply2ShortRuns)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}, {0, 2}});

// A fused diagonal block on qubits [first, first + k) through the
// run-structured sweep of applyDiagonalBlock.
void runDiagonalBlock(benchmark::State& state, int first, int k) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  std::vector<int> qubits;
  for (int q = first; q < first + k; ++q) qubits.push_back(q);
  std::vector<C> table(std::size_t{1} << k);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = std::polar(T(1), T(0.1) * static_cast<T>(i));
  }
  for (auto _ : state) {
    qclab::sim::applyDiagonalBlock(psi, n, qubits, table);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}

// The last min(9, n) qubits: a contiguous suffix, the cyclic table walk.
void BM_DiagonalBlockSuffix(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = std::min(9, n);
  runDiagonalBlock(state, n - k, k);
}
BENCHMARK(BM_DiagonalBlockSuffix)->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

// Qubits 0 to min(12, n) - 1: the block holds qubit 0, so the whole state
// is one group whose runs the team splits (below n = 13, the whole
// register: a suffix).
void BM_DiagonalBlockTopGroup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  runDiagonalBlock(state, 0, std::min(12, n));
}
BENCHMARK(BM_DiagonalBlockTopGroup)->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

void BM_Fused2ApplyK(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationXX<T>(0, 1, 0.9).matrix();
  for (auto _ : state) {
    qclab::sim::applyK(psi, n, {0, 1}, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
}
BENCHMARK(BM_Fused2ApplyK)->DenseRange(8, 20, 4);

// Both outcome weights of one qubit: the sweep every measurement and
// reset of a simulation runs (measureProbability0 takes its first).
void BM_MeasureProbability(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qclab::sim::measureWeights(psi, n, n / 2));
  }
}
BENCHMARK(BM_MeasureProbability)->Arg(2)->Arg(5)->DenseRange(8, 20, 4);

}  // namespace

QCLAB_BENCH_MAIN("bench_gate_apply")
