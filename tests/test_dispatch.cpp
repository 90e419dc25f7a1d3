/// \file test_dispatch.cpp
/// \brief Differential verification of the adaptive multi-backend
/// dispatcher (sim/dispatch.hpp): circuit analysis, tableau ->
/// statevector conversion, routed simulation vs. the pure statevector
/// pipeline, fallback behavior, and the counts-level sampler.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "test_helpers.hpp"

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

namespace qclab::sim {
namespace {

using namespace qclab::qgates;

/// EXPECT that two states match up to one global phase: the phase is
/// aligned on the largest reference amplitude, then compared entrywise.
template <typename T, typename StateA, typename StateB>
void expectStatePhaseNear(const StateA& reference, const StateB& state,
                          T tolerance = test::tol<T>()) {
  ASSERT_EQ(reference.size(), state.size());
  std::size_t anchor = 0;
  for (std::size_t i = 1; i < reference.size(); ++i) {
    if (std::abs(reference[i]) > std::abs(reference[anchor])) anchor = i;
  }
  ASSERT_GT(std::abs(reference[anchor]), T(0.1));
  ASSERT_GT(std::abs(state[anchor]), T(1e-3))
      << "states have different support";
  std::complex<T> phase = reference[anchor] / state[anchor];
  phase /= std::abs(phase);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_LE(std::abs(reference[i] - phase * state[i]), tolerance)
        << "amplitude " << i << " differs beyond global phase";
  }
}

/// EXPECT that a dispatched simulation reproduces the statevector
/// reference: same branch tree (results in order), matching
/// probabilities, and per-branch states equal up to global phase.
template <typename T>
void expectSimulationsMatch(const Simulation<T>& reference,
                            const Simulation<T>& dispatched,
                            T tolerance = test::tol<T>()) {
  ASSERT_EQ(reference.nbBranches(), dispatched.nbBranches());
  for (std::size_t b = 0; b < reference.nbBranches(); ++b) {
    EXPECT_EQ(reference.result(b), dispatched.result(b)) << "branch " << b;
    EXPECT_NEAR(reference.probability(b), dispatched.probability(b),
                static_cast<double>(tolerance))
        << "branch " << b;
    expectStatePhaseNear<T>(reference.branches()[b].state,
                            dispatched.branches()[b].state, tolerance);
  }
}

/// Random Clifford generator mirroring the stabilizer test suite, plus
/// optional controlState-0 controls and value-Clifford rotations.
template <typename T>
void addRandomCliffords(QCircuit<T>& circuit, int length, random::Rng& rng) {
  const int n = circuit.nbQubits();
  auto qubit = [&]() { return static_cast<int>(rng.uniformInt(n)); };
  auto pair = [&]() {
    const int a = qubit();
    int b = qubit();
    while (b == a) b = qubit();
    return std::pair<int, int>{a, b};
  };
  const T half = static_cast<T>(M_PI_2);
  for (int i = 0; i < length; ++i) {
    switch (rng.uniformInt(n > 1 ? 16 : 10)) {
      case 0: circuit.push_back(Hadamard<T>(qubit())); break;
      case 1: circuit.push_back(SGate<T>(qubit())); break;
      case 2: circuit.push_back(SdgGate<T>(qubit())); break;
      case 3: circuit.push_back(PauliX<T>(qubit())); break;
      case 4: circuit.push_back(PauliY<T>(qubit())); break;
      case 5: circuit.push_back(PauliZ<T>(qubit())); break;
      case 6: circuit.push_back(SX<T>(qubit())); break;
      case 7: circuit.push_back(RotationY<T>(qubit(), half)); break;
      case 8: circuit.push_back(RotationX<T>(qubit(), half)); break;
      case 9:
        circuit.push_back(Phase<T>(qubit(), half));
        break;
      case 10: {
        const auto [a, b] = pair();
        circuit.push_back(
            CX<T>(a, b, static_cast<int>(rng.uniformInt(2))));
        break;
      }
      case 11: {
        const auto [a, b] = pair();
        circuit.push_back(CZ<T>(a, b));
        break;
      }
      case 12: {
        const auto [a, b] = pair();
        circuit.push_back(SWAP<T>(a, b));
        break;
      }
      case 13: {
        const auto [a, b] = pair();
        circuit.push_back(iSWAP<T>(a, b));
        break;
      }
      case 14: {
        const auto [a, b] = pair();
        circuit.push_back(
            RotationZZ<T>(std::min(a, b), std::max(a, b), half));
        break;
      }
      default: {
        const auto [a, b] = pair();
        circuit.push_back(CY<T>(a, b));
        break;
      }
    }
  }
}

template <typename T>
SimulateOptions dispatchOptions(DispatchMode mode, bool fusion = false) {
  SimulateOptions options;
  options.dispatch = mode;
  options.dispatchOptions.minCliffordPrefixOps = 0;
  options.fusion = fusion;
  return options;
}

// ---- circuit analysis ----------------------------------------------------

TEST(Dispatch, AnalyzerCensusPrefixAndFraction) {
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  QCircuit<double> inner(2, 1);  // nested sub-circuit, offset 1
  inner.push_back(CZ<double>(0, 1));
  circuit.push_back(inner);
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Barrier<double>(0, 2));
  circuit.push_back(TGate<double>(2));  // first non-Clifford op
  circuit.push_back(Hadamard<double>(2));
  circuit.push_back(Reset<double>(1));

  const auto analysis = analyzeCircuit(circuit);
  EXPECT_EQ(analysis.nbQubits, 3);
  EXPECT_EQ(analysis.ops.size(), 8u);  // sub-circuit flattened away
  EXPECT_EQ(analysis.nbGates, 5u);
  EXPECT_EQ(analysis.nbCliffordGates, 4u);
  EXPECT_EQ(analysis.nbMeasurements, 1u);
  EXPECT_EQ(analysis.nbResets, 1u);
  EXPECT_EQ(analysis.cliffordPrefixOps, 5u);  // up to and incl. barrier
  EXPECT_FALSE(analysis.fullyClifford);
  EXPECT_DOUBLE_EQ(analysis.cliffordFraction, 4.0 / 5.0);
  EXPECT_EQ(analysis.census.at("measure"), 1u);
  EXPECT_EQ(analysis.census.at("reset"), 1u);
  EXPECT_EQ(analysis.census.at("barrier"), 1u);
  EXPECT_EQ(analysis.census.at("H"), 2u);
  // The nested CZ carries the accumulated offset of its sub-circuit.
  EXPECT_EQ(analysis.ops[2].offset, 1);
}

TEST(Dispatch, AnalyzerFullyCliffordCircuit) {
  auto ghz = algorithms::ghz<double>(4);
  const auto analysis = analyzeCircuit(ghz);
  EXPECT_TRUE(analysis.fullyClifford);
  EXPECT_EQ(analysis.cliffordPrefixOps, analysis.ops.size());
  EXPECT_DOUBLE_EQ(analysis.cliffordFraction, 1.0);
}

// ---- tableau -> statevector conversion (satellite 2) ---------------------

TEST(Dispatch, ConvertGhzBitExact) {
  for (int n = 2; n <= 6; ++n) {
    stabilizer::Tableau tableau(n);
    tableau.h(0);
    for (int q = 1; q < n; ++q) tableau.cx(q - 1, q);
    const auto state = tableauToStatevector<double>(tableau);

    auto circuit = algorithms::ghz<double>(n);
    const auto reference =
        circuit.simulate(std::string(static_cast<std::size_t>(n), '0'));
    ASSERT_EQ(reference.nbBranches(), 1u);
    const auto& expected = reference.branches()[0].state;
    ASSERT_EQ(state.size(), expected.size());
    for (std::size_t i = 0; i < state.size(); ++i) {
      EXPECT_EQ(state[i].real(), expected[i].real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(state[i].imag(), expected[i].imag()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Dispatch, ConvertRingGraphStateBitExact) {
  // 4-qubit ring graph state: H on all, CZ on ring edges.  Exercises
  // rank-n conversion with sign rows from the CZ entangling pattern.
  const int n = 4;
  stabilizer::Tableau tableau(n);
  QCircuit<double> circuit(n);
  for (int q = 0; q < n; ++q) {
    tableau.h(q);
    circuit.push_back(Hadamard<double>(q));
  }
  for (int q = 0; q < n; ++q) {
    tableau.cz(q, (q + 1) % n);
    circuit.push_back(CZ<double>(q, (q + 1) % n));
  }
  const auto state = tableauToStatevector<double>(tableau);
  const auto reference = circuit.simulate("0000");
  const auto& expected = reference.branches()[0].state;
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_EQ(state[i].real(), expected[i].real()) << i;
    EXPECT_EQ(state[i].imag(), expected[i].imag()) << i;
  }
}

TEST(Dispatch, ConvertYEigenstatesBitExact) {
  // +Y = S H |0>, -Y = Sdg H |0>: exercises the i / -i phase tracking.
  for (const bool plus : {true, false}) {
    stabilizer::Tableau tableau(1);
    tableau.h(0);
    if (plus) tableau.s(0);
    else tableau.sdg(0);
    const auto state = tableauToStatevector<double>(tableau);

    QCircuit<double> circuit(1);
    circuit.push_back(Hadamard<double>(0));
    if (plus) circuit.push_back(SGate<double>(0));
    else circuit.push_back(SdgGate<double>(0));
    const auto reference = circuit.simulate("0");
    const auto& expected = reference.branches()[0].state;
    for (std::size_t i = 0; i < state.size(); ++i) {
      EXPECT_EQ(state[i].real(), expected[i].real()) << i;
      EXPECT_EQ(state[i].imag(), expected[i].imag()) << i;
    }
  }
}

TEST(Dispatch, ConvertSignRowsComputationalStates) {
  // X flips push "-" signs into the stabilizer rows; the conversion must
  // reproduce every computational basis state exactly.
  const int n = 3;
  for (util::index_t bits = 0; bits < (util::index_t{1} << n); ++bits) {
    stabilizer::Tableau tableau(n);
    for (int q = 0; q < n; ++q) {
      if (util::getBit(bits, util::bitPosition(q, n))) tableau.x(q);
    }
    const auto state = tableauToStatevector<double>(tableau);
    for (util::index_t i = 0; i < state.size(); ++i) {
      EXPECT_EQ(state[i], (i == bits ? std::complex<double>(1, 0)
                                     : std::complex<double>(0, 0)));
    }
  }
}

TEST(Dispatch, ConvertRandomCliffordStatesFloatAndDouble) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    random::Rng rng(seed);
    const int n = 1 + static_cast<int>(rng.uniformInt(5));
    QCircuit<double> circuit(n);
    addRandomCliffords(circuit, 25, rng);

    stabilizer::Tableau tableau(n);
    for (const auto& object : circuit) {
      stabilizer::detail::applyGate(
          tableau, static_cast<const qgates::QGate<double>&>(*object), 0);
    }
    const auto state = tableauToStatevector<double>(tableau);
    const auto reference =
        circuit.simulate(std::string(static_cast<std::size_t>(n), '0'));
    expectStatePhaseNear<double>(reference.branches()[0].state, state);
  }
}

// ---- routed simulation vs. statevector (tentpole + satellite 1) ----------

TEST(Dispatch, FullyCliffordRouteMatchesStatevector) {
  const obs::Metrics& m = obs::metrics();
  const std::uint64_t routedBefore =
      m.dispatchRoutes(DispatchRoute::kStabilizer);
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(CX<double>(1, 2));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  circuit.push_back(Measurement<double>(2));

  const auto reference = circuit.simulate("000");
  const auto dispatched =
      circuit.simulate("000", dispatchOptions<double>(DispatchMode::kAuto));
  expectSimulationsMatch(reference, dispatched);
  if (obs::kEnabled) {
    EXPECT_EQ(m.dispatchRoutes(DispatchRoute::kStabilizer), routedBefore + 1);
  }
}

TEST(Dispatch, HybridConversionMatchesStatevector) {
  const obs::Metrics& m = obs::metrics();
  const std::uint64_t hybridBefore = m.dispatchRoutes(DispatchRoute::kHybrid);
  const std::uint64_t conversionsBefore = m.dispatchConversions();
  // Clifford prefix (GHZ + measurement fork), then T and H suffix.
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(CX<double>(1, 2));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(TGate<double>(1));
  circuit.push_back(Hadamard<double>(2));
  circuit.push_back(Measurement<double>(2));

  const auto reference = circuit.simulate("000");
  const auto dispatched =
      circuit.simulate("000", dispatchOptions<double>(DispatchMode::kAuto));
  expectSimulationsMatch(reference, dispatched);
  if (obs::kEnabled) {
    EXPECT_EQ(m.dispatchRoutes(DispatchRoute::kHybrid), hybridBefore + 1);
    // Two branches existed at the conversion point (the measurement fork).
    EXPECT_EQ(m.dispatchConversions(), conversionsBefore + 2);
  }
}

TEST(Dispatch, AutoShortPrefixFallsBackToStatevector) {
  QCircuit<double> circuit(2);
  circuit.push_back(TGate<double>(0));  // non-Clifford from op 0
  circuit.push_back(Hadamard<double>(1));
  // The reference run below also counts a statevector route, so take it
  // before sampling the counter.
  const auto reference = circuit.simulate("00");

  const obs::Metrics& m = obs::metrics();
  const std::uint64_t statevectorBefore =
      m.dispatchRoutes(DispatchRoute::kStatevector);
  SimulateOptions options;
  options.dispatch = DispatchMode::kAuto;  // default min prefix of 4
  const auto dispatched = circuit.simulate("00", options);
  expectSimulationsMatch(reference, dispatched);
  if (obs::kEnabled) {
    EXPECT_EQ(m.dispatchRoutes(DispatchRoute::kStatevector),
              statevectorBefore + 1);
  }
}

TEST(Dispatch, DeclinedAutoRouteHonoursTheStateTier) {
  // A kAuto request the router declines runs on the same statevector
  // pipeline as a kStatevector request, state tier included.  Compared
  // route against route, so this also holds where mmap falls back to heap.
  QCircuit<double> circuit(3);
  circuit.push_back(TGate<double>(0));  // non-Clifford from op 0
  circuit.push_back(Hadamard<double>(1));
  SimulateOptions direct;
  direct.stateTier.tier = StateTier::kMmap;
  SimulateOptions routed = direct;
  routed.dispatch = DispatchMode::kAuto;

  const auto reference = circuit.simulate("010", direct);
  const auto declined = circuit.simulate("010", routed);
  EXPECT_EQ(declined.stateBuffer(0).tier(), reference.stateBuffer(0).tier());
  expectSimulationsMatch(reference, declined);

  ::setenv("QCLAB_DISPATCH", "auto", 1);
  const auto overridden = circuit.simulate("010", direct);
  ::unsetenv("QCLAB_DISPATCH");
  EXPECT_EQ(overridden.stateBuffer(0).tier(),
            reference.stateBuffer(0).tier());
  expectSimulationsMatch(reference, overridden);
}

TEST(Dispatch, ForcedStabilizerOnNonCliffordStartStillMatches) {
  // kStabilizer with an immediately non-Clifford circuit: the prefix is
  // empty, so the tableau converts |bits> straight away and the whole
  // circuit runs as suffix.
  QCircuit<double> circuit(2);
  circuit.push_back(TGate<double>(0));
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  const auto dispatched = circuit.simulate(
      "10", dispatchOptions<double>(DispatchMode::kStabilizer));
  expectSimulationsMatch(circuit.simulate("10"), dispatched);
}

TEST(Dispatch, ControlStateZeroControls) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1, 0));  // fires on control |0>
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  const auto dispatched = circuit.simulate(
      "00", dispatchOptions<double>(DispatchMode::kStabilizer));
  expectSimulationsMatch(circuit.simulate("00"), dispatched);
}

TEST(Dispatch, ResetsForkAndMatchStatevector) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Reset<double>(0));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  const auto dispatched = circuit.simulate(
      "00", dispatchOptions<double>(DispatchMode::kAuto));
  expectSimulationsMatch(circuit.simulate("00"), dispatched);
}

TEST(Dispatch, XAndYBasisMeasurements) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(SGate<double>(0));
  circuit.push_back(Hadamard<double>(1));
  circuit.push_back(Measurement<double>(0, 'y'));  // deterministic +Y
  circuit.push_back(Measurement<double>(1, 'x'));  // deterministic +X
  const auto dispatched = circuit.simulate(
      "00", dispatchOptions<double>(DispatchMode::kAuto));
  expectSimulationsMatch(circuit.simulate("00"), dispatched);
  ASSERT_EQ(dispatched.nbBranches(), 1u);
  EXPECT_EQ(dispatched.result(0), "00");
}

/// Differential fuzz (satellite 1): random Clifford (+T) circuits with
/// interleaved measurements, compared branch-for-branch against the pure
/// statevector pipeline, across scalar types and fusion settings.
template <typename T>
void fuzzOnce(std::uint64_t seed, bool withT, bool fusion) {
  random::Rng rng(seed);
  const int n = 1 + static_cast<int>(rng.uniformInt(6));
  QCircuit<T> circuit(n);
  const int segments = 2 + static_cast<int>(rng.uniformInt(2));
  for (int s = 0; s < segments; ++s) {
    addRandomCliffords(circuit, 8, rng);
    if (withT && s == segments - 1) {
      // Non-Clifford tail: T plus more Cliffords after the conversion.
      circuit.push_back(
          qgates::TGate<T>(static_cast<int>(rng.uniformInt(n))));
      addRandomCliffords(circuit, 4, rng);
    }
    circuit.push_back(
        Measurement<T>(static_cast<int>(rng.uniformInt(n))));
  }
  const auto reference =
      circuit.simulate(std::string(static_cast<std::size_t>(n), '0'),
                       SimulateOptions{});
  const auto dispatched = circuit.simulate(
      std::string(static_cast<std::size_t>(n), '0'),
      dispatchOptions<T>(DispatchMode::kAuto, fusion));
  // Float tolerance is driven by the statevector kernels' rounding, not
  // the tableau (which is exact): loosen proportionally.
  expectSimulationsMatch<T>(reference, dispatched,
                            withT ? T(100) * test::tol<T>() : test::tol<T>());
}

TEST(Dispatch, DifferentialFuzzCliffordDouble) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    fuzzOnce<double>(seed, false, false);
  }
}

TEST(Dispatch, DifferentialFuzzCliffordFloat) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    fuzzOnce<float>(seed, false, false);
  }
}

TEST(Dispatch, DifferentialFuzzCliffordPlusTDouble) {
  for (std::uint64_t seed = 21; seed <= 32; ++seed) {
    fuzzOnce<double>(seed, true, false);
  }
}

TEST(Dispatch, DifferentialFuzzCliffordPlusTFloat) {
  for (std::uint64_t seed = 21; seed <= 28; ++seed) {
    fuzzOnce<float>(seed, true, false);
  }
}

TEST(Dispatch, DifferentialFuzzWithFusion) {
  for (std::uint64_t seed = 41; seed <= 48; ++seed) {
    fuzzOnce<double>(seed, true, true);
  }
}

// ---- seeded determinism (satellite 3) ------------------------------------

TEST(Dispatch, RoutedSimulationIsDeterministic) {
  // The dispatcher explores both outcomes of every 50/50 measurement
  // instead of sampling, so repeated runs are bit-identical.
  QCircuit<double> circuit(4);
  random::Rng rng(7);
  addRandomCliffords(circuit, 20, rng);
  for (int q = 0; q < 4; ++q) circuit.push_back(Measurement<double>(q));
  const auto options = dispatchOptions<double>(DispatchMode::kAuto);
  const auto first = circuit.simulate("0000", options);
  const auto second = circuit.simulate("0000", options);
  ASSERT_EQ(first.nbBranches(), second.nbBranches());
  for (std::size_t b = 0; b < first.nbBranches(); ++b) {
    EXPECT_EQ(first.result(b), second.result(b));
    EXPECT_EQ(first.probability(b), second.probability(b));
    EXPECT_EQ(first.branches()[b].state, second.branches()[b].state);
  }
}

TEST(Dispatch, SampleCountsSeededDeterminism) {
  const int n = 40;
  QCircuit<double> circuit(n);
  circuit.push_back(Hadamard<double>(0));
  for (int q = 1; q < n; ++q) circuit.push_back(CX<double>(q - 1, q));
  for (int q = 0; q < n; ++q) circuit.push_back(Measurement<double>(q));
  const auto first = dispatchSampleCounts(circuit, 600, 1234);
  const auto second = dispatchSampleCounts(circuit, 600, 1234);
  EXPECT_EQ(first, second);
  const auto other = dispatchSampleCounts(circuit, 600, 4321);
  EXPECT_NE(first, other);  // 600 coin flips: astronomically unlikely equal
}

TEST(Dispatch, SampleCountsThreadCountInvariant) {
  // Fixed shot chunks map to fixed rng jump streams, so the histogram
  // cannot depend on how chunks are scheduled over threads.
  QCircuit<double> circuit(5);
  random::Rng rng(11);
  addRandomCliffords(circuit, 25, rng);
  for (int q = 0; q < 5; ++q) circuit.push_back(Measurement<double>(q));
#ifdef QCLAB_HAS_OPENMP
  const int before = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto single = dispatchSampleCounts(circuit, 1500, 99);
  omp_set_num_threads(8);
  const auto parallel = dispatchSampleCounts(circuit, 1500, 99);
  omp_set_num_threads(before);
  EXPECT_EQ(single, parallel);
#else
  const auto first = dispatchSampleCounts(circuit, 1500, 99);
  const auto second = dispatchSampleCounts(circuit, 1500, 99);
  EXPECT_EQ(first, second);
#endif
}

TEST(Dispatch, SampleCountsMatchesSimulateDistribution) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  const auto histogram = dispatchSampleCounts(circuit, 2000, 5);
  ASSERT_EQ(histogram.size(), 2u);
  EXPECT_NEAR(static_cast<double>(histogram.at("00")) / 2000.0, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(histogram.at("11")) / 2000.0, 0.5, 0.05);
}

TEST(Dispatch, SampleCountsScalesBeyondStatevectorReach) {
  // 128 qubits: far beyond any statevector, instant on the tableau.
  const int n = 128;
  QCircuit<double> circuit(n);
  circuit.push_back(Hadamard<double>(0));
  for (int q = 1; q < n; ++q) circuit.push_back(CX<double>(q - 1, q));
  for (int q = 0; q < n; ++q) circuit.push_back(Measurement<double>(q));
  const auto histogram = dispatchSampleCounts(circuit, 64, 3);
  std::uint64_t total = 0;
  for (const auto& [outcome, count] : histogram) {
    EXPECT_TRUE(outcome == std::string(n, '0') ||
                outcome == std::string(n, '1'))
        << outcome;
    total += count;
  }
  EXPECT_EQ(total, 64u);
}

// ---- typed unsupported-gate errors & fallback (satellite 4) --------------

TEST(Dispatch, SampleCountsRejectsNonCliffordTyped) {
  QCircuit<double> circuit(1);
  circuit.push_back(TGate<double>(0));
  EXPECT_THROW(dispatchSampleCounts(circuit, 10, 1), UnsupportedGateError);
  // The typed error stays catchable as the base InvalidArgumentError.
  EXPECT_THROW(dispatchSampleCounts(circuit, 10, 1), InvalidArgumentError);
}

TEST(Dispatch, UnsupportedGateProbeIsExactlyTheExecutor) {
  // isCliffordGate must agree with applyGate: value-Clifford angles pass,
  // everything else raises the typed error.
  EXPECT_TRUE(stabilizer::isCliffordGate(RotationY<double>(0, M_PI_2)));
  EXPECT_TRUE(stabilizer::isCliffordGate(CPhase<double>(0, 1, M_PI)));
  EXPECT_FALSE(stabilizer::isCliffordGate(TGate<double>(0)));
  EXPECT_FALSE(stabilizer::isCliffordGate(RotationY<double>(0, 0.3)));
  EXPECT_FALSE(stabilizer::isCliffordGate(CPhase<double>(0, 1, M_PI_2)));
  stabilizer::Tableau tableau(1);
  EXPECT_THROW(
      stabilizer::detail::applyGate(tableau, TGate<double>(0), 0),
      UnsupportedGateError);
}

TEST(Dispatch, EnvOverrideRoutesThroughStabilizer) {
  const obs::Metrics& m = obs::metrics();
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));

  ::setenv("QCLAB_DISPATCH", "stabilizer", 1);
  const std::uint64_t routedBefore =
      m.dispatchRoutes(DispatchRoute::kStabilizer);
  const auto dispatched = circuit.simulate("00");  // default options
  if (obs::kEnabled) {
    EXPECT_EQ(m.dispatchRoutes(DispatchRoute::kStabilizer), routedBefore + 1);
  }

  ::setenv("QCLAB_DISPATCH", "statevector", 1);
  const std::uint64_t statevectorBefore =
      m.dispatchRoutes(DispatchRoute::kStatevector);
  const auto reference = circuit.simulate(
      "00", dispatchOptions<double>(DispatchMode::kStabilizer));
  if (obs::kEnabled) {
    EXPECT_EQ(m.dispatchRoutes(DispatchRoute::kStatevector),
              statevectorBefore + 1);
  }
  ::unsetenv("QCLAB_DISPATCH");

  expectSimulationsMatch(reference, dispatched);
}

/// Gate-coverage sweep (satellite 4): every value-Clifford gate the
/// catalog can express applies on the tableau and matches the
/// statevector, sandwiched in an entangling context.
TEST(Dispatch, GateCoverageValueCliffords) {
  using G = std::unique_ptr<qgates::QGate<double>>;
  std::vector<G> gates;
  const double q1 = M_PI_2, q2 = M_PI, q3 = 3 * M_PI_2;
  gates.push_back(std::make_unique<Identity<double>>(0));
  gates.push_back(std::make_unique<SXdg<double>>(1));
  gates.push_back(std::make_unique<SdgGate<double>>(2));
  for (const double theta : {q1, q2, q3, -q1, -q2}) {
    gates.push_back(std::make_unique<RotationX<double>>(0, theta));
    gates.push_back(std::make_unique<RotationY<double>>(1, theta));
    gates.push_back(std::make_unique<RotationZ<double>>(2, theta));
    gates.push_back(std::make_unique<RotationZZ<double>>(0, 1, theta));
    gates.push_back(std::make_unique<RotationXX<double>>(1, 2, theta));
    gates.push_back(std::make_unique<RotationYY<double>>(0, 2, theta));
  }
  for (const double theta : {q1, q2, -q1}) {
    gates.push_back(std::make_unique<Phase<double>>(1, theta));
  }
  gates.push_back(std::make_unique<CPhase<double>>(0, 1, M_PI));
  gates.push_back(std::make_unique<CPhase<double>>(1, 2, M_PI, 0));
  gates.push_back(std::make_unique<CRotationX<double>>(0, 2, M_PI));
  gates.push_back(std::make_unique<CRotationY<double>>(2, 1, M_PI));
  gates.push_back(std::make_unique<CRotationZ<double>>(1, 0, M_PI));
  gates.push_back(std::make_unique<CY<double>>(0, 1));
  gates.push_back(std::make_unique<CY<double>>(1, 2, 0));
  gates.push_back(std::make_unique<iSWAPdg<double>>(0, 2));
  gates.push_back(std::make_unique<MCX<double>>(std::vector<int>{0}, 2,
                                                std::vector<int>{0}));
  gates.push_back(std::make_unique<MCZ<double>>(std::vector<int>{1}, 2,
                                                std::vector<int>{1}));

  for (const auto& gate : gates) {
    ASSERT_TRUE(stabilizer::isCliffordGate(*gate))
        << qgates::gateKindLabel(*gate);
    QCircuit<double> circuit(3);
    circuit.push_back(Hadamard<double>(0));
    circuit.push_back(Hadamard<double>(1));
    circuit.push_back(CX<double>(0, 2));
    circuit.push_back(gate->clone());
    circuit.push_back(CZ<double>(1, 2));
    const auto dispatched = circuit.simulate(
        "000", dispatchOptions<double>(DispatchMode::kStabilizer));
    expectSimulationsMatch(circuit.simulate("000"), dispatched);
  }
}

TEST(Dispatch, GateCoverageRejectsNearMisses) {
  // Angles a hair off the Clifford grid must NOT silently snap.
  EXPECT_FALSE(stabilizer::isCliffordGate(RotationY<double>(0, M_PI_2 + 1e-3)));
  EXPECT_FALSE(stabilizer::isCliffordGate(Phase<double>(0, M_PI_2 + 1e-3)));
  EXPECT_FALSE(
      stabilizer::isCliffordGate(RotationZZ<double>(0, 1, M_PI_2 + 1e-3)));
  // Two-control MCX (Toffoli) is not Clifford.
  EXPECT_FALSE(stabilizer::isCliffordGate(
      MCX<double>(std::vector<int>{0, 1}, 2, std::vector<int>{1, 1})));
  // ...but the dispatcher still yields correct results by conversion.
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(Hadamard<double>(1));
  circuit.push_back(MCX<double>(std::vector<int>{0, 1}, 2,
                                std::vector<int>{1, 1}));
  circuit.push_back(Measurement<double>(2));
  const auto dispatched = circuit.simulate(
      "000", dispatchOptions<double>(DispatchMode::kAuto));
  expectSimulationsMatch(circuit.simulate("000"), dispatched);
}

}  // namespace
}  // namespace qclab::sim
