#pragma once

/// \file test_helpers.hpp
/// \brief Shared helpers for the test suite: tolerances, matrix comparison,
/// random unitaries, and a random-circuit generator used by the
/// backend-equivalence and transpiler property tests.

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "qclab/qclab.hpp"

namespace qclab::test {

/// Forces a SIMD dispatch level for one scope and restores the previous
/// one (the level is clamped to what the build and the CPU support).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(sim::SimdLevel level)
      : previous_(sim::setSimdLevel(level)) {}
  ~ScopedSimdLevel() { sim::setSimdLevel(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  sim::SimdLevel previous_;
};

/// Comparison tolerance per scalar type.
template <typename T>
constexpr T tol() {
  return T(1e5) * std::numeric_limits<T>::epsilon();  // ~2e-11 for double
}

/// EXPECT that two matrices match entrywise within `tolerance`.
template <typename T>
void expectMatrixNear(const dense::Matrix<T>& a, const dense::Matrix<T>& b,
                      T tolerance = tol<T>()) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_LE(a.distanceMax(b), tolerance)
      << "matrices differ by " << a.distanceMax(b);
}

/// EXPECT that two state vectors match entrywise within `tolerance`.
template <typename T>
void expectStateNear(const std::vector<std::complex<T>>& a,
                     const std::vector<std::complex<T>>& b,
                     T tolerance = tol<T>()) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LE(dense::distanceMax(a, b), tolerance)
      << "states differ by " << dense::distanceMax(a, b);
}

/// Random single-qubit unitary (exactly unitary by construction:
/// phase * U3 matrix).
template <typename T>
dense::Matrix<T> randomUnitary1(random::Rng& rng) {
  const T theta = static_cast<T>(rng.uniform(0.0, 2.0 * M_PI));
  const T phi = static_cast<T>(rng.uniform(0.0, 2.0 * M_PI));
  const T lambda = static_cast<T>(rng.uniform(0.0, 2.0 * M_PI));
  auto u = qgates::U3<T>(0, theta, phi, lambda).matrix();
  const auto phase =
      std::polar(T(1), static_cast<T>(rng.uniform(0.0, 2.0 * M_PI)));
  return u * phase;
}

/// Random normalized state vector on `nbQubits` qubits.
template <typename T>
std::vector<std::complex<T>> randomState(int nbQubits, random::Rng& rng) {
  std::vector<std::complex<T>> state(std::size_t{1} << nbQubits);
  for (auto& amplitude : state) {
    amplitude = std::complex<T>(static_cast<T>(rng.normal()),
                                static_cast<T>(rng.normal()));
  }
  const T norm = dense::norm2(state);
  for (auto& amplitude : state) amplitude /= norm;
  return state;
}

/// Appends `length` random gates drawn from the full gate catalog to
/// `circuit` (no measurements/resets).
template <typename T>
void addRandomGates(QCircuit<T>& circuit, int length, random::Rng& rng) {
  using namespace qclab::qgates;
  const int n = circuit.nbQubits();
  auto randomQubit = [&]() { return static_cast<int>(rng.uniformInt(n)); };
  auto distinctPair = [&]() {
    const int q0 = randomQubit();
    int q1 = randomQubit();
    while (q1 == q0) q1 = randomQubit();
    return std::pair<int, int>{q0, q1};
  };
  auto angle = [&]() { return static_cast<T>(rng.uniform(-M_PI, M_PI)); };

  for (int i = 0; i < length; ++i) {
    // Single-qubit registers can only draw single-qubit gate kinds
    // (0-11 and the MatrixGate1 kind 18); MCX (kind 19) needs >= 3 qubits.
    std::uint64_t kind;
    if (n == 1) {
      kind = rng.uniformInt(13);
      if (kind == 12) kind = 18;
    } else {
      kind = rng.uniformInt(n >= 3 ? 20 : 19);
    }
    switch (kind) {
      case 0: circuit.push_back(Hadamard<T>(randomQubit())); break;
      case 1: circuit.push_back(PauliX<T>(randomQubit())); break;
      case 2: circuit.push_back(PauliY<T>(randomQubit())); break;
      case 3: circuit.push_back(PauliZ<T>(randomQubit())); break;
      case 4: circuit.push_back(SGate<T>(randomQubit())); break;
      case 5: circuit.push_back(TGate<T>(randomQubit())); break;
      case 6: circuit.push_back(SX<T>(randomQubit())); break;
      case 7: circuit.push_back(Phase<T>(randomQubit(), angle())); break;
      case 8: circuit.push_back(RotationX<T>(randomQubit(), angle())); break;
      case 9: circuit.push_back(RotationY<T>(randomQubit(), angle())); break;
      case 10: circuit.push_back(RotationZ<T>(randomQubit(), angle())); break;
      case 11:
        circuit.push_back(
            U3<T>(randomQubit(), angle(), angle(), angle()));
        break;
      case 12: {
        const auto [q0, q1] = distinctPair();
        circuit.push_back(CX<T>(q0, q1, static_cast<int>(rng.uniformInt(2))));
        break;
      }
      case 13: {
        const auto [q0, q1] = distinctPair();
        circuit.push_back(CZ<T>(q0, q1));
        break;
      }
      case 14: {
        const auto [q0, q1] = distinctPair();
        circuit.push_back(CPhase<T>(q0, q1, angle()));
        break;
      }
      case 15: {
        const auto [q0, q1] = distinctPair();
        circuit.push_back(SWAP<T>(q0, q1));
        break;
      }
      case 16: {
        const auto [q0, q1] = distinctPair();
        circuit.push_back(iSWAP<T>(q0, q1));
        break;
      }
      case 17: {
        const auto [q0, q1] = distinctPair();
        circuit.push_back(RotationZZ<T>(q0, q1, angle()));
        break;
      }
      case 18:
        circuit.push_back(
            MatrixGate1<T>(randomQubit(), randomUnitary1<T>(rng)));
        break;
      case 19: {
        // Toffoli-like MCX with random control states (needs >= 3 qubits).
        int q0 = randomQubit(), q1 = randomQubit(), q2 = randomQubit();
        while (q1 == q0) q1 = randomQubit();
        while (q2 == q0 || q2 == q1) q2 = randomQubit();
        circuit.push_back(
            MCX<T>({q0, q1}, q2,
                   {static_cast<int>(rng.uniformInt(2)),
                    static_cast<int>(rng.uniformInt(2))}));
        break;
      }
      default: break;
    }
  }
}

/// A random `length`-gate circuit on `nbQubits` qubits.
template <typename T>
QCircuit<T> randomCircuit(int nbQubits, int length, std::uint64_t seed) {
  random::Rng rng(seed);
  QCircuit<T> circuit(nbQubits);
  addRandomGates(circuit, length, rng);
  return circuit;
}

}  // namespace qclab::test
