#pragma once

/// \file qasm.hpp
/// \brief OpenQASM 2.0 importer: parses what toQASM emits (the qelib1
/// standard gates, measure, reset, barrier) into a QCircuit; not gate
/// definitions, conditionals (`if`) or multiple registers.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qclab/io/qasm_lexer.hpp"
#include "qclab/qcircuit.hpp"

namespace qclab::io {
namespace detail {

/// One operation keyword: its angle and qubit counts and what it builds.
template <typename T>
struct QasmGate {
  std::string_view name;
  int nbAngles, nbQubits;
  std::unique_ptr<QObject<T>> (*make)(const int* qubits, const double*);
};

/// Builds G<T>(qubits[0..Q), T(angles[0..A))).
template <typename T, template <typename> class G, int Q, int A>
std::unique_ptr<QObject<T>> makeQasmGate(const int* qubits,
                                         const double* angles) {
  return [&]<std::size_t... I, std::size_t... J>(std::index_sequence<I...>,
                                                 std::index_sequence<J...>) {
    return std::make_unique<G<T>>(qubits[I]..., static_cast<T>(angles[J])...);
  }(std::make_index_sequence<Q>(), std::make_index_sequence<A>());
}

/// The row of G<T>, whose constructor takes Q qubits, then A angles.
template <typename T, template <typename> class G, int Q, int A = 0>
constexpr QasmGate<T> qasmGate(std::string_view name) {
  return {name, A, Q, &makeQasmGate<T, G, Q, A>};
}

/// c3x and c4x: an MCX with C controls, then the target.
template <typename T, int C>
std::unique_ptr<QObject<T>> makeQasmMcx(const int* qubits, const double*) {
  return std::make_unique<qgates::MCX<T>>(
      std::vector<int>(qubits, qubits + C), qubits[C]);
}

/// The row of keyword `name`, or nullptr; the linear scan meets the
/// keywords toQASM writes most first.
template <typename T>
const QasmGate<T>* findQasmGate(std::string_view name) {
  using namespace qgates;
  static constexpr QasmGate<T> kGates[] = {
      qasmGate<T, Hadamard, 1>("h"), qasmGate<T, CX, 2>("cx"),
      qasmGate<T, PauliX, 1>("x"), qasmGate<T, Measurement, 1>("measure"),
      qasmGate<T, CZ, 2>("cz"), qasmGate<T, CPhase, 2, 1>("cp"),
      qasmGate<T, RotationX, 1, 1>("rx"), qasmGate<T, RotationZZ, 2, 1>("rzz"),
      qasmGate<T, Toffoli, 3>("ccx"), {"c3x", 0, 4, &makeQasmMcx<T, 3>},
      {"c4x", 0, 5, &makeQasmMcx<T, 4>}, qasmGate<T, U3, 1, 3>("u3"),
      qasmGate<T, Reset, 1>("reset"), qasmGate<T, Barrier, 2>("barrier"),
      qasmGate<T, RotationY, 1, 1>("ry"), qasmGate<T, RotationZ, 1, 1>("rz"),
      qasmGate<T, SWAP, 2>("swap"), qasmGate<T, PauliY, 1>("y"),
      qasmGate<T, PauliZ, 1>("z"), qasmGate<T, SGate, 1>("s"),
      qasmGate<T, SdgGate, 1>("sdg"), qasmGate<T, TGate, 1>("t"),
      qasmGate<T, TdgGate, 1>("tdg"), qasmGate<T, SX, 1>("sx"),
      qasmGate<T, SXdg, 1>("sxdg"), qasmGate<T, Phase, 1, 1>("p"),
      qasmGate<T, Phase, 1, 1>("u1"), qasmGate<T, U2, 1, 2>("u2"),
      qasmGate<T, U3, 1, 3>("u"), qasmGate<T, Identity, 1>("id"),
      qasmGate<T, CY, 2>("cy"), qasmGate<T, CH, 2>("ch"),
      qasmGate<T, CPhase, 2, 1>("cu1"), qasmGate<T, CRotationX, 2, 1>("crx"),
      qasmGate<T, CRotationY, 2, 1>("cry"),
      qasmGate<T, CRotationZ, 2, 1>("crz"), qasmGate<T, iSWAP, 2>("iswap"),
      qasmGate<T, iSWAPdg, 2>("iswapdg"),
      qasmGate<T, RotationXX, 2, 1>("rxx"),
      qasmGate<T, RotationYY, 2, 1>("ryy"), qasmGate<T, CU, 2, 3>("cu3"),
      qasmGate<T, Fredkin, 3>("cswap"),
  };
  for (const auto& gate : kGates) {
    if (gate.name == name) return &gate;
  }
  return nullptr;
}

}  // namespace detail

/// Parses an OpenQASM 2.0 program into a circuit.  Throws QasmParseError on
/// malformed or unsupported input.
template <typename T>
QCircuit<T> parseQasm(const std::string& source) {
  const obs::ScopedSpan span("qasm/parse");
  detail::QasmReader reader(source);
  std::string_view name = reader.next();
  QCircuit<T> circuit(reader.nbQubits());
  for (; !name.empty(); name = reader.next()) {
    const detail::QasmGate<T>* gate = detail::findQasmGate<T>(name);
    // Throws for an unknown keyword (0 qubits), so `gate` is set below.
    reader.readOperands(gate ? gate->nbAngles : 0, gate ? gate->nbQubits : 0);
    circuit.push_back(gate->make(reader.qubits(), reader.angles()));
  }
  return circuit;
}

}  // namespace qclab::io
