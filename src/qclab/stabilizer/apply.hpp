#pragma once

/// \file apply.hpp
/// \brief Maps QGate objects onto tableau operations — the gate-coverage
/// layer shared by the stabilizer simulator (stabilizer/simulator.hpp) and
/// the adaptive dispatcher (sim/dispatch.hpp).
///
/// Supports the structural Clifford gates (Paulis, H, S/S†, sqrt(X)/
/// sqrt(X)†, CX/CY/CZ, SWAP/iSWAP/iSWAP†, singly-controlled X/Y/Z through
/// MCGate) and the *value*-Clifford cases of the parametric gates: Phase /
/// RotationX / RotationY / RotationZ and RotationXX / RotationYY /
/// RotationZZ at multiples of π/2, CPhase at π (= CZ), and the controlled
/// rotations CRotationX/Y/Z at π.  Parametric matches are up to global
/// phase, which the tableau does not track.  Everything else throws
/// UnsupportedGateError — a typed signal the dispatcher catches to fall
/// back to the statevector path (no gate ever silently no-ops).
///
/// This header is deliberately free of qcircuit.hpp so the dispatch layer
/// can use it without an include cycle.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "qclab/measurement.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/qgates/qgates.hpp"
#include "qclab/random/rng.hpp"
#include "qclab/reset.hpp"
#include "qclab/sim/execute.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/stabilizer/tableau.hpp"

namespace qclab::stabilizer {

namespace detail {

/// Snaps `theta` to a multiple of π/2 on the circle: returns true and sets
/// `k` to the quarter-turn count in {0, 1, 2, 3} when theta is within a
/// few-ulp tolerance of k·π/2 (mod 2π), false otherwise.
template <typename T>
bool quarterTurns(T theta, int& k) {
  constexpr T twoPi = T(2) * T(3.14159265358979323846264338327950288L);
  constexpr T quarter = twoPi / T(4);
  T reduced = std::fmod(theta, twoPi);
  if (reduced < T(0)) reduced += twoPi;
  const int nearest = static_cast<int>(std::lround(reduced / quarter));
  const T tol = T(512) * std::numeric_limits<T>::epsilon();
  if (std::abs(reduced - static_cast<T>(nearest) * quarter) > tol) {
    return false;
  }
  k = nearest % 4;
  return true;
}

/// RZZ by k quarter turns (diagonal, order-free), up to global phase.
inline void applyRzzQuarters(Tableau& tableau, int a, int b, int k) {
  switch (k) {
    case 0: break;
    case 1: tableau.s(a); tableau.s(b); tableau.cz(a, b); break;
    case 2: tableau.z(a); tableau.z(b); break;
    case 3: tableau.sdg(a); tableau.sdg(b); tableau.cz(a, b); break;
  }
}

template <typename T>
void applyGate(Tableau& tableau, const qgates::QGate<T>& gate, int offset) {
  using namespace qclab::qgates;
  if (dynamic_cast<const Identity<T>*>(&gate)) return;
  if (const auto* g = dynamic_cast<const PauliX<T>*>(&gate)) {
    tableau.x(g->qubit() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const PauliY<T>*>(&gate)) {
    tableau.y(g->qubit() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const PauliZ<T>*>(&gate)) {
    tableau.z(g->qubit() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const Hadamard<T>*>(&gate)) {
    tableau.h(g->qubit() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const SGate<T>*>(&gate)) {
    tableau.s(g->qubit() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const SdgGate<T>*>(&gate)) {
    tableau.sdg(g->qubit() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const SX<T>*>(&gate)) {
    tableau.sx(g->qubit() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const SXdg<T>*>(&gate)) {
    tableau.sxdg(g->qubit() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const Phase<T>*>(&gate)) {
    // diag(1, e^{iθ}): exactly I / S / Z / S† at quarter turns.
    int k;
    if (!quarterTurns(g->theta(), k)) {
      throw UnsupportedGateError(
          "Phase gate angle is not a multiple of pi/2 (non-Clifford)");
    }
    const int q = g->qubit() + offset;
    switch (k) {
      case 0: break;
      case 1: tableau.s(q); break;
      case 2: tableau.z(q); break;
      case 3: tableau.sdg(q); break;
    }
    return;
  }
  if (const auto* g = dynamic_cast<const RotationZ<T>*>(&gate)) {
    // RZ(θ) = Phase(θ) up to global phase.
    int k;
    if (!quarterTurns(g->theta(), k)) {
      throw UnsupportedGateError(
          "RotationZ angle is not a multiple of pi/2 (non-Clifford)");
    }
    const int q = g->qubit() + offset;
    switch (k) {
      case 0: break;
      case 1: tableau.s(q); break;
      case 2: tableau.z(q); break;
      case 3: tableau.sdg(q); break;
    }
    return;
  }
  if (const auto* g = dynamic_cast<const RotationX<T>*>(&gate)) {
    // RX(θ) = sqrt(X)^k up to global phase at quarter turns.
    int k;
    if (!quarterTurns(g->theta(), k)) {
      throw UnsupportedGateError(
          "RotationX angle is not a multiple of pi/2 (non-Clifford)");
    }
    const int q = g->qubit() + offset;
    switch (k) {
      case 0: break;
      case 1: tableau.sx(q); break;
      case 2: tableau.x(q); break;
      case 3: tableau.sxdg(q); break;
    }
    return;
  }
  if (const auto* g = dynamic_cast<const RotationY<T>*>(&gate)) {
    // RY(π/2) = H·Z, RY(π) = X·Z, RY(3π/2) = Z·H (the first two exactly,
    // the last up to global phase); right factor applies first.
    int k;
    if (!quarterTurns(g->theta(), k)) {
      throw UnsupportedGateError(
          "RotationY angle is not a multiple of pi/2 (non-Clifford)");
    }
    const int q = g->qubit() + offset;
    switch (k) {
      case 0: break;
      case 1: tableau.z(q); tableau.h(q); break;
      case 2: tableau.z(q); tableau.x(q); break;
      case 3: tableau.h(q); tableau.z(q); break;
    }
    return;
  }
  if (const auto* g = dynamic_cast<const CX<T>*>(&gate)) {
    const int c = g->control() + offset;
    const int t = g->target() + offset;
    if (g->controlState() == 0) tableau.x(c);
    tableau.cx(c, t);
    if (g->controlState() == 0) tableau.x(c);
    return;
  }
  if (const auto* g = dynamic_cast<const CY<T>*>(&gate)) {
    const int c = g->control() + offset;
    const int t = g->target() + offset;
    if (g->controlState() == 0) tableau.x(c);
    tableau.sdg(t);
    tableau.cx(c, t);
    tableau.s(t);
    if (g->controlState() == 0) tableau.x(c);
    return;
  }
  if (const auto* g = dynamic_cast<const CZ<T>*>(&gate)) {
    const int c = g->control() + offset;
    const int t = g->target() + offset;
    if (g->controlState() == 0) tableau.x(c);
    tableau.cz(c, t);
    if (g->controlState() == 0) tableau.x(c);
    return;
  }
  if (const auto* g = dynamic_cast<const CPhase<T>*>(&gate)) {
    // Only CPhase(π) = CZ (and the trivial 0) are Clifford: the quarter
    // turns (controlled S / S†) are not.
    int k;
    if (!quarterTurns(g->theta(), k) || (k % 2) != 0) {
      throw UnsupportedGateError(
          "CPhase angle is not 0 or pi (non-Clifford)");
    }
    if (k == 0) return;
    const int c = g->control() + offset;
    const int t = g->target() + offset;
    if (g->controlState() == 0) tableau.x(c);
    tableau.cz(c, t);
    if (g->controlState() == 0) tableau.x(c);
    return;
  }
  if (const auto* g = dynamic_cast<const CRotationX<T>*>(&gate)) {
    // CRX(π) = CX · S†(control) up to global phase.
    int k;
    if (!quarterTurns(g->theta(), k) || (k % 2) != 0) {
      throw UnsupportedGateError(
          "CRotationX angle is not 0 or pi (non-Clifford)");
    }
    if (k == 0) return;
    const int c = g->control() + offset;
    const int t = g->target() + offset;
    if (g->controlState() == 0) tableau.x(c);
    tableau.sdg(c);
    tableau.cx(c, t);
    if (g->controlState() == 0) tableau.x(c);
    return;
  }
  if (const auto* g = dynamic_cast<const CRotationY<T>*>(&gate)) {
    // CRY(π) = CY · S†(control) up to global phase.
    int k;
    if (!quarterTurns(g->theta(), k) || (k % 2) != 0) {
      throw UnsupportedGateError(
          "CRotationY angle is not 0 or pi (non-Clifford)");
    }
    if (k == 0) return;
    const int c = g->control() + offset;
    const int t = g->target() + offset;
    if (g->controlState() == 0) tableau.x(c);
    tableau.sdg(c);
    tableau.sdg(t);
    tableau.cx(c, t);
    tableau.s(t);
    if (g->controlState() == 0) tableau.x(c);
    return;
  }
  if (const auto* g = dynamic_cast<const CRotationZ<T>*>(&gate)) {
    // CRZ(π) = CZ · S†(control) up to global phase.
    int k;
    if (!quarterTurns(g->theta(), k) || (k % 2) != 0) {
      throw UnsupportedGateError(
          "CRotationZ angle is not 0 or pi (non-Clifford)");
    }
    if (k == 0) return;
    const int c = g->control() + offset;
    const int t = g->target() + offset;
    if (g->controlState() == 0) tableau.x(c);
    tableau.sdg(c);
    tableau.cz(c, t);
    if (g->controlState() == 0) tableau.x(c);
    return;
  }
  if (const auto* g = dynamic_cast<const SWAP<T>*>(&gate)) {
    tableau.swap(g->qubit0() + offset, g->qubit1() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const iSWAP<T>*>(&gate)) {
    tableau.iswap(g->qubit0() + offset, g->qubit1() + offset);
    return;
  }
  if (const auto* g = dynamic_cast<const iSWAPdg<T>*>(&gate)) {
    // Inverse of iSWAP = SWAP . CZ . (S (x) S).
    const int a = g->qubit0() + offset;
    const int b = g->qubit1() + offset;
    tableau.swap(a, b);
    tableau.cz(a, b);
    tableau.sdg(a);
    tableau.sdg(b);
    return;
  }
  if (const auto* g = dynamic_cast<const RotationZZ<T>*>(&gate)) {
    int k;
    if (!quarterTurns(g->theta(), k)) {
      throw UnsupportedGateError(
          "RotationZZ angle is not a multiple of pi/2 (non-Clifford)");
    }
    applyRzzQuarters(tableau, g->qubit0() + offset, g->qubit1() + offset, k);
    return;
  }
  if (const auto* g = dynamic_cast<const RotationXX<T>*>(&gate)) {
    // RXX = (H⊗H) RZZ (H⊗H).
    int k;
    if (!quarterTurns(g->theta(), k)) {
      throw UnsupportedGateError(
          "RotationXX angle is not a multiple of pi/2 (non-Clifford)");
    }
    const int a = g->qubit0() + offset;
    const int b = g->qubit1() + offset;
    tableau.h(a);
    tableau.h(b);
    applyRzzQuarters(tableau, a, b, k);
    tableau.h(a);
    tableau.h(b);
    return;
  }
  if (const auto* g = dynamic_cast<const RotationYY<T>*>(&gate)) {
    // RYY = (V⊗V) RZZ (V⊗V)† with V = S·H (so V Z V† = Y).
    int k;
    if (!quarterTurns(g->theta(), k)) {
      throw UnsupportedGateError(
          "RotationYY angle is not a multiple of pi/2 (non-Clifford)");
    }
    const int a = g->qubit0() + offset;
    const int b = g->qubit1() + offset;
    tableau.sdg(a);
    tableau.h(a);
    tableau.sdg(b);
    tableau.h(b);
    applyRzzQuarters(tableau, a, b, k);
    tableau.h(a);
    tableau.s(a);
    tableau.h(b);
    tableau.s(b);
    return;
  }
  if (const auto* g = dynamic_cast<const MCGate<T>*>(&gate)) {
    if (g->controlQubits().size() == 1) {
      const int c = g->controlQubits()[0] + offset;
      const int t = g->target() + offset;
      const bool invert = g->states()[0] == 0;
      if (invert) tableau.x(c);
      if (dynamic_cast<const MCX<T>*>(&gate)) {
        tableau.cx(c, t);
      } else if (dynamic_cast<const MCZ<T>*>(&gate)) {
        tableau.cz(c, t);
      } else if (dynamic_cast<const MCY<T>*>(&gate)) {
        tableau.sdg(t);
        tableau.cx(c, t);
        tableau.s(t);
      } else {
        if (invert) tableau.x(c);
        throw UnsupportedGateError(
            "unsupported multi-controlled gate in stabilizer simulation");
      }
      if (invert) tableau.x(c);
      return;
    }
    throw UnsupportedGateError(
        "multi-controlled gate with more than one control is not Clifford");
  }
  throw UnsupportedGateError(
      "gate is not in the Clifford subset supported by the stabilizer "
      "simulator");
}

template <typename T>
void applyMeasurementBasisChange(Tableau& tableau,
                                 const Measurement<T>& measurement, int qubit,
                                 bool revert) {
  switch (measurement.basis()) {
    case Basis::kZ:
      break;
    case Basis::kX:
      tableau.h(qubit);
      break;
    case Basis::kY:
      // V^H = H S^H before, V = S H after.
      if (!revert) {
        tableau.sdg(qubit);
        tableau.h(qubit);
      } else {
        tableau.h(qubit);
        tableau.s(qubit);
      }
      break;
    case Basis::kCustom:
      throw UnsupportedGateError(
          "custom-basis measurement is not supported by the stabilizer "
          "simulator");
  }
}

/// applyGate, metered under KernelPath::kStabilizer like every tableau
/// path (a tableau gate touches ~3 byte-columns across all 2n+1 rows).
template <typename T>
void applyMeteredGate(Tableau& tableau, const qgates::QGate<T>& gate,
                      int offset) {
  applyGate(tableau, gate, offset);
  obs::metrics().countGate(
      sim::KernelPath::kStabilizer, nullptr,
      static_cast<std::uint64_t>(2 * tableau.nbQubits() + 1) * 3);
}

/// One shot of a flat op list (QCircuit::flatten) on `tableau`:
/// measurement randomness draws from `rng`, and the outcomes come back
/// concatenated in circuit order.  The single shot loop behind
/// simulateShot, sampleCounts and sim::dispatchSampleCounts.
template <typename T>
std::string runShot(const std::vector<sim::FlatOp<T>>& ops, Tableau& tableau,
                    random::Rng& rng) {
  std::string outcomes;
  for (const sim::FlatOp<T>& op : ops) {
    switch (op.object->objectType()) {
      case ObjectType::kGate:
        applyMeteredGate(tableau,
                         static_cast<const qgates::QGate<T>&>(*op.object),
                         op.offset);
        break;
      case ObjectType::kMeasurement: {
        const auto& measurement =
            static_cast<const Measurement<T>&>(*op.object);
        const int qubit = measurement.qubit() + op.offset;
        applyMeasurementBasisChange(tableau, measurement, qubit, false);
        const int outcome = tableau.measure(qubit, rng);
        applyMeasurementBasisChange(tableau, measurement, qubit, true);
        outcomes += static_cast<char>('0' + outcome);
        break;
      }
      case ObjectType::kReset:
        tableau.reset(
            static_cast<const Reset<T>&>(*op.object).qubit() + op.offset, rng);
        break;
      default:
        break;
    }
  }
  return outcomes;
}

}  // namespace detail

/// True when `gate` maps onto tableau operations (structurally Clifford,
/// or a parametric gate at a Clifford angle).  Probes the same code path
/// the executor uses, so analyzer and executor can never disagree.
template <typename T>
bool isCliffordGate(const qgates::QGate<T>& gate) {
  const auto qubits = gate.qubits();
  if (qubits.empty()) return false;
  // Shift the gate's qubit span down to 0 so the probe tableau stays as
  // small as the gate itself, independent of its position in the circuit.
  Tableau probe(qubits.back() - qubits.front() + 1);
  try {
    detail::applyGate(probe, gate, -qubits.front());
  } catch (const UnsupportedGateError&) {
    return false;
  }
  return true;
}

}  // namespace qclab::stabilizer
