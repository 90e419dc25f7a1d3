#pragma once

/// \file passes.hpp
/// \brief Circuit optimization passes.
///
/// QCLAB is the foundation of quantum compilers (F3C, FABLE — paper §1);
/// this module provides the core local-rewrite passes such compilers rely
/// on: flattening, trivial-gate removal, inverse-pair cancellation,
/// numerically stable rotation fusion (via QRotation's angle-sum
/// composition), and merging runs of single-qubit gates into one unitary.
/// All passes preserve the circuit unitary exactly (up to rounding); none
/// reorders gates across objects they do not commute with structurally
/// (only literally adjacent gates on identical qubit sets are touched).

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "qclab/qcircuit.hpp"

namespace qclab::transpile {

/// Inlines nested sub-circuits (applying their offsets) so the result is a
/// flat sequence of elementary objects.
template <typename T>
QCircuit<T> flatten(const QCircuit<T>& circuit) {
  QCircuit<T> flat(circuit.nbQubits(), circuit.offset());

  const auto inline_ = [&](auto&& self, const QCircuit<T>& sub,
                           int offset) -> void {
    for (const auto& object : sub) {
      if (object->objectType() == ObjectType::kCircuit) {
        const auto& child = static_cast<const QCircuit<T>&>(*object);
        self(self, child, offset + child.offset());
      } else {
        auto copy = object->clone();
        if (offset != 0) copy->shiftQubits(offset);
        flat.push_back(std::move(copy));
      }
    }
  };
  inline_(inline_, circuit, 0);
  return flat;
}

namespace detail {

/// True if `gate` is a plain unitary gate (not measurement/reset/...).
template <typename T>
const qgates::QGate<T>* asGate(const QObject<T>& object) {
  if (object.objectType() != ObjectType::kGate) return nullptr;
  return static_cast<const qgates::QGate<T>*>(&object);
}

/// True if the two qubit lists are identical.
inline bool sameQubits(const std::vector<int>& a, const std::vector<int>& b) {
  return a == b;
}

/// True if the product b * a is the identity within tol (max norm).
template <typename T>
bool isInversePair(const qgates::QGate<T>& a, const qgates::QGate<T>& b,
                   T tol) {
  if (!sameQubits(a.qubits(), b.qubits())) return false;
  const auto product = b.matrix() * a.matrix();
  return product.approxEqual(dense::Matrix<T>::identity(product.rows()), tol);
}

/// True if the gate is the identity within tol.
template <typename T>
bool isTrivial(const qgates::QGate<T>& gate, T tol) {
  const auto m = gate.matrix();
  return m.approxEqual(dense::Matrix<T>::identity(m.rows()), tol);
}

/// Attempts to fuse two adjacent rotations of the same kind on the same
/// qubits; returns the fused gate or nullptr.
template <typename T>
std::unique_ptr<qgates::QGate<T>> tryFuse(const qgates::QGate<T>& first,
                                          const qgates::QGate<T>& second) {
  using namespace qclab::qgates;

  // Same-axis single-qubit rotations.
  const auto fuse1 = [&]<typename Gate>(const Gate*) -> std::unique_ptr<QGate<T>> {
    const auto* a = dynamic_cast<const Gate*>(&first);
    const auto* b = dynamic_cast<const Gate*>(&second);
    if (a && b && a->qubit() == b->qubit()) {
      return std::make_unique<Gate>(a->qubit(), a->rotation() * b->rotation());
    }
    return nullptr;
  };
  if (auto fused = fuse1(static_cast<const RotationX<T>*>(nullptr))) return fused;
  if (auto fused = fuse1(static_cast<const RotationY<T>*>(nullptr))) return fused;
  if (auto fused = fuse1(static_cast<const RotationZ<T>*>(nullptr))) return fused;

  // Phase gates compose by adding full angles.
  {
    const auto* a = dynamic_cast<const Phase<T>*>(&first);
    const auto* b = dynamic_cast<const Phase<T>*>(&second);
    if (a && b && a->qubit() == b->qubit()) {
      const auto sum = a->angle() + b->angle();
      return std::make_unique<Phase<T>>(a->qubit(), sum.cos(), sum.sin());
    }
  }

  // Controlled phases with identical control/target/state.
  {
    const auto* a = dynamic_cast<const CPhase<T>*>(&first);
    const auto* b = dynamic_cast<const CPhase<T>*>(&second);
    if (a && b && a->control() == b->control() &&
        a->target() == b->target() &&
        a->controlState() == b->controlState()) {
      return std::make_unique<CPhase<T>>(a->control(), a->target(),
                                         a->theta() + b->theta(),
                                         a->controlState());
    }
  }

  // Controlled rotations with identical control/target/state.
  const auto fuseCr = [&]<typename Gate>(const Gate*) -> std::unique_ptr<QGate<T>> {
    const auto* a = dynamic_cast<const Gate*>(&first);
    const auto* b = dynamic_cast<const Gate*>(&second);
    if (a && b && a->control() == b->control() &&
        a->target() == b->target() &&
        a->controlState() == b->controlState()) {
      return std::make_unique<Gate>(a->control(), a->target(),
                                    a->theta() + b->theta(),
                                    a->controlState());
    }
    return nullptr;
  };
  if (auto fused = fuseCr(static_cast<const CRotationX<T>*>(nullptr))) return fused;
  if (auto fused = fuseCr(static_cast<const CRotationY<T>*>(nullptr))) return fused;
  if (auto fused = fuseCr(static_cast<const CRotationZ<T>*>(nullptr))) return fused;

  // Two-qubit axis rotations on the same pair.
  const auto fuse2 = [&]<typename Gate>(const Gate*) -> std::unique_ptr<QGate<T>> {
    const auto* a = dynamic_cast<const Gate*>(&first);
    const auto* b = dynamic_cast<const Gate*>(&second);
    if (a && b && a->qubit0() == b->qubit0() && a->qubit1() == b->qubit1()) {
      return std::make_unique<Gate>(a->qubit0(), a->qubit1(),
                                    a->rotation() * b->rotation());
    }
    return nullptr;
  };
  if (auto fused = fuse2(static_cast<const RotationXX<T>*>(nullptr))) return fused;
  if (auto fused = fuse2(static_cast<const RotationYY<T>*>(nullptr))) return fused;
  if (auto fused = fuse2(static_cast<const RotationZZ<T>*>(nullptr))) return fused;

  return nullptr;
}

/// True if two objects act on overlapping qubit sets.
template <typename T>
bool overlaps(const QObject<T>& a, const QObject<T>& b) {
  const auto qa = a.qubits();
  const auto qb = b.qubits();
  for (int q : qa) {
    if (std::find(qb.begin(), qb.end(), q) != qb.end()) return true;
  }
  return false;
}

}  // namespace detail

/// Removes gates whose matrix is the identity within `tol` (explicit
/// Identity gates, zero-angle rotations and phases).
template <typename T>
QCircuit<T> removeTrivialGates(const QCircuit<T>& circuit,
                               T tol = T(1e3) * std::numeric_limits<T>::epsilon()) {
  const auto flat = flatten(circuit);
  QCircuit<T> out(circuit.nbQubits(), circuit.offset());
  for (const auto& object : flat) {
    if (const auto* gate = detail::asGate<T>(*object)) {
      if (detail::isTrivial(*gate, tol)) continue;
    }
    out.push_back(object->clone());
  }
  return out;
}

/// Cancels adjacent inverse pairs (e.g. H H, CX CX, S Sdg) until no pair is
/// left.  "Adjacent" means no intervening object touches the pair's qubits.
template <typename T>
QCircuit<T> cancelInversePairs(const QCircuit<T>& circuit,
                               T tol = T(1e3) * std::numeric_limits<T>::epsilon()) {
  const auto flat = flatten(circuit);
  std::vector<std::unique_ptr<QObject<T>>> out;
  for (const auto& object : flat) {
    bool cancelled = false;
    if (const auto* gate = detail::asGate<T>(*object)) {
      // Find the last output object overlapping this gate's qubits.
      for (auto it = out.rbegin(); it != out.rend(); ++it) {
        if (!detail::overlaps(**it, *object)) continue;
        if (const auto* previous = detail::asGate<T>(**it)) {
          if (detail::isInversePair(*previous, *gate, tol)) {
            out.erase(std::next(it).base());
            cancelled = true;
          }
        }
        break;
      }
    }
    if (!cancelled) out.push_back(object->clone());
  }
  QCircuit<T> result(circuit.nbQubits(), circuit.offset());
  for (auto& object : out) result.push_back(std::move(object));
  return result;
}

/// Fuses adjacent same-kind rotations via the numerically stable QRotation
/// composition; fused gates that became trivial are dropped.
template <typename T>
QCircuit<T> fuseRotations(const QCircuit<T>& circuit,
                          T tol = T(1e3) * std::numeric_limits<T>::epsilon()) {
  const auto flat = flatten(circuit);
  std::vector<std::unique_ptr<QObject<T>>> out;
  for (const auto& object : flat) {
    bool fused = false;
    if (const auto* gate = detail::asGate<T>(*object)) {
      for (auto it = out.rbegin(); it != out.rend(); ++it) {
        if (!detail::overlaps(**it, *object)) continue;
        if (const auto* previous = detail::asGate<T>(**it)) {
          if (auto merged = detail::tryFuse(*previous, *gate)) {
            if (detail::isTrivial(*merged, tol)) {
              out.erase(std::next(it).base());
            } else {
              *it = std::move(merged);
            }
            fused = true;
          }
        }
        break;
      }
    }
    if (!fused) out.push_back(object->clone());
  }
  QCircuit<T> result(circuit.nbQubits(), circuit.offset());
  for (auto& object : out) result.push_back(std::move(object));
  return result;
}

/// Merges maximal runs of uncontrolled single-qubit gates on one qubit into
/// a single MatrixGate1 (runs of length 1 are kept as-is; runs that
/// multiply to the identity are dropped).
template <typename T>
QCircuit<T> mergeSingleQubitGates(const QCircuit<T>& circuit,
                                  T tol = T(1e3) * std::numeric_limits<T>::epsilon()) {
  const auto flat = flatten(circuit);
  QCircuit<T> out(circuit.nbQubits(), circuit.offset());

  struct Run {
    dense::Matrix<T> product;
    std::size_t length = 0;
    std::unique_ptr<QObject<T>> single;  // kept when length == 1
  };
  std::vector<std::optional<Run>> runs(
      static_cast<std::size_t>(circuit.nbQubits()));

  auto flushRun = [&](int qubit) {
    auto& run = runs[static_cast<std::size_t>(qubit)];
    if (!run) return;
    if (run->length == 1) {
      out.push_back(std::move(run->single));
    } else if (!run->product.approxEqual(
                   dense::Matrix<T>::identity(2), tol)) {
      out.push_back(
          std::make_unique<qgates::MatrixGate1<T>>(qubit, run->product));
    }
    run.reset();
  };

  for (const auto& object : flat) {
    const auto* gate = detail::asGate<T>(*object);
    const bool single1 =
        gate != nullptr && gate->nbQubits() == 1 && gate->controls().empty();
    if (single1) {
      const int qubit = gate->qubits()[0];
      auto& run = runs[static_cast<std::size_t>(qubit)];
      if (!run) {
        run.emplace();
        run->product = gate->matrix();
        run->length = 1;
        run->single = object->clone();
      } else {
        run->product = gate->matrix() * run->product;
        run->length += 1;
        run->single.reset();
      }
    } else {
      for (int q : object->qubits()) {
        if (q < circuit.nbQubits()) flushRun(q);
      }
      out.push_back(object->clone());
    }
  }
  for (int q = 0; q < circuit.nbQubits(); ++q) flushRun(q);
  return out;
}

/// Standard pipeline: flatten, fuse rotations, cancel inverse pairs,
/// remove trivial gates, and merge single-qubit runs, iterated to a
/// fixpoint (bounded rounds).  Rotation fusion runs first so same-axis
/// runs stay parameterized rotations instead of opaque MatrixGate1s.
template <typename T>
QCircuit<T> optimize(const QCircuit<T>& circuit,
                     T tol = T(1e3) * std::numeric_limits<T>::epsilon()) {
  const obs::ScopedSpan span("transpile/optimize");
  QCircuit<T> current = flatten(circuit);
  for (int round = 0; round < 10; ++round) {
    const std::size_t before = current.nbObjectsRecursive();
    current = fuseRotations(current, tol);
    current = cancelInversePairs(current, tol);
    current = removeTrivialGates(current, tol);
    current = mergeSingleQubitGates(current, tol);
    if (current.nbObjectsRecursive() >= before) break;
  }
  return current;
}

}  // namespace qclab::transpile
