#pragma once

/// \file parameter_binding.hpp
/// \brief The parameter rebinding layer of the batched execution engine:
/// a flat, ordered view of every continuous gate parameter in a circuit.
///
/// A ParameterBinding walks a MUTABLE circuit once at construction and
/// records one slot per parametrized gate — rotations (RX/RY/RZ), phases
/// (Phase), controlled rotations and phases (CRX/CRY/CRZ/CPhase), and the
/// two-qubit rotations (RXX/RYY/RZZ) — in circuit order, descending into
/// nested sub-circuits.  `bind` then retargets every angle through the
/// gates' own `setTheta` surfaces without touching the circuit structure,
/// so a fusion plan built for the circuit SHAPE stays valid and only its
/// fused matrices need rebinding (sim::rebindFusionPlan).
///
/// The binding holds raw pointers into the circuit it walked: it must not
/// outlive the circuit, and structural edits (push_back / insert / erase)
/// invalidate it.  Rebinding angles does NOT invalidate it.

#include <cstddef>
#include <vector>

#include "qclab/qcircuit.hpp"
#include "qclab/qgates/qgates.hpp"
#include "qclab/util/errors.hpp"

namespace qclab {

/// Ordered slots over every continuous parameter of one circuit instance.
template <typename T>
class ParameterBinding {
 public:
  /// Walks `circuit` (recursively) and records a slot per parametrized
  /// gate, in the order the simulate path applies them.
  explicit ParameterBinding(QCircuit<T>& circuit) { collect(circuit); }

  /// Number of bindable parameters found.
  std::size_t nbParameters() const noexcept { return slots_.size(); }

  /// Writes `values[i]` into parameter slot i (gate setTheta).  Requires
  /// exactly nbParameters() values.
  void bind(const std::vector<T>& values) const {
    if (values.size() != slots_.size()) [[unlikely]] {
      throw InvalidArgumentError("ParameterBinding::bind: expected " +
                                 std::to_string(slots_.size()) +
                                 " values, got " +
                                 std::to_string(values.size()));
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].set(slots_[i].gate, values[i]);
    }
  }

  /// Reads the current parameter values back, in slot order.
  std::vector<T> parameters() const {
    std::vector<T> values(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      values[i] = slots_[i].get(slots_[i].gate);
    }
    return values;
  }

  /// True when `gate` is one of the recorded parameter slots — i.e. bind()
  /// can change its matrix.  The batched engine uses this to find the
  /// parameter-free circuit prefix it may precompute once per shape.
  bool isBound(const QObject<T>* gate) const noexcept {
    for (const Slot& slot : slots_) {
      if (slot.gate == gate) return true;
    }
    return false;
  }

 private:
  /// One parameter slot: a type-erased setter/getter pair over the gate.
  /// Plain function pointers (no std::function) keep slots trivially
  /// copyable and the bind loop branch-predictable.
  struct Slot {
    QObject<T>* gate;
    void (*set)(QObject<T>*, T);
    T (*get)(const QObject<T>*);
  };

  template <typename Gate>
  void addSlot(Gate* gate) {
    slots_.push_back(Slot{
        gate,
        [](QObject<T>* object, T theta) {
          static_cast<Gate*>(object)->setTheta(theta);
        },
        [](const QObject<T>* object) {
          return static_cast<const Gate*>(object)->theta();
        }});
  }

  /// Matches `object` against every parametrized gate family.  Returns
  /// true when a slot was recorded.  RotationGate1 covers RX/RY/RZ and
  /// RotationGate2 covers RXX/RYY/RZZ through their shared bases; the
  /// controlled families are matched per concrete type (their common base
  /// QControlledGate2 has no setTheta).
  bool tryAddSlot(QObject<T>& object) {
    if (auto* g = dynamic_cast<qgates::RotationGate1<T>*>(&object)) {
      addSlot(g);
    } else if (auto* g = dynamic_cast<qgates::RotationGate2<T>*>(&object)) {
      addSlot(g);
    } else if (auto* g = dynamic_cast<qgates::Phase<T>*>(&object)) {
      addSlot(g);
    } else if (auto* g = dynamic_cast<qgates::CPhase<T>*>(&object)) {
      addSlot(g);
    } else if (auto* g = dynamic_cast<qgates::CRotationX<T>*>(&object)) {
      addSlot(g);
    } else if (auto* g = dynamic_cast<qgates::CRotationY<T>*>(&object)) {
      addSlot(g);
    } else if (auto* g = dynamic_cast<qgates::CRotationZ<T>*>(&object)) {
      addSlot(g);
    } else {
      return false;
    }
    return true;
  }

  void collect(QCircuit<T>& circuit) {
    for (std::size_t i = 0; i < circuit.nbObjects(); ++i) {
      QObject<T>& object = circuit.objectAt(i);
      if (object.objectType() == ObjectType::kCircuit) {
        collect(static_cast<QCircuit<T>&>(object));
        continue;
      }
      tryAddSlot(object);
    }
  }

  std::vector<Slot> slots_;
};

}  // namespace qclab
