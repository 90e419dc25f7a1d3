#pragma once

/// \file qobject.hpp
/// \brief Abstract base class of everything that can be pushed onto a
/// QCircuit: gates, measurements, resets, barriers, and sub-circuits.

#include <memory>
#include <ostream>
#include <vector>

#include "qclab/io/draw_ir.hpp"

namespace qclab {

/// Discriminator used by the simulator and the I/O passes to dispatch on the
/// object category without dynamic_cast chains.
enum class ObjectType {
  kGate,         ///< unitary gate (any number of qubits / controls)
  kMeasurement,  ///< single-qubit measurement
  kReset,        ///< single-qubit reset to |0>
  kBarrier,      ///< no-op separator for drawing and QASM
  kCircuit,      ///< nested sub-circuit
};

/// Base class for circuit elements, templated over the real scalar type `T`
/// (float or double) like QCLAB++.
template <typename T>
class QObject {
 public:
  virtual ~QObject() = default;

  /// Category of this object.
  virtual ObjectType objectType() const noexcept = 0;

  /// Number of qubits this object acts on.
  virtual int nbQubits() const noexcept = 0;

  /// The qubit indices this object acts on, in ascending order.
  virtual std::vector<int> qubits() const = 0;

  /// Smallest qubit index used.
  int minQubit() const {
    const auto qs = qubits();
    return qs.empty() ? 0 : qs.front();
  }

  /// Largest qubit index used, whatever its role.  Objects that store
  /// their qubits override it to skip building the qubits() vector.
  virtual int maxQubit() const {
    const auto qs = qubits();
    return qs.empty() ? 0 : qs.back();
  }

  /// Deep copy.
  virtual std::unique_ptr<QObject<T>> clone() const = 0;

  /// Shifts every qubit index of this object by `delta` (used when
  /// flattening nested circuits).  Throws if an index would go negative.
  virtual void shiftQubits(int delta) = 0;

  /// Writes the OpenQASM 2.0 statement(s) for this object.  `offset` is
  /// added to every qubit index (used when this object sits inside a
  /// sub-circuit).
  virtual void toQASM(std::ostream& stream, int offset = 0) const = 0;

  /// Lowers this object to diagram elements, appending to `items`.
  /// `offset` is added to every qubit row.
  virtual void appendDrawItems(std::vector<io::DrawItem>& items,
                               int offset = 0) const = 0;
};

}  // namespace qclab
