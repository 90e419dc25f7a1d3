#pragma once

/// \file qgate1.hpp
/// \brief Base class for single-qubit gates.

#include <ostream>
#include <string>

#include "qclab/io/format.hpp"
#include "qclab/qgates/qgate.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::qgates {

/// A gate acting on exactly one qubit.
template <typename T>
class QGate1 : public QGate<T> {
 public:
  explicit QGate1(int qubit) : qubit_(qubit) {
    util::require(qubit >= 0, "qubit index must be nonnegative");
  }

  int nbQubits() const noexcept final { return 1; }

  /// The qubit this gate acts on.
  int qubit() const noexcept { return qubit_; }

  /// Moves the gate to another qubit.
  void setQubit(int qubit) {
    util::require(qubit >= 0, "qubit index must be nonnegative");
    qubit_ = qubit;
  }

  std::vector<int> qubits() const final { return {qubit_}; }
  int maxQubit() const final { return qubit_; }

  void shiftQubits(int delta) final { setQubit(qubit_ + delta); }

  /// Lowercase OpenQASM mnemonic, e.g. "h", "rx(1.5707)".
  virtual std::string qasmName() const = 0;

  /// Diagram label, e.g. "H", "RX(1.57)".
  virtual std::string drawLabel() const = 0;

  void toQASM(std::ostream& stream, int offset = 0) const override {
    stream << qasmName() << " q[" << (qubit_ + offset) << "];\n";
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kBox;
    item.label = drawLabel();
    item.boxTop = qubit_ + offset;
    item.boxBottom = qubit_ + offset;
    items.push_back(std::move(item));
  }

 private:
  int qubit_;
};

}  // namespace qclab::qgates
