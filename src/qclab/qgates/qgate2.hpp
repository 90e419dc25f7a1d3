#pragma once

/// \file qgate2.hpp
/// \brief Base class for two-qubit gates acting symmetrically on an ordered
/// qubit pair (SWAP, iSWAP, RXX/RYY/RZZ).  Controlled two-qubit gates live
/// in controlled.hpp.

#include <ostream>
#include <string>

#include "qclab/io/format.hpp"
#include "qclab/qgates/qgate.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::qgates {

/// A gate acting on exactly two (distinct) qubits.
template <typename T>
class QGate2 : public QGate<T> {
 public:
  QGate2(int qubit0, int qubit1) { setQubits(qubit0, qubit1); }

  int nbQubits() const noexcept final { return 2; }

  /// The two qubits in ascending order.
  std::vector<int> qubits() const final { return {qubit0_, qubit1_}; }
  int maxQubit() const final { return qubit1_; }

  /// Smaller qubit index.
  int qubit0() const noexcept { return qubit0_; }
  /// Larger qubit index.
  int qubit1() const noexcept { return qubit1_; }

  /// Moves the gate to another qubit pair.
  void setQubits(int qubit0, int qubit1) {
    util::require(qubit0 >= 0 && qubit1 >= 0,
                  "qubit indices must be nonnegative");
    util::require(qubit0 != qubit1, "two-qubit gate needs distinct qubits");
    qubit0_ = std::min(qubit0, qubit1);
    qubit1_ = std::max(qubit0, qubit1);
  }

  void shiftQubits(int delta) final {
    setQubits(qubit0_ + delta, qubit1_ + delta);
  }

  /// Lowercase OpenQASM mnemonic.
  virtual std::string qasmName() const = 0;

  /// Diagram label.
  virtual std::string drawLabel() const = 0;

  void toQASM(std::ostream& stream, int offset = 0) const override {
    stream << qasmName() << " q[" << (qubit0_ + offset) << "], q["
           << (qubit1_ + offset) << "];\n";
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kBox;
    item.label = drawLabel();
    item.boxTop = qubit0_ + offset;
    item.boxBottom = qubit1_ + offset;
    items.push_back(std::move(item));
  }

 private:
  int qubit0_;
  int qubit1_;
};

}  // namespace qclab::qgates
