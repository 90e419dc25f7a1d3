#pragma once

/// \file reset.hpp
/// \brief Qubit reset to |0>, supporting qubit-reuse workflows
/// (paper §3.3, citing DeCross et al. on qubit-reuse compilation).
///
/// Semantically a reset is a non-recorded Z measurement followed by a
/// conditional X: both measurement branches continue, but the reset qubit is
/// in |0> on each of them and no classical outcome is appended to the
/// result string.

#include <ostream>

#include "qclab/qobject.hpp"
#include "qclab/util/errors.hpp"

namespace qclab {

template <typename T>
class Reset final : public QObject<T> {
 public:
  explicit Reset(int qubit) : qubit_(qubit) {
    util::require(qubit >= 0, "qubit index must be nonnegative");
  }

  ObjectType objectType() const noexcept override { return ObjectType::kReset; }
  int nbQubits() const noexcept override { return 1; }
  std::vector<int> qubits() const override { return {qubit_}; }
  int maxQubit() const override { return qubit_; }

  /// The reset qubit.
  int qubit() const noexcept { return qubit_; }

  void shiftQubits(int delta) override {
    util::require(qubit_ + delta >= 0, "qubit shift would go negative");
    qubit_ += delta;
  }

  std::unique_ptr<QObject<T>> clone() const override {
    return std::make_unique<Reset<T>>(*this);
  }

  void toQASM(std::ostream& stream, int offset = 0) const override {
    stream << "reset q[" << (qubit_ + offset) << "];\n";
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kReset;
    item.label = "|0>";
    item.boxTop = qubit_ + offset;
    item.boxBottom = qubit_ + offset;
    items.push_back(std::move(item));
  }

 private:
  int qubit_;
};

}  // namespace qclab
