#pragma once

/// \file barrier.hpp
/// \brief Drawing / OpenQASM barrier over a contiguous qubit range.
/// Simulation treats it as a no-op; the column-layout engine never packs
/// elements across it.

#include <numeric>
#include <ostream>

#include "qclab/qobject.hpp"
#include "qclab/util/errors.hpp"

namespace qclab {

template <typename T>
class Barrier final : public QObject<T> {
 public:
  /// Barrier spanning qubits `first`..`last` (inclusive).
  Barrier(int first, int last) : first_(first), last_(last) {
    util::require(first >= 0 && last >= first, "invalid barrier range");
  }

  ObjectType objectType() const noexcept override {
    return ObjectType::kBarrier;
  }
  int nbQubits() const noexcept override { return last_ - first_ + 1; }
  std::vector<int> qubits() const override {
    std::vector<int> qs(static_cast<std::size_t>(nbQubits()));
    std::iota(qs.begin(), qs.end(), first_);
    return qs;
  }
  int maxQubit() const override { return last_; }

  std::unique_ptr<QObject<T>> clone() const override {
    return std::make_unique<Barrier<T>>(*this);
  }

  void shiftQubits(int delta) override {
    util::require(first_ + delta >= 0, "qubit shift would go negative");
    first_ += delta;
    last_ += delta;
  }

  void toQASM(std::ostream& stream, int offset = 0) const override {
    stream << "barrier";
    const char* separator = " ";
    for (int q = first_; q <= last_; ++q) {
      stream << separator << "q[" << (q + offset) << "]";
      separator = ", ";
    }
    stream << ";\n";
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kBarrier;
    item.boxTop = first_ + offset;
    item.boxBottom = last_ + offset;
    items.push_back(std::move(item));
  }

 private:
  int first_;
  int last_;
};

}  // namespace qclab
