#pragma once

/// \file multi_controlled.hpp
/// \brief Multi-controlled gates MCX, MCY, MCZ with per-control control
/// states, as used by the quantum error correction example (paper §5.4):
///   qec.push_back(qclab.qgates.MCX([3,4], 2, [0,1]))

#include <algorithm>
#include <set>

#include "qclab/qgates/paulis.hpp"
#include "qclab/qgates/qgate.hpp"

namespace qclab::qgates {

/// Base class of multi-controlled single-target gates.
template <typename T>
class MCGate : public QGate<T> {
 public:
  MCGate(std::vector<int> controls, int target,
         std::vector<int> controlStates)
      : controls_(std::move(controls)),
        target_(target),
        controlStates_(std::move(controlStates)) {
    util::require(!controls_.empty(), "MC gate needs at least one control");
    util::require(controls_.size() == controlStates_.size(),
                  "controls/controlStates length mismatch");
    std::set<int> seen;
    for (int c : controls_) {
      util::require(c >= 0, "qubit indices must be nonnegative");
      util::require(c != target_, "control equals target");
      util::require(seen.insert(c).second, "duplicate control qubit");
    }
    util::require(target_ >= 0, "qubit indices must be nonnegative");
    for (int s : controlStates_) {
      util::require(s == 0 || s == 1, "control state must be 0 or 1");
    }
  }

  /// All controls with `controlStates` fire the target gate when matched.
  const std::vector<int>& controlQubits() const noexcept { return controls_; }
  int target() const noexcept { return target_; }
  const std::vector<int>& states() const noexcept { return controlStates_; }

  int nbQubits() const noexcept final {
    return static_cast<int>(controls_.size()) + 1;
  }

  std::vector<int> qubits() const final {
    std::vector<int> qs = controls_;
    qs.push_back(target_);
    std::sort(qs.begin(), qs.end());
    return qs;
  }
  int maxQubit() const final {
    return std::max(target_, *std::max_element(controls_.begin(),
                                               controls_.end()));
  }

  void shiftQubits(int delta) final {
    util::require(target_ + delta >= 0, "qubit shift would go negative");
    for (int c : controls_) {
      util::require(c + delta >= 0, "qubit shift would go negative");
    }
    for (int& c : controls_) c += delta;
    target_ += delta;
  }

  /// The single-qubit gate applied to the target.
  virtual const QGate1<T>& gate1() const = 0;

  std::vector<int> controls() const final { return controls_; }
  std::vector<int> controlStates() const final { return controlStates_; }
  std::vector<int> targets() const final { return {target_}; }
  dense::Matrix<T> targetMatrix() const final { return gate1().matrix(); }

  dense::Matrix<T> matrix() const final {
    return controlledMatrix(qubits(), controls_, controlStates_, {target_},
                            gate1().matrix());
  }

  bool isDiagonal() const noexcept final { return gate1().isDiagonal(); }

  void toQASM(std::ostream& stream, int offset = 0) const final {
    // Flip 0-controls so the emitted gate is the all-ones-controlled one.
    for (std::size_t i = 0; i < controls_.size(); ++i) {
      if (controlStates_[i] == 0)
        stream << "x q[" << (controls_[i] + offset) << "];\n";
    }
    emitControlledBody(stream, offset);
    for (std::size_t i = 0; i < controls_.size(); ++i) {
      if (controlStates_[i] == 0)
        stream << "x q[" << (controls_[i] + offset) << "];\n";
    }
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const final {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kBox;
    item.label = gate1().drawLabel();
    item.boxTop = target_ + offset;
    item.boxBottom = target_ + offset;
    for (std::size_t i = 0; i < controls_.size(); ++i) {
      if (controlStates_[i] == 1) {
        item.controls1.push_back(controls_[i] + offset);
      } else {
        item.controls0.push_back(controls_[i] + offset);
      }
    }
    items.push_back(std::move(item));
  }

 protected:
  /// Emits the all-ones-controlled gate statement(s).
  virtual void emitControlledBody(std::ostream& stream, int offset) const = 0;

  /// Emits "name c0, c1, ..., target" for the given mnemonic.
  void emitGateLine(std::ostream& stream, const std::string& name,
                    int offset) const {
    stream << name;
    const char* separator = " ";
    for (int c : controls_) {
      stream << separator << "q[" << (c + offset) << "]";
      separator = ", ";
    }
    stream << ", q[" << (target_ + offset) << "];\n";
  }

 private:
  std::vector<int> controls_;
  int target_;
  std::vector<int> controlStates_;
};

/// Multi-controlled X gate (Toffoli for two controls).
template <typename T>
class MCX final : public MCGate<T> {
 public:
  MCX(std::vector<int> controls, int target, std::vector<int> controlStates)
      : MCGate<T>(std::move(controls), target, std::move(controlStates)),
        gate_(target) {}

  /// All controls on state |1>.
  MCX(std::vector<int> controls, int target)
      : MCX(controls, target, std::vector<int>(controls.size(), 1)) {}

  const QGate1<T>& gate1() const override { return gate_; }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<MCX<T>>(this->controlQubits(), this->target(),
                                    this->states());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<MCX<T>>(*this);
  }

 protected:
  void emitControlledBody(std::ostream& stream, int offset) const override {
    static const char* kNames[] = {"cx", "ccx", "c3x", "c4x"};
    const std::size_t n = this->controlQubits().size();
    util::require(n <= 4,
                  "MCX with more than 4 controls has no OpenQASM 2 mnemonic; "
                  "decompose the gate first");
    this->emitGateLine(stream, kNames[n - 1], offset);
  }

 private:
  PauliX<T> gate_;
};

/// Toffoli (CCX) convenience gate.
template <typename T>
class Toffoli final : public MCGate<T> {
 public:
  Toffoli(int control0, int control1, int target)
      : MCGate<T>({control0, control1}, target, {1, 1}), gate_(target) {}
  const QGate1<T>& gate1() const override { return gate_; }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<Toffoli<T>>(*this);
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<Toffoli<T>>(*this);
  }

 protected:
  void emitControlledBody(std::ostream& stream, int offset) const override {
    this->emitGateLine(stream, "ccx", offset);
  }

 private:
  PauliX<T> gate_;
};

/// Multi-controlled Y gate.
template <typename T>
class MCY final : public MCGate<T> {
 public:
  MCY(std::vector<int> controls, int target, std::vector<int> controlStates)
      : MCGate<T>(std::move(controls), target, std::move(controlStates)),
        gate_(target) {}
  MCY(std::vector<int> controls, int target)
      : MCY(controls, target, std::vector<int>(controls.size(), 1)) {}

  const QGate1<T>& gate1() const override { return gate_; }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<MCY<T>>(this->controlQubits(), this->target(),
                                    this->states());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<MCY<T>>(*this);
  }

 protected:
  void emitControlledBody(std::ostream& stream, int offset) const override {
    if (this->controlQubits().size() == 1) {
      this->emitGateLine(stream, "cy", offset);
      return;
    }
    // Y = S X S^H, so an MC-Y is S(t) . MCX . Sdg(t).
    stream << "sdg q[" << (this->target() + offset) << "];\n";
    static const char* kNames[] = {"cx", "ccx", "c3x", "c4x"};
    const std::size_t n = this->controlQubits().size();
    util::require(n <= 4,
                  "MCY with more than 4 controls has no OpenQASM 2 mnemonic; "
                  "decompose the gate first");
    this->emitGateLine(stream, kNames[n - 1], offset);
    stream << "s q[" << (this->target() + offset) << "];\n";
  }

 private:
  PauliY<T> gate_;
};

/// Multi-controlled Z gate.
template <typename T>
class MCZ final : public MCGate<T> {
 public:
  MCZ(std::vector<int> controls, int target, std::vector<int> controlStates)
      : MCGate<T>(std::move(controls), target, std::move(controlStates)),
        gate_(target) {}
  MCZ(std::vector<int> controls, int target)
      : MCZ(controls, target, std::vector<int>(controls.size(), 1)) {}

  const QGate1<T>& gate1() const override { return gate_; }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<MCZ<T>>(this->controlQubits(), this->target(),
                                    this->states());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<MCZ<T>>(*this);
  }

 protected:
  void emitControlledBody(std::ostream& stream, int offset) const override {
    if (this->controlQubits().size() == 1) {
      this->emitGateLine(stream, "cz", offset);
      return;
    }
    // Z = H X H, so an MC-Z is H(t) . MCX . H(t).
    stream << "h q[" << (this->target() + offset) << "];\n";
    static const char* kNames[] = {"cx", "ccx", "c3x", "c4x"};
    const std::size_t n = this->controlQubits().size();
    util::require(n <= 4,
                  "MCZ with more than 4 controls has no OpenQASM 2 mnemonic; "
                  "decompose the gate first");
    this->emitGateLine(stream, kNames[n - 1], offset);
    stream << "h q[" << (this->target() + offset) << "];\n";
  }

 private:
  PauliZ<T> gate_;
};

}  // namespace qclab::qgates
