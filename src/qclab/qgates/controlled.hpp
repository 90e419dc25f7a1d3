#pragma once

/// \file controlled.hpp
/// \brief Controlled two-qubit gates: CX/CNOT, CY, CZ, CH, CPhase,
/// CRX/CRY/CRZ.  Controls may be on state |1> (default) or |0>, and control
/// and target need not be adjacent — the simulator and the matrix
/// construction handle arbitrary qubit pairs.

#include "qclab/qgates/paulis.hpp"
#include "qclab/qgates/phases.hpp"
#include "qclab/qgates/qgate.hpp"
#include "qclab/qgates/rotations.hpp"

namespace qclab::qgates {

/// Base class of all singly-controlled single-target gates.
template <typename T>
class QControlledGate2 : public QGate<T> {
 public:
  QControlledGate2(int control, int target, int controlState)
      : control_(control), target_(target), controlState_(controlState) {
    util::require(control >= 0 && target >= 0,
                  "qubit indices must be nonnegative");
    util::require(control != target, "control and target must differ");
    util::require(controlState == 0 || controlState == 1,
                  "control state must be 0 or 1");
  }

  int nbQubits() const noexcept final { return 2; }

  /// Control qubit.
  int control() const noexcept { return control_; }
  /// Target qubit.
  int target() const noexcept { return target_; }
  /// Control state: gate fires when the control is in |controlState>.
  int controlState() const noexcept { return controlState_; }

  std::vector<int> qubits() const final {
    return {std::min(control_, target_), std::max(control_, target_)};
  }
  int maxQubit() const final { return std::max(control_, target_); }

  void shiftQubits(int delta) final {
    util::require(control_ + delta >= 0 && target_ + delta >= 0,
                  "qubit shift would go negative");
    control_ += delta;
    target_ += delta;
  }

  /// The single-qubit gate applied to the target.
  virtual const QGate1<T>& gate1() const = 0;

  std::vector<int> controls() const final { return {control_}; }
  std::vector<int> controlStates() const final { return {controlState_}; }
  std::vector<int> targets() const final { return {target_}; }
  dense::Matrix<T> targetMatrix() const final { return gate1().matrix(); }

  dense::Matrix<T> matrix() const final {
    return controlledMatrix(qubits(), {control_}, {controlState_}, {target_},
                            gate1().matrix());
  }

  bool isDiagonal() const noexcept final { return gate1().isDiagonal(); }

  /// QASM mnemonic of the controlled gate, e.g. "cx", "cp(0.5)".
  virtual std::string qasmName() const = 0;

  void toQASM(std::ostream& stream, int offset = 0) const final {
    if (controlState_ == 0) {
      stream << "x q[" << (control_ + offset) << "];\n";
    }
    stream << qasmName() << " q[" << (control_ + offset) << "], q["
           << (target_ + offset) << "];\n";
    if (controlState_ == 0) {
      stream << "x q[" << (control_ + offset) << "];\n";
    }
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const final {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kBox;
    item.label = gate1().drawLabel();
    item.boxTop = target_ + offset;
    item.boxBottom = target_ + offset;
    if (controlState_ == 1) {
      item.controls1 = {control_ + offset};
    } else {
      item.controls0 = {control_ + offset};
    }
    items.push_back(std::move(item));
  }

 private:
  int control_;
  int target_;
  int controlState_;
};

/// Controlled-X (CNOT) gate.
template <typename T>
class CX final : public QControlledGate2<T> {
 public:
  CX(int control, int target, int controlState = 1)
      : QControlledGate2<T>(control, target, controlState), gate_(target) {}
  const QGate1<T>& gate1() const override { return gate_; }
  std::string qasmName() const override { return "cx"; }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<CX<T>>(this->control(), this->target(),
                                   this->controlState());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CX<T>>(*this);
  }

 private:
  PauliX<T> gate_;
};

/// QCLAB-compatible alias.
template <typename T>
using CNOT = CX<T>;

/// Controlled-Y gate.
template <typename T>
class CY final : public QControlledGate2<T> {
 public:
  CY(int control, int target, int controlState = 1)
      : QControlledGate2<T>(control, target, controlState), gate_(target) {}
  const QGate1<T>& gate1() const override { return gate_; }
  std::string qasmName() const override { return "cy"; }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<CY<T>>(this->control(), this->target(),
                                   this->controlState());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CY<T>>(*this);
  }

 private:
  PauliY<T> gate_;
};

/// Controlled-Z gate.
template <typename T>
class CZ final : public QControlledGate2<T> {
 public:
  CZ(int control, int target, int controlState = 1)
      : QControlledGate2<T>(control, target, controlState), gate_(target) {}
  const QGate1<T>& gate1() const override { return gate_; }
  std::string qasmName() const override { return "cz"; }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<CZ<T>>(this->control(), this->target(),
                                   this->controlState());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CZ<T>>(*this);
  }

 private:
  PauliZ<T> gate_;
};

/// Controlled-Hadamard gate.
template <typename T>
class CH final : public QControlledGate2<T> {
 public:
  CH(int control, int target, int controlState = 1)
      : QControlledGate2<T>(control, target, controlState), gate_(target) {}
  const QGate1<T>& gate1() const override { return gate_; }
  std::string qasmName() const override { return "ch"; }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<CH<T>>(this->control(), this->target(),
                                   this->controlState());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CH<T>>(*this);
  }

 private:
  Hadamard<T> gate_;
};

/// Controlled phase gate diag(1, 1, 1, e^{iθ}) (for control state 1).
template <typename T>
class CPhase final : public QControlledGate2<T> {
 public:
  CPhase(int control, int target, T theta, int controlState = 1)
      : QControlledGate2<T>(control, target, controlState),
        gate_(target, theta) {}
  const QGate1<T>& gate1() const override { return gate_; }
  T theta() const noexcept { return gate_.theta(); }
  void setTheta(T theta) noexcept { gate_.setTheta(theta); }
  std::string qasmName() const override {
    return "cp(" + io::formatAngle(static_cast<double>(theta())) + ")";
  }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<CPhase<T>>(this->control(), this->target(),
                                       -theta(), this->controlState());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CPhase<T>>(*this);
  }

 private:
  Phase<T> gate_;
};

/// Controlled X-rotation.
template <typename T>
class CRotationX final : public QControlledGate2<T> {
 public:
  CRotationX(int control, int target, T theta, int controlState = 1)
      : QControlledGate2<T>(control, target, controlState),
        gate_(target, theta) {}
  const QGate1<T>& gate1() const override { return gate_; }
  T theta() const noexcept { return gate_.theta(); }
  /// Updates the rotation angle in place (parameter rebinding surface).
  void setTheta(T theta) noexcept { gate_.setTheta(theta); }
  std::string qasmName() const override {
    return "crx(" + io::formatAngle(static_cast<double>(theta())) + ")";
  }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<CRotationX<T>>(this->control(), this->target(),
                                           -theta(), this->controlState());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CRotationX<T>>(*this);
  }

 private:
  RotationX<T> gate_;
};

/// Controlled Y-rotation.
template <typename T>
class CRotationY final : public QControlledGate2<T> {
 public:
  CRotationY(int control, int target, T theta, int controlState = 1)
      : QControlledGate2<T>(control, target, controlState),
        gate_(target, theta) {}
  const QGate1<T>& gate1() const override { return gate_; }
  T theta() const noexcept { return gate_.theta(); }
  /// Updates the rotation angle in place (parameter rebinding surface).
  void setTheta(T theta) noexcept { gate_.setTheta(theta); }
  std::string qasmName() const override {
    return "cry(" + io::formatAngle(static_cast<double>(theta())) + ")";
  }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<CRotationY<T>>(this->control(), this->target(),
                                           -theta(), this->controlState());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CRotationY<T>>(*this);
  }

 private:
  RotationY<T> gate_;
};

/// Controlled Z-rotation.
template <typename T>
class CRotationZ final : public QControlledGate2<T> {
 public:
  CRotationZ(int control, int target, T theta, int controlState = 1)
      : QControlledGate2<T>(control, target, controlState),
        gate_(target, theta) {}
  const QGate1<T>& gate1() const override { return gate_; }
  T theta() const noexcept { return gate_.theta(); }
  /// Updates the rotation angle in place (parameter rebinding surface).
  void setTheta(T theta) noexcept { gate_.setTheta(theta); }
  std::string qasmName() const override {
    return "crz(" + io::formatAngle(static_cast<double>(theta())) + ")";
  }
  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<CRotationZ<T>>(this->control(), this->target(),
                                           -theta(), this->controlState());
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CRotationZ<T>>(*this);
  }

 private:
  RotationZ<T> gate_;
};

}  // namespace qclab::qgates
