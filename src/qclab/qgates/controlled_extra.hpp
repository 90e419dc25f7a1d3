#pragma once

/// \file controlled_extra.hpp
/// \brief Additional controlled gates: Fredkin (controlled-SWAP) and the
/// generic controlled-U gate CU(theta, phi, lambda, gamma).

#include "qclab/dense/decompose.hpp"
#include "qclab/qgates/qgate.hpp"
#include "qclab/qgates/qrotation.hpp"
#include "qclab/qgates/rotations.hpp"
#include "qclab/qgates/two_qubit.hpp"

namespace qclab::qgates {

/// Fredkin gate: swaps the two targets when the control is satisfied.
template <typename T>
class Fredkin final : public QGate<T> {
 public:
  Fredkin(int control, int target0, int target1, int controlState = 1)
      : control_(control),
        target0_(std::min(target0, target1)),
        target1_(std::max(target0, target1)),
        controlState_(controlState) {
    util::require(control >= 0 && target0 >= 0 && target1 >= 0,
                  "qubit indices must be nonnegative");
    util::require(target0 != target1, "Fredkin targets must differ");
    util::require(control != target0 && control != target1,
                  "Fredkin control equals a target");
    util::require(controlState == 0 || controlState == 1,
                  "control state must be 0 or 1");
  }

  int control() const noexcept { return control_; }
  int target0() const noexcept { return target0_; }
  int target1() const noexcept { return target1_; }
  int controlState() const noexcept { return controlState_; }

  int nbQubits() const noexcept override { return 3; }

  std::vector<int> qubits() const override {
    std::vector<int> qs = {control_, target0_, target1_};
    std::sort(qs.begin(), qs.end());
    return qs;
  }
  int maxQubit() const override { return std::max(control_, target1_); }

  std::vector<int> controls() const override { return {control_}; }
  std::vector<int> controlStates() const override { return {controlState_}; }
  std::vector<int> targets() const override { return {target0_, target1_}; }
  dense::Matrix<T> targetMatrix() const override {
    return SWAP<T>(0, 1).matrix();
  }

  dense::Matrix<T> matrix() const override {
    return controlledMatrix(qubits(), {control_}, {controlState_},
                            {target0_, target1_}, targetMatrix());
  }

  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<Fredkin<T>>(*this);  // self-inverse
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<Fredkin<T>>(*this);
  }

  void shiftQubits(int delta) override {
    util::require(control_ + delta >= 0 && target0_ + delta >= 0,
                  "qubit shift would go negative");
    control_ += delta;
    target0_ += delta;
    target1_ += delta;
  }

  void toQASM(std::ostream& stream, int offset = 0) const override {
    if (controlState_ == 0) stream << "x q[" << (control_ + offset) << "];\n";
    stream << "cswap q[" << (control_ + offset) << "], q["
           << (target0_ + offset) << "], q[" << (target1_ + offset) << "];\n";
    if (controlState_ == 0) stream << "x q[" << (control_ + offset) << "];\n";
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kSwap;
    item.boxTop = target0_ + offset;
    item.boxBottom = target1_ + offset;
    item.swapQubits = {target0_ + offset, target1_ + offset};
    if (controlState_ == 1) {
      item.controls1 = {control_ + offset};
    } else {
      item.controls0 = {control_ + offset};
    }
    items.push_back(std::move(item));
  }

 private:
  int control_;
  int target0_;
  int target1_;
  int controlState_;
};

/// Generic controlled single-qubit unitary (qiskit-style CU): when the
/// control is satisfied, the target receives e^{i gamma} u3(theta, phi,
/// lambda).  With gamma the target action covers all of U(2), so any
/// controlled single-qubit gate can be expressed exactly (used by the
/// phase-estimation builder for controlled powers of U).
template <typename T>
class CU final : public QGate<T> {
 public:
  CU(int control, int target, T theta, T phi, T lambda, T gamma = T(0),
     int controlState = 1)
      : control_(control),
        target_(target),
        controlState_(controlState),
        rotation_(theta),
        phi_(phi),
        lambda_(lambda),
        gamma_(gamma) {
    util::require(control >= 0 && target >= 0,
                  "qubit indices must be nonnegative");
    util::require(control != target, "control and target must differ");
    util::require(controlState == 0 || controlState == 1,
                  "control state must be 0 or 1");
  }

  /// Builds the CU whose target action equals the 2x2 unitary `u` exactly
  /// (via the ZYZ decomposition, including the global phase).
  static CU fromMatrix(int control, int target, const dense::Matrix<T>& u,
                       int controlState = 1) {
    const auto euler = dense::zyzDecompose(u);
    return CU(control, target, euler.theta, euler.phi, euler.lambda,
              euler.alpha, controlState);
  }

  int control() const noexcept { return control_; }
  int target() const noexcept { return target_; }
  int controlState() const noexcept { return controlState_; }
  T theta() const noexcept { return rotation_.theta(); }
  T phi() const noexcept { return phi_.theta(); }
  T lambda() const noexcept { return lambda_.theta(); }
  T gamma() const noexcept { return gamma_.theta(); }

  int nbQubits() const noexcept override { return 2; }
  std::vector<int> qubits() const override {
    return {std::min(control_, target_), std::max(control_, target_)};
  }
  int maxQubit() const override { return std::max(control_, target_); }

  std::vector<int> controls() const override { return {control_}; }
  std::vector<int> controlStates() const override { return {controlState_}; }
  std::vector<int> targets() const override { return {target_}; }

  dense::Matrix<T> targetMatrix() const override {
    auto m = U3<T>(target_, rotation_, phi_, lambda_).matrix();
    return m * std::complex<T>(gamma_.cos(), gamma_.sin());
  }

  dense::Matrix<T> matrix() const override {
    return controlledMatrix(qubits(), {control_}, {controlState_}, {target_},
                            targetMatrix());
  }

  std::unique_ptr<QGate<T>> inverse() const override {
    // (e^{ig} u3(t, p, l))^H = e^{-ig} u3(-t, -l, -p).
    return std::make_unique<CU<T>>(control_, target_, -theta(), -lambda(),
                                   -phi(), -gamma(), controlState_);
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<CU<T>>(*this);
  }

  void shiftQubits(int delta) override {
    util::require(control_ + delta >= 0 && target_ + delta >= 0,
                  "qubit shift would go negative");
    control_ += delta;
    target_ += delta;
  }

  void toQASM(std::ostream& stream, int offset = 0) const override {
    // cu(theta, phi, lambda, gamma) == p(gamma) on the control (phase on
    // the whole control-active subspace) followed by cu3(theta, phi,
    // lambda).
    const int c = control_ + offset;
    const int t = target_ + offset;
    if (controlState_ == 0) stream << "x q[" << c << "];\n";
    if (gamma() != T(0)) {
      stream << "p(" << io::formatAngle(static_cast<double>(gamma()))
             << ") q[" << c << "];\n";
    }
    stream << "cu3(" << io::formatAngle(static_cast<double>(theta())) << ", "
           << io::formatAngle(static_cast<double>(phi())) << ", "
           << io::formatAngle(static_cast<double>(lambda())) << ") q[" << c
           << "], q[" << t << "];\n";
    if (controlState_ == 0) stream << "x q[" << c << "];\n";
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kBox;
    item.label = "U";
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
  QRotation<T> rotation_;
  QAngle<T> phi_;
  QAngle<T> lambda_;
  QAngle<T> gamma_;
};

}  // namespace qclab::qgates
