#pragma once

/// \file matrix_gates.hpp
/// \brief User-defined gates from explicit unitary matrices.  The paper
/// highlights that QCLAB's object-oriented architecture lets users implement
/// custom quantum gates; these classes are the direct route.

#include <utility>

#include "qclab/dense/decompose.hpp"
#include "qclab/io/format.hpp"
#include "qclab/qgates/qgate1.hpp"

namespace qclab::qgates {

/// Custom single-qubit gate from a 2x2 unitary.
template <typename T>
class MatrixGate1 final : public QGate1<T> {
 public:
  /// Creates the gate; throws InvalidArgumentError if `matrix` is not a
  /// 2x2 unitary.  `label` is used in circuit diagrams.
  MatrixGate1(int qubit, dense::Matrix<T> matrix, std::string label = "U")
      : QGate1<T>(qubit), matrix_(std::move(matrix)), label_(std::move(label)) {
    util::require(matrix_.rows() == 2 && matrix_.cols() == 2,
                  "MatrixGate1 needs a 2x2 matrix");
    util::require(matrix_.isUnitary(unitaryTol()),
                  "MatrixGate1 matrix is not unitary");
  }

  dense::Matrix<T> matrix() const override { return matrix_; }

  std::string qasmName() const override {
    // Export via the ZYZ decomposition (exact up to global phase).
    const auto euler = dense::zyzDecompose(matrix_);
    return "u3(" + io::formatAngle(static_cast<double>(euler.theta)) + ", " +
           io::formatAngle(static_cast<double>(euler.phi)) + ", " +
           io::formatAngle(static_cast<double>(euler.lambda)) + ")";
  }

  std::string drawLabel() const override { return label_; }

  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<MatrixGate1<T>>(this->qubit(), matrix_.dagger(),
                                            label_ + "†");
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<MatrixGate1<T>>(*this);
  }

  static constexpr T unitaryTol() {
    return T(1e4) * std::numeric_limits<T>::epsilon();
  }

 private:
  dense::Matrix<T> matrix_;
  std::string label_;
};

/// Custom gate on an arbitrary ascending qubit list from a 2^k x 2^k
/// unitary (qubit list is MSB-first, matching the rest of the library).
template <typename T>
class MatrixGateN final : public QGate<T> {
 public:
  MatrixGateN(std::vector<int> qubits, dense::Matrix<T> matrix,
              std::string label = "U")
      : qubits_(std::move(qubits)),
        matrix_(std::move(matrix)),
        label_(std::move(label)) {
    util::require(!qubits_.empty(), "MatrixGateN needs at least one qubit");
    for (std::size_t i = 0; i < qubits_.size(); ++i) {
      util::require(qubits_[i] >= 0, "qubit indices must be nonnegative");
      if (i > 0) {
        util::require(qubits_[i] > qubits_[i - 1],
                      "MatrixGateN qubits must be strictly ascending");
      }
    }
    const std::size_t dim = std::size_t{1} << qubits_.size();
    util::require(matrix_.rows() == dim && matrix_.cols() == dim,
                  "MatrixGateN matrix dimension mismatch");
    util::require(matrix_.isUnitary(MatrixGate1<T>::unitaryTol()),
                  "MatrixGateN matrix is not unitary");
  }

  int nbQubits() const noexcept override {
    return static_cast<int>(qubits_.size());
  }
  std::vector<int> qubits() const override { return qubits_; }
  int maxQubit() const override { return qubits_.back(); }
  dense::Matrix<T> matrix() const override { return matrix_; }

  void shiftQubits(int delta) override {
    util::require(qubits_.front() + delta >= 0,
                  "qubit shift would go negative");
    for (int& q : qubits_) q += delta;
  }

  std::unique_ptr<QGate<T>> inverse() const override {
    return std::make_unique<MatrixGateN<T>>(qubits_, matrix_.dagger(),
                                            label_ + "†");
  }
  std::unique_ptr<QGate<T>> cloneGate() const override {
    return std::make_unique<MatrixGateN<T>>(*this);
  }

  void toQASM(std::ostream& stream, int offset = 0) const override {
    if (qubits_.size() == 1) {
      MatrixGate1<T>(qubits_[0], matrix_, label_).toQASM(stream, offset);
      return;
    }
    throw InvalidArgumentError(
        "MatrixGateN (k > 1) has no direct OpenQASM 2 representation; "
        "decompose the gate first");
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kBox;
    item.label = label_;
    item.boxTop = qubits_.front() + offset;
    item.boxBottom = qubits_.back() + offset;
    items.push_back(std::move(item));
  }

 private:
  std::vector<int> qubits_;
  dense::Matrix<T> matrix_;
  std::string label_;
};

}  // namespace qclab::qgates
