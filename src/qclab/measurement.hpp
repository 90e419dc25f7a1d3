#pragma once

/// \file measurement.hpp
/// \brief Single-qubit measurement in the Z, X, Y, or a custom basis.
///
/// Measurements in a non-computational basis are realized exactly as the
/// paper describes (§3.3): the basis change V† is applied before a standard
/// Z measurement and V is applied again afterwards, so probabilities and
/// post-measurement states are correct in the requested basis.

#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "qclab/dense/matrix.hpp"
#include "qclab/qobject.hpp"
#include "qclab/util/errors.hpp"

namespace qclab {

/// Measurement basis selector.
enum class Basis { kZ, kX, kY, kCustom };

template <typename T>
class Measurement final : public QObject<T> {
 public:
  /// Z-basis measurement of `qubit`.
  explicit Measurement(int qubit) : Measurement(qubit, Basis::kZ) {}

  /// Measurement of `qubit` in a preconfigured basis.
  Measurement(int qubit, Basis basis) : qubit_(qubit), basis_(basis) {
    util::require(qubit >= 0, "qubit index must be nonnegative");
    util::require(basis != Basis::kCustom,
                  "custom basis requires the matrix constructor");
  }

  /// Measurement in a basis given by a character: 'z', 'x', or 'y'
  /// (mirrors QCLAB's Measurement(0, 'x')).
  Measurement(int qubit, char basis) : qubit_(qubit) {
    util::require(qubit >= 0, "qubit index must be nonnegative");
    switch (basis) {
      case 'z': case 'Z': basis_ = Basis::kZ; break;
      case 'x': case 'X': basis_ = Basis::kX; break;
      case 'y': case 'Y': basis_ = Basis::kY; break;
      default:
        throw InvalidArgumentError("unknown measurement basis character");
    }
  }

  /// Measurement in the custom basis whose vectors are the *columns* of the
  /// 2x2 unitary `basisVectors`.
  Measurement(int qubit, dense::Matrix<T> basisVectors)
      : qubit_(qubit), basis_(Basis::kCustom), custom_(std::move(basisVectors)) {
    util::require(qubit >= 0, "qubit index must be nonnegative");
    util::require(custom_.rows() == 2 && custom_.cols() == 2,
                  "custom measurement basis must be a 2x2 unitary");
    util::require(custom_.isUnitary(T(1e4) * std::numeric_limits<T>::epsilon()),
                  "custom measurement basis must be unitary");
  }

  ObjectType objectType() const noexcept override {
    return ObjectType::kMeasurement;
  }

  int nbQubits() const noexcept override { return 1; }
  std::vector<int> qubits() const override { return {qubit_}; }
  int maxQubit() const override { return qubit_; }

  /// The measured qubit.
  int qubit() const noexcept { return qubit_; }

  void shiftQubits(int delta) override {
    util::require(qubit_ + delta >= 0, "qubit shift would go negative");
    qubit_ += delta;
  }
  /// The measurement basis.
  Basis basis() const noexcept { return basis_; }

  /// Unitary V whose columns are the measurement basis vectors.
  dense::Matrix<T> basisVectors() const {
    using C = std::complex<T>;
    const T h = T(1) / std::sqrt(T(2));
    switch (basis_) {
      case Basis::kZ:
        return dense::Matrix<T>::identity(2);
      case Basis::kX:
        return dense::Matrix<T>{{h, h}, {h, -h}};
      case Basis::kY:
        return dense::Matrix<T>{{C(h), C(h)}, {C(0, h), C(0, -h)}};
      case Basis::kCustom:
        return custom_;
    }
    return dense::Matrix<T>::identity(2);
  }

  /// Basis change applied before the standard Z measurement (V†).
  dense::Matrix<T> basisChangeMatrix() const { return basisVectors().dagger(); }

  std::unique_ptr<QObject<T>> clone() const override {
    return std::make_unique<Measurement<T>>(*this);
  }

  void toQASM(std::ostream& stream, int offset = 0) const override {
    const int q = qubit_ + offset;
    // Hardware realizes non-Z bases by a basis change before a Z measurement.
    switch (basis_) {
      case Basis::kZ:
        break;
      case Basis::kX:
        stream << "h q[" << q << "];\n";
        break;
      case Basis::kY:
        stream << "sdg q[" << q << "];\n" << "h q[" << q << "];\n";
        break;
      case Basis::kCustom:
        throw InvalidArgumentError(
            "custom-basis measurement has no direct OpenQASM 2 form; apply "
            "the basis change explicitly");
    }
    stream << "measure q[" << q << "] -> c[" << q << "];\n";
  }

  void appendDrawItems(std::vector<io::DrawItem>& items,
                       int offset = 0) const override {
    io::DrawItem item;
    item.kind = io::DrawItem::Kind::kMeasure;
    switch (basis_) {
      case Basis::kZ: item.label = "M"; break;
      case Basis::kX: item.label = "Mx"; break;
      case Basis::kY: item.label = "My"; break;
      case Basis::kCustom: item.label = "Mu"; break;
    }
    item.boxTop = qubit_ + offset;
    item.boxBottom = qubit_ + offset;
    items.push_back(std::move(item));
  }

 private:
  int qubit_;
  Basis basis_ = Basis::kZ;
  dense::Matrix<T> custom_;
};

}  // namespace qclab
