#pragma once

/// \file density_matrix.hpp
/// \brief Density-matrix state for mixed-state (noisy) simulation.
///
/// The state is a dense 2^n x 2^n density matrix; unitary gates are applied
/// as rho -> U rho U^H using the same in-place kernels as the state-vector
/// simulator (column pass + adjoint column pass), channels as Kraus sums,
/// and measurements either dephase (mid-circuit, outcome kept coherent for
/// classically-controlled corrections) or collapse.

#include <complex>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/dense/ops.hpp"
#include "qclab/noise/channels.hpp"
#include "qclab/qgates/qgate.hpp"
#include "qclab/sim/backend.hpp"
#include "qclab/sim/kernels.hpp"
#include "qclab/util/bitstring.hpp"

namespace qclab::noise {

template <typename T>
class DensityMatrix {
 public:
  using value_type = std::complex<T>;

  /// Pure basis state |bits><bits|.
  explicit DensityMatrix(const std::string& bits)
      : nbQubits_(static_cast<int>(bits.size())),
        rho_(std::size_t{1} << bits.size(), std::size_t{1} << bits.size()) {
    const auto index = util::bitstringToIndex(bits);
    rho_(index, index) = value_type(1);
  }

  /// Pure state |state><state|.
  explicit DensityMatrix(const std::vector<value_type>& state)
      : nbQubits_(util::log2PowerOfTwo(state.size())),
        rho_(dense::outer(state, state)) {
    util::require(util::isPowerOfTwo(state.size()),
                  "state dimension must be a power of two");
  }

  /// Wraps an existing density matrix (validated loosely).
  DensityMatrix(int nbQubits, dense::Matrix<T> rho)
      : nbQubits_(nbQubits), rho_(std::move(rho)) {
    util::require(rho_.rows() == (std::size_t{1} << nbQubits) &&
                      rho_.isSquare(),
                  "density matrix dimension mismatch");
  }

  int nbQubits() const noexcept { return nbQubits_; }
  const dense::Matrix<T>& matrix() const noexcept { return rho_; }

  /// tr(rho) — should stay 1 up to rounding.
  T trace() const { return std::real(rho_.trace()); }

  /// tr(rho^2).
  T purity() const {
    T sum(0);
    for (std::size_t i = 0; i < rho_.rows(); ++i)
      for (std::size_t j = 0; j < rho_.cols(); ++j)
        sum += std::norm(rho_(i, j));
    return sum;
  }

  /// <psi| rho |psi> — fidelity with a pure reference state.
  T fidelityWith(const std::vector<value_type>& state) const {
    util::require(state.size() == rho_.rows(),
                  "fidelity dimension mismatch");
    value_type sum(0);
    for (std::size_t i = 0; i < state.size(); ++i) {
      for (std::size_t j = 0; j < state.size(); ++j) {
        sum += std::conj(state[i]) * rho_(i, j) * state[j];
      }
    }
    return std::real(sum);
  }

  /// Applies a unitary gate: rho <- U rho U^H (kernel-based, two passes).
  void applyGate(const qgates::QGate<T>& gate, int offset = 0) {
    const auto& backend = sim::defaultBackend<T>();
    applyMatrixConjugation([&](std::vector<value_type>& column) {
      backend.applyGate(column, nbQubits_, gate, offset);
    });
  }

  /// Applies a Kraus channel on the given qubits:
  /// rho <- sum_i K_i rho K_i^H.
  void applyChannel(const KrausChannel<T>& channel,
                    const std::vector<int>& qubits) {
    util::require(static_cast<int>(qubits.size()) == channel.nbQubits(),
                  "channel qubit count mismatch");
    dense::Matrix<T> result(rho_.rows(), rho_.cols());
    for (const auto& kraus : channel.operators()) {
      dense::Matrix<T> branch = rho_;
      conjugateWithMatrix(branch, qubits, kraus);
      result += branch;
    }
    rho_ = std::move(result);
  }

  /// Probability of measuring |0> on `qubit`.
  T probability0(int qubit) const {
    util::checkQubit(qubit, nbQubits_);
    const int pos = util::bitPosition(qubit, nbQubits_);
    T p0(0);
    for (std::size_t i = 0; i < rho_.rows(); ++i) {
      if (util::getBit(i, pos) == 0) p0 += std::real(rho_(i, i));
    }
    return p0;
  }

  /// Mid-circuit measurement without recording the outcome: dephases the
  /// qubit, rho <- P0 rho P0 + P1 rho P1.  Subsequent classically
  /// controlled corrections can be applied coherently (e.g. the MCX gates
  /// of the repetition code).
  void dephase(int qubit) {
    util::checkQubit(qubit, nbQubits_);
    const int pos = util::bitPosition(qubit, nbQubits_);
    for (std::size_t i = 0; i < rho_.rows(); ++i) {
      for (std::size_t j = 0; j < rho_.cols(); ++j) {
        if (util::getBit(i, pos) != util::getBit(j, pos)) {
          rho_(i, j) = value_type(0);
        }
      }
    }
  }

  /// Collapses `qubit` onto `outcome`, renormalized by the outcome's
  /// weight summed from the diagonal; returns that weight.
  T collapse(int qubit, int outcome) {
    util::checkQubit(qubit, nbQubits_);
    util::require(outcome == 0 || outcome == 1, "outcome must be 0 or 1");
    const int pos = util::bitPosition(qubit, nbQubits_);
    const auto keep = static_cast<util::index_t>(outcome);
    T p(0);
    for (std::size_t i = 0; i < rho_.rows(); ++i) {
      if (util::getBit(i, pos) == keep) p += std::real(rho_(i, i));
    }
    util::require(p > T(0), "cannot collapse onto zero probability");
    for (std::size_t i = 0; i < rho_.rows(); ++i) {
      for (std::size_t j = 0; j < rho_.cols(); ++j) {
        if (util::getBit(i, pos) != keep || util::getBit(j, pos) != keep) {
          rho_(i, j) = value_type(0);
        } else {
          rho_(i, j) /= p;
        }
      }
    }
    return p;
  }

  /// Reset: rho <- P0 rho P0 + X P1 rho P1 X.
  void reset(int qubit) {
    util::checkQubit(qubit, nbQubits_);
    const int pos = util::bitPosition(qubit, nbQubits_);
    dense::Matrix<T> result(rho_.rows(), rho_.cols());
    for (std::size_t i = 0; i < rho_.rows(); ++i) {
      for (std::size_t j = 0; j < rho_.cols(); ++j) {
        if (util::getBit(i, pos) == util::getBit(j, pos)) {
          result(util::clearBit(i, pos), util::clearBit(j, pos)) +=
              rho_(i, j);
        }
      }
    }
    rho_ = std::move(result);
  }

  /// Outcome distribution over the listed qubits (in list order, MSB
  /// first), read from the diagonal.
  std::vector<T> probabilities(const std::vector<int>& qubits) const {
    const int k = static_cast<int>(qubits.size());
    std::vector<T> result(std::size_t{1} << k, T(0));
    for (std::size_t i = 0; i < rho_.rows(); ++i) {
      util::index_t outcome = 0;
      for (int b = 0; b < k; ++b) {
        util::checkQubit(qubits[static_cast<std::size_t>(b)], nbQubits_);
        outcome = (outcome << 1) |
                  util::getBit(i, util::bitPosition(
                                      qubits[static_cast<std::size_t>(b)],
                                      nbQubits_));
      }
      result[outcome] += std::real(rho_(i, i));
    }
    return result;
  }

 private:
  /// rho <- M rho M^H where `columnOp` applies M to a state vector.
  template <typename ColumnOp>
  void applyMatrixConjugation(ColumnOp&& columnOp) {
    // Pass 1: columns (rho <- M rho), via B = (M (M rho)^H)^H.
    applyToColumns(rho_, columnOp);
    dense::Matrix<T> adjoint = rho_.dagger();
    applyToColumns(adjoint, columnOp);
    rho_ = adjoint.dagger();
  }

  template <typename ColumnOp>
  static void applyToColumns(dense::Matrix<T>& matrix, ColumnOp&& columnOp) {
    std::vector<value_type> column(matrix.rows());
    for (std::size_t j = 0; j < matrix.cols(); ++j) {
      for (std::size_t i = 0; i < matrix.rows(); ++i) column[i] = matrix(i, j);
      columnOp(column);
      for (std::size_t i = 0; i < matrix.rows(); ++i) matrix(i, j) = column[i];
    }
  }

  /// branch <- K branch K^H for a (possibly non-unitary) k-qubit matrix.
  void conjugateWithMatrix(dense::Matrix<T>& branch,
                           const std::vector<int>& qubits,
                           const dense::Matrix<T>& kraus) {
    auto op = [&](std::vector<value_type>& column) {
      if (qubits.size() == 1) {
        sim::apply1(column, nbQubits_, qubits[0], kraus);
      } else {
        sim::applyK(column, nbQubits_, qubits, kraus);
      }
    };
    applyToColumns(branch, op);
    dense::Matrix<T> adjoint = branch.dagger();
    applyToColumns(adjoint, op);
    branch = adjoint.dagger();
  }

  int nbQubits_;
  dense::Matrix<T> rho_;
};

}  // namespace qclab::noise
