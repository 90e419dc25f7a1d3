#pragma once

/// \file density_matrix.hpp
/// \brief Density-matrix state for mixed-state (noisy) simulation.
///
/// The state is a dense 2^n x 2^n density matrix, stored row-major, which
/// is the vectorised |rho>> of a 2n-qubit register: row qubit q is qubit
/// q and column qubit q is qubit q + n.  Every operation runs in place on
/// that storage through the statevector kernels: a gate U as U on the row
/// qubits and conj(U) = conj . U . conj on the column qubits, a channel
/// as one sweep of its superoperator on (qubits, qubits + n), and
/// measurements either dephase (mid-circuit, outcome kept coherent for
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

  /// Applies a unitary gate: rho <- U rho U^H, as U on the row qubits and
  /// conj(U) on the column qubits.  The qubits are checked against n
  /// first: in the 2n-qubit register a qubit past n is a column qubit.
  void applyGate(const qgates::QGate<T>& gate, int offset = 0) {
    const std::vector<int> qubits = gate.qubits();
    util::checkQubit(qubits.front() + offset, nbQubits_);
    util::checkQubit(qubits.back() + offset, nbQubits_);
    const auto& backend = sim::defaultBackend<T>();
    sim::StateSpan<T> state = vectorised();
    backend.applyGate(state, 2 * nbQubits_, gate, offset);
    sim::conjugate(state, 2 * nbQubits_);
    backend.applyGate(state, 2 * nbQubits_, gate, offset + nbQubits_);
    sim::conjugate(state, 2 * nbQubits_);
  }

  /// Applies a Kraus channel on the given (ascending) qubits:
  /// rho <- sum_i K_i rho K_i^H, as one sweep of the channel's
  /// superoperator on (qubits, qubits + n).
  void applyChannel(const KrausChannel<T>& channel,
                    const std::vector<int>& qubits) {
    util::require(static_cast<int>(qubits.size()) == channel.nbQubits(),
                  "channel qubit count mismatch");
    std::vector<int> doubled(qubits);
    for (int qubit : qubits) {
      util::checkQubit(qubit, nbQubits_);
      doubled.push_back(qubit + nbQubits_);
    }
    sim::StateSpan<T> state = vectorised();
    if (qubits.size() == 1) {
      sim::apply2(state, 2 * nbQubits_, doubled[0], doubled[1],
                  channel.superoperator());
    } else {
      sim::applyK(state, 2 * nbQubits_, doubled, channel.superoperator());
    }
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
    applyDiagonal(qubit, {value_type(1), value_type(0), value_type(0),
                          value_type(1)});
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
    std::vector<value_type> diagonal(4, value_type(0));
    diagonal[3 * keep] = value_type(T(1) / p);
    applyDiagonal(qubit, diagonal);
    return p;
  }

  /// Reset: rho <- P0 rho P0 + X P1 rho P1 X, the channel of the Kraus
  /// pair {|0><0|, |0><1|}.
  void reset(int qubit) {
    static const KrausChannel<T> channel(
        {dense::Matrix<T>{{1, 0}, {0, 0}}, dense::Matrix<T>{{0, 1}, {0, 0}}});
    applyChannel(channel, {qubit});
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
  /// rho's storage as the state of a 2n-qubit register.
  sim::StateSpan<T> vectorised() noexcept {
    return sim::StateSpan<T>(rho_.data(), rho_.size());
  }

  /// Scales entry (i, j) of rho by diagonal[2 b_i + b_j], where b_i and
  /// b_j are the row and column bits of `qubit`.
  void applyDiagonal(int qubit, const std::vector<value_type>& diagonal) {
    sim::StateSpan<T> state = vectorised();
    sim::applyDiagonalBlock(state, 2 * nbQubits_, {qubit, qubit + nbQubits_},
                            diagonal);
  }

  int nbQubits_;
  dense::Matrix<T> rho_;
};

}  // namespace qclab::noise
