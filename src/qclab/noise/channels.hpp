#pragma once

/// \file channels.hpp
/// \brief Quantum noise channels in Kraus form.
///
/// Extension module motivated by the paper's error-correction example
/// (§5.4): the repetition code is only interesting when errors are
/// probabilistic.  A KrausChannel is a completely positive trace-preserving
/// map rho -> sum_i K_i rho K_i^H; the standard single-qubit channels are
/// provided as factories.

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/dense/ops.hpp"

namespace qclab::noise {

template <typename T>
class KrausChannel {
 public:
  /// Default tolerance of the sum K^H K = I check: 1e-10, or 64 roundings
  /// of 1 where that is larger (float: 7.6e-6; double keeps 1e-10).  The
  /// factories land within one epsilon of I; 64 leaves room for sums of
  /// many user operators and stays far below a physical loss of trace.
  static constexpr T kDefaultTolerance =
      std::max(T(1e-10), T(64) * std::numeric_limits<T>::epsilon());

  /// Builds a channel from its Kraus operators (all must be square with
  /// the same power-of-two dimension, and satisfy sum K^H K = I within
  /// `tol`) and forms its superoperator once.
  explicit KrausChannel(std::vector<dense::Matrix<T>> operators,
                        T tol = kDefaultTolerance)
      : operators_(std::move(operators)) {
    util::require(!operators_.empty(), "channel needs >= 1 Kraus operator");
    const std::size_t dim = operators_.front().rows();
    util::require(dim >= 2 && (dim & (dim - 1)) == 0,
                  "Kraus operator dimension must be a power of two");
    superoperator_ = dense::Matrix<T>(dim * dim, dim * dim);
    for (const auto& k : operators_) {
      util::require(k.rows() == dim && k.cols() == dim,
                    "Kraus operators must share one square dimension");
      superoperator_ += dense::kron(k, k.conj());
    }
    // Trace preservation, sum K^H K = I, reads vec(I)^T S = vec(I)^T.
    dense::Matrix<T> identity(1, dim * dim);
    for (std::size_t a = 0; a < dim; ++a) identity(0, a * dim + a) = 1;
    util::require((identity * superoperator_).distanceMax(identity) <= tol,
                  "Kraus operators do not satisfy sum K^H K = I");
  }

  /// The Kraus operators.
  const std::vector<dense::Matrix<T>>& operators() const noexcept {
    return operators_;
  }

  /// The superoperator sum_i K_i (x) conj(K_i): the channel as a matrix
  /// on the vectorised rho, over (qubits, qubits + n) of the 2n-qubit
  /// register whose state is rho's row-major storage.
  const dense::Matrix<T>& superoperator() const noexcept {
    return superoperator_;
  }

  /// Number of qubits the channel acts on.
  int nbQubits() const noexcept {
    std::size_t dim = operators_.front().rows();
    int n = 0;
    while (dim > 1) {
      dim >>= 1;
      ++n;
    }
    return n;
  }

  /// Identity (no-op) channel.
  static KrausChannel identity() {
    return KrausChannel({dense::Matrix<T>::identity(2)});
  }

  /// Bit-flip channel: X with probability p.
  static KrausChannel bitFlip(T p) {
    checkProbability(p);
    return KrausChannel(
        {dense::pauliI<T>() * std::complex<T>(std::sqrt(T(1) - p)),
         dense::pauliX<T>() * std::complex<T>(std::sqrt(p))});
  }

  /// Phase-flip channel: Z with probability p.
  static KrausChannel phaseFlip(T p) {
    checkProbability(p);
    return KrausChannel(
        {dense::pauliI<T>() * std::complex<T>(std::sqrt(T(1) - p)),
         dense::pauliZ<T>() * std::complex<T>(std::sqrt(p))});
  }

  /// Bit-phase-flip channel: Y with probability p.
  static KrausChannel bitPhaseFlip(T p) {
    checkProbability(p);
    return KrausChannel(
        {dense::pauliI<T>() * std::complex<T>(std::sqrt(T(1) - p)),
         dense::pauliY<T>() * std::complex<T>(std::sqrt(p))});
  }

  /// Depolarizing channel: with probability p the qubit is replaced by the
  /// maximally mixed state (X, Y, Z each with probability p/4... using the
  /// standard parameterization K0 = sqrt(1 - 3p/4) I).
  static KrausChannel depolarizing(T p) {
    checkProbability(p);
    const T rest = std::sqrt(p / T(4));
    return KrausChannel(
        {dense::pauliI<T>() * std::complex<T>(std::sqrt(T(1) - T(3) * p / T(4))),
         dense::pauliX<T>() * std::complex<T>(rest),
         dense::pauliY<T>() * std::complex<T>(rest),
         dense::pauliZ<T>() * std::complex<T>(rest)});
  }

  /// Amplitude damping with decay probability gamma (|1> -> |0>).
  static KrausChannel amplitudeDamping(T gamma) {
    checkProbability(gamma);
    using C = std::complex<T>;
    dense::Matrix<T> k0{{C(1), C(0)}, {C(0), C(std::sqrt(T(1) - gamma))}};
    dense::Matrix<T> k1{{C(0), C(std::sqrt(gamma))}, {C(0), C(0)}};
    return KrausChannel({std::move(k0), std::move(k1)});
  }

  /// Asymmetric readout-error channel: a prepared |0> is recorded as 1
  /// with probability p01 and a prepared |1> as 0 with probability p10.
  /// On diagonal (post-dephasing) states this acts exactly like the
  /// classical 2x2 confusion matrix [[1-p01, p10], [p01, 1-p10]]; attach
  /// it as NoiseModel::measurementNoise to model noisy readout.
  static KrausChannel readout(T p01, T p10) {
    checkProbability(p01);
    checkProbability(p10);
    using C = std::complex<T>;
    dense::Matrix<T> keep{{C(std::sqrt(T(1) - p01)), C(0)},
                          {C(0), C(std::sqrt(T(1) - p10))}};
    dense::Matrix<T> flip01{{C(0), C(0)}, {C(std::sqrt(p01)), C(0)}};
    dense::Matrix<T> flip10{{C(0), C(std::sqrt(p10))}, {C(0), C(0)}};
    return KrausChannel(
        {std::move(keep), std::move(flip01), std::move(flip10)});
  }

  /// Symmetric readout-error channel (both outcomes flip with probability p).
  static KrausChannel readout(T p) { return readout(p, p); }

  /// Phase damping with parameter lambda (pure dephasing).
  static KrausChannel phaseDamping(T lambda) {
    checkProbability(lambda);
    using C = std::complex<T>;
    dense::Matrix<T> k0{{C(1), C(0)}, {C(0), C(std::sqrt(T(1) - lambda))}};
    dense::Matrix<T> k1{{C(0), C(0)}, {C(0), C(std::sqrt(lambda))}};
    return KrausChannel({std::move(k0), std::move(k1)});
  }

 private:
  static void checkProbability(T p) {
    util::require(p >= T(0) && p <= T(1),
                  "channel probability must be in [0, 1]");
  }

  std::vector<dense::Matrix<T>> operators_;
  dense::Matrix<T> superoperator_;
};

}  // namespace qclab::noise
