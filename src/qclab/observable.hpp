#pragma once

/// \file observable.hpp
/// \brief Pauli-string observables and expectation values.
///
/// QCLAB is positioned as a prototyping platform for quantum algorithm
/// research (paper §1); measuring expectation values of Pauli observables
/// is the core primitive of that workflow (VQE-style energy evaluation,
/// tomography generalizations).  No operator matrix is ever materialized:
/// PauliString::apply runs the in-place kernels on a copy, and
/// expectation values only read the state — one pass per term that flips
/// qubits (X/Y factors), plus one Walsh–Hadamard transform of |psi|^2
/// shared by every I/Z-only term.

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <complex>
#include <span>
#include <string>
#include <vector>

#include "qclab/dense/ops.hpp"
#include "qclab/sim/kernels.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

namespace qclab {

template <typename T>
class Observable;

namespace detail {

/// Unnormalized Walsh–Hadamard transform of |psi|^2: entry z is
/// sum_i |psi_i|^2 (-1)^|i&z|, the expectation of the Z string with index
/// mask z.  n 2^n in-place butterflies.
template <typename T>
std::vector<T> walshHadamardOfProbabilities(
    std::span<const std::complex<T>> state) {
  std::vector<T> p(state.size());
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = std::norm(state[i]);
  for (std::size_t h = 1; h < p.size(); h <<= 1) {
    for (std::size_t i = 0; i < p.size(); i += 2 * h) {
      for (std::size_t j = i; j < i + h; ++j) {
        const T a = p[j];
        const T b = p[j + h];
        p[j] = a + b;
        p[j + h] = a - b;
      }
    }
  }
  return p;
}

}  // namespace detail

/// A weighted Pauli string, e.g. 1.5 * "XIZY": character k acts on
/// qubit k ('I', 'X', 'Y', 'Z'; case-insensitive).
template <typename T>
class PauliString {
 public:
  /// Builds `coefficient * paulis`.  Throws on characters outside IXYZ.
  explicit PauliString(std::string paulis, T coefficient = T(1))
      : paulis_(std::move(paulis)), coefficient_(coefficient) {
    util::require(!paulis_.empty(), "empty Pauli string");
    for (char& c : paulis_) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      util::require(c == 'I' || c == 'X' || c == 'Y' || c == 'Z',
                    "Pauli string may contain only I, X, Y, Z");
    }
  }

  /// Number of qubits the string is defined on.
  int nbQubits() const noexcept { return static_cast<int>(paulis_.size()); }

  /// The Pauli characters.
  const std::string& paulis() const noexcept { return paulis_; }

  /// The real coefficient.
  T coefficient() const noexcept { return coefficient_; }
  void setCoefficient(T coefficient) noexcept { coefficient_ = coefficient; }

  /// Number of non-identity factors.
  int weight() const noexcept {
    int w = 0;
    for (char c : paulis_) {
      if (c != 'I') ++w;
    }
    return w;
  }

  /// Applies `coefficient * P` to a copy of `state` using the in-place
  /// kernels.
  std::vector<std::complex<T>> apply(
      const std::vector<std::complex<T>>& state) const {
    util::require(state.size() == (std::size_t{1} << paulis_.size()),
                  "state dimension does not match Pauli string length");
    std::vector<std::complex<T>> result = state;
    const int n = nbQubits();
    for (int q = 0; q < n; ++q) {
      switch (paulis_[static_cast<std::size_t>(q)]) {
        case 'X':
          sim::apply1(result, n, q, dense::pauliX<T>());
          break;
        case 'Y':
          sim::apply1(result, n, q, dense::pauliY<T>());
          break;
        case 'Z':
          sim::applyDiagonal1(result, n, q, std::complex<T>(1),
                              std::complex<T>(-1));
          break;
        default:
          break;
      }
    }
    if (coefficient_ != T(1)) {
      for (auto& amplitude : result) amplitude *= coefficient_;
    }
    return result;
  }

  /// Expectation value <psi| coefficient * P |psi> (real for normalized
  /// states and real coefficients) of a std::vector or a sim::StateBuffer
  /// of any tier, in one read-only pass: with x and z the index masks of
  /// the X/Y and Z/Y factors, P|i> = i^#Y (-1)^|i&z| |i^x>, so
  ///   <psi|P|psi> = sum_i conj(psi[i^x]) psi[i] (-1)^|i&z| i^#Y.
  T expectation(std::span<const std::complex<T>> state) const {
    util::require(state.size() == (std::size_t{1} << paulis_.size()),
                  "state dimension does not match Pauli string length");
    const Masks m = masks();
    // Re(i^#Y w) is Re w, -Im w, -Re w, Im w for #Y mod 4 = 0, 1, 2, 3.
    const bool imaginary = (m.nbY & 1) != 0;
    const T phase = ((m.nbY + (imaginary ? 1 : 0)) & 2) != 0 ? T(-1) : T(1);
    // (-1)^|i&z| is the sign of the block of 64 amplitudes holding i
    // times a table entry for the low six bits of i, which keeps the
    // popcount out of the inner loop.
    const std::size_t dim = state.size();
    const std::size_t block = std::min<std::size_t>(dim, 64);
    std::array<T, 64> lowSign{};
    lowSign[0] = T(1);
    for (std::size_t width = 1; width < block; width <<= 1) {
      const T flip = (m.z & width) != 0 ? T(-1) : T(1);
      for (std::size_t j = 0; j < width; ++j) {
        lowSign[width + j] = flip * lowSign[j];
      }
    }
    const std::complex<T>* psi = state.data();
    T sum(0);
    for (util::index_t base = 0; base < dim; base += block) {
      T partial(0);
      for (std::size_t j = 0; j < block; ++j) {
        const std::complex<T> a = psi[(base | j) ^ m.x];
        const std::complex<T> b = psi[base | j];
        // Re or Im of conj(a) * b.
        partial += lowSign[j] *
                   (imaginary ? a.real() * b.imag() - a.imag() * b.real()
                              : a.real() * b.real() + a.imag() * b.imag());
      }
      sum += (std::popcount(base & m.z) & 1) != 0 ? -partial : partial;
    }
    return coefficient_ * phase * sum;
  }

  /// Dense matrix of `coefficient * P` (tests / small registers).
  dense::Matrix<T> matrix() const {
    dense::Matrix<T> m(1, 1);
    m(0, 0) = std::complex<T>(coefficient_);
    for (char c : paulis_) {
      switch (c) {
        case 'X': m = dense::kron(m, dense::pauliX<T>()); break;
        case 'Y': m = dense::kron(m, dense::pauliY<T>()); break;
        case 'Z': m = dense::kron(m, dense::pauliZ<T>()); break;
        default: m = dense::kron(m, dense::pauliI<T>()); break;
      }
    }
    return m;
  }

 private:
  friend class Observable<T>;

  /// Index masks of the string: x flips the X/Y qubits, z signs the Z/Y
  /// qubits, nbY counts the Y factors.
  struct Masks {
    util::index_t x = 0;
    util::index_t z = 0;
    int nbY = 0;
  };

  Masks masks() const noexcept {
    Masks m;
    const int n = nbQubits();
    for (int q = 0; q < n; ++q) {
      const util::index_t bit = util::index_t{1} << util::bitPosition(q, n);
      switch (paulis_[static_cast<std::size_t>(q)]) {
        case 'X': m.x |= bit; break;
        case 'Y': m.x |= bit; m.z |= bit; ++m.nbY; break;
        case 'Z': m.z |= bit; break;
        default: break;
      }
    }
    return m;
  }

  std::string paulis_;
  T coefficient_;
};

/// A Hermitian observable: a real-weighted sum of Pauli strings on a fixed
/// register size.
template <typename T>
class Observable {
 public:
  /// Empty observable on `nbQubits` qubits.
  explicit Observable(int nbQubits) : nbQubits_(nbQubits) {
    util::require(nbQubits >= 1, "observable needs at least one qubit");
  }

  int nbQubits() const noexcept { return nbQubits_; }

  /// Adds a term; its string length must match the register size.  Terms
  /// with identical Pauli strings are merged.
  Observable& add(PauliString<T> term) {
    util::require(term.nbQubits() == nbQubits_,
                  "Pauli string length does not match the observable");
    for (auto& existing : terms_) {
      if (existing.paulis() == term.paulis()) {
        existing.setCoefficient(existing.coefficient() + term.coefficient());
        return *this;
      }
    }
    terms_.push_back(std::move(term));
    return *this;
  }

  /// Convenience: add(coefficient * paulis).
  Observable& add(const std::string& paulis, T coefficient) {
    return add(PauliString<T>(paulis, coefficient));
  }

  const std::vector<PauliString<T>>& terms() const noexcept { return terms_; }
  std::size_t nbTerms() const noexcept { return terms_.size(); }

  /// H |psi>.
  std::vector<std::complex<T>> apply(
      const std::vector<std::complex<T>>& state) const {
    std::vector<std::complex<T>> result(state.size(), std::complex<T>(0));
    for (const auto& term : terms_) {
      const auto contribution = term.apply(state);
      for (std::size_t i = 0; i < result.size(); ++i) {
        result[i] += contribution[i];
      }
    }
    return result;
  }

  /// <psi| H |psi> of a std::vector or a sim::StateBuffer of any tier,
  /// read in place.  Every I/Z-only term is one entry of a single
  /// Walsh–Hadamard transform of |psi|^2, so all of them together cost
  /// O(n 2^n); every other term is one read-only pass
  /// (PauliString::expectation).
  T expectation(std::span<const std::complex<T>> state) const {
    util::require(state.size() == (std::size_t{1} << nbQubits_),
                  "state dimension does not match Pauli string length");
    std::vector<T> spectrum;  // transform of |psi|^2, built on first use
    T sum(0);
    for (const auto& term : terms_) {
      const auto termMasks = term.masks();
      if (termMasks.x != 0) {
        sum += term.expectation(state);
        continue;
      }
      if (spectrum.empty()) {
        spectrum = detail::walshHadamardOfProbabilities(state);
      }
      sum += term.coefficient() * spectrum[termMasks.z];
    }
    return sum;
  }

  /// Var(H) = <H^2> - <H>^2 for the given state.
  T variance(const std::vector<std::complex<T>>& state) const {
    const auto hPsi = apply(state);
    const T squared = dense::normSquared(hPsi);               // <H^2>
    const T mean = std::real(dense::inner(state, hPsi));      // <H>
    return squared - mean * mean;
  }

  /// Dense matrix (tests / small registers).
  dense::Matrix<T> matrix() const {
    const std::size_t dim = std::size_t{1} << nbQubits_;
    dense::Matrix<T> m(dim, dim);
    for (const auto& term : terms_) {
      m += term.matrix();
    }
    return m;
  }

 private:
  int nbQubits_;
  std::vector<PauliString<T>> terms_;
};

/// Transverse-field Ising Hamiltonian on a chain:
///   H = -J * sum_i Z_i Z_{i+1} - h * sum_i X_i
/// (periodic adds the wrap-around ZZ bond).  The canonical benchmark
/// observable for time-evolution compilers like F3C built on QCLAB.
template <typename T>
Observable<T> isingHamiltonian(int nbQubits, T coupling, T field,
                               bool periodic = false) {
  Observable<T> hamiltonian(nbQubits);
  const auto bond = [&](int i, int j) {
    std::string paulis(static_cast<std::size_t>(nbQubits), 'I');
    paulis[static_cast<std::size_t>(i)] = 'Z';
    paulis[static_cast<std::size_t>(j)] = 'Z';
    hamiltonian.add(paulis, -coupling);
  };
  for (int i = 0; i + 1 < nbQubits; ++i) bond(i, i + 1);
  if (periodic && nbQubits > 2) bond(nbQubits - 1, 0);
  for (int i = 0; i < nbQubits; ++i) {
    std::string paulis(static_cast<std::size_t>(nbQubits), 'I');
    paulis[static_cast<std::size_t>(i)] = 'X';
    hamiltonian.add(paulis, -field);
  }
  return hamiltonian;
}

}  // namespace qclab
