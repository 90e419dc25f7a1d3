#pragma once

/// \file observable.hpp
/// \brief Pauli-string observables and expectation values.
///
/// QCLAB is positioned as a prototyping platform for quantum algorithm
/// research (paper §1); measuring expectation values of Pauli observables
/// is the core primitive of that workflow (VQE-style energy evaluation,
/// tomography generalizations).  No operator matrix is ever materialized:
/// PauliString::apply runs the in-place kernels on a copy.  An Observable
/// compiles its terms once, on first use: every I/Z-only term folds into
/// one real diagonal D(i) = sum_t c_t (-1)^|i & z_t|, formed by a single
/// Walsh–Hadamard transform, so an expectation reads sum_i |psi_i|^2 D(i)
/// in one pass plus one read-only pass per term that flips qubits (X/Y
/// factors).

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cctype>
#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "qclab/dense/ops.hpp"
#include "qclab/sim/kernels.hpp"
#include "qclab/sim/parallel.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

namespace qclab {

template <typename T>
class Observable;

namespace detail {

/// A diagonal table is read and formed in chunks of this many entries,
/// each on one thread: the chunk sums, and so the result bits, do not
/// depend on the thread count.
inline constexpr std::size_t kDiagonalChunk = 4096;

/// Table size from which its passes fork a team.
inline constexpr std::int64_t kDiagonalForkEntries = 4 * sim::kOmpThreshold;

/// Butterfly (a, b) -> (a + b, a - b) of p[k] and p[k + h]: one radix-2
/// stage of the transform.
template <typename T>
inline void walshHadamardPair(T* p, std::size_t k, std::size_t h) {
  const T a = p[k], b = p[k + h];
  p[k] = a + b;
  p[k + h] = a - b;
}

/// The stages h, then 2h, on p[k + {0, h, 2h, 3h}] in one sweep, with the
/// same roundings as two radix-2 sweeps.
template <typename T>
inline void walshHadamardQuad(T* p, std::size_t k, std::size_t h) {
  const T a = p[k], b = p[k + h], c = p[k + 2 * h], d = p[k + 3 * h];
  const T s0 = a + b, s1 = a - b, s2 = c + d, s3 = c - d;
  p[k] = s0 + s2;
  p[k + h] = s1 + s3;
  p[k + 2 * h] = s0 - s2;
  p[k + 3 * h] = s1 - s3;
}

/// Every stage of the transform of p[0, size): one chunk.  The same sums
/// as walshHadamardAcrossChunks with a chunk of 1, whose one-entry inner
/// loop would not vectorize.
template <typename T>
void walshHadamardChunk(T* p, std::size_t size) {
  std::size_t h = 1;
  for (; 4 * h <= size; h *= 4) {
    for (std::size_t i = 0; i < size; i += 4 * h) {
      for (std::size_t k = i; k < i + h; ++k) walshHadamardQuad(p, k, h);
    }
  }
  if (h == size) return;
  for (std::size_t k = 0; k < h; ++k) walshHadamardPair(p, k, h);
}

/// The stages h = chunk, 2 chunk, ... < size of the transform of
/// p[0, size), on the entries at offsets [lo, hi) of every chunk.
template <typename T>
void walshHadamardAcrossChunks(T* p, std::size_t size, std::size_t chunk,
                               std::size_t lo, std::size_t hi) {
  std::size_t h = chunk;
  for (; 4 * h <= size; h *= 4) {
    for (std::size_t i = 0; i < size; i += 4 * h) {
      for (std::size_t r = i; r < i + h; r += chunk) {
        for (std::size_t k = r + lo; k < r + hi; ++k) {
          walshHadamardQuad(p, k, h);
        }
      }
    }
  }
  if (h == size) return;
  for (std::size_t r = 0; r < h; r += chunk) {
    for (std::size_t k = r + lo; k < r + hi; ++k) walshHadamardPair(p, k, h);
  }
}

/// In-place unnormalized Walsh–Hadamard transform: entry i becomes
/// sum_z v_z (-1)^|i&z|.  The stages below the chunk size run chunk by
/// chunk, the ones above by ranges of offsets within the chunks, so each
/// share stays in cache and every entry sees the same additions on any
/// team.
template <typename T>
void walshHadamard(std::span<T> v) {
  const std::size_t size = v.size();
  const std::size_t chunk = std::min(size, kDiagonalChunk);
  const int team = sim::teamSize(static_cast<std::int64_t>(size),
                                 kDiagonalForkEntries);
  T* p = v.data();
  sim::parallelRanges(
      static_cast<std::int64_t>(size / chunk), team,
      [&](std::int64_t lo, std::int64_t hi, int) {
        for (auto c = static_cast<std::size_t>(lo);
             c < static_cast<std::size_t>(hi); ++c) {
          walshHadamardChunk(p + c * chunk, chunk);
        }
      });
  if (size == chunk) return;
  sim::parallelRanges(static_cast<std::int64_t>(chunk), team,
                      [&](std::int64_t lo, std::int64_t hi, int) {
                        walshHadamardAcrossChunks(
                            p, size, chunk, static_cast<std::size_t>(lo),
                            static_cast<std::size_t>(hi));
                      });
}

/// sum_i |psi_i|^2 d_i over one chunk.  Eight running sums in a fixed
/// order break the chain of dependent adds.
template <typename T>
T diagonalChunkSum(const std::complex<T>* psi, const T* d,
                   std::size_t size) {
  constexpr std::size_t kLanes = 8;
  std::array<T, kLanes> acc{};
  std::size_t j = 0;
  for (; j + kLanes <= size; j += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      acc[k] += std::norm(psi[j + k]) * d[j + k];
    }
  }
  for (; j < size; ++j) acc[j % kLanes] += std::norm(psi[j]) * d[j];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// sum_i |psi_i|^2 d_i in one pass: one partial per fixed chunk, added in
/// chunk order, so the bits are the same on every team size.
template <typename T>
T diagonalExpectation(std::span<const std::complex<T>> state,
                      std::span<const T> d) {
  const std::size_t chunk = std::min(state.size(), kDiagonalChunk);
  std::vector<T> partials(state.size() / chunk);
  sim::parallelRanges(
      static_cast<std::int64_t>(partials.size()),
      sim::teamSize(static_cast<std::int64_t>(state.size()),
                    kDiagonalForkEntries),
      [&](std::int64_t lo, std::int64_t hi, int) {
        for (auto c = static_cast<std::size_t>(lo);
             c < static_cast<std::size_t>(hi); ++c) {
          partials[c] = diagonalChunkSum(state.data() + c * chunk,
                                         d.data() + c * chunk, chunk);
        }
      });
  T sum(0);
  for (const T partial : partials) sum += partial;
  return sum;
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
///
/// The first expectation or apply call compiles the terms (see compile()),
/// once and safely under concurrent const calls; add() starts a new
/// compilation.  A copy shares the compiled form, which is immutable once
/// formed.
template <typename T>
class Observable {
 public:
  /// Empty observable on `nbQubits` qubits.
  explicit Observable(int nbQubits) : nbQubits_(nbQubits) {
    util::require(nbQubits >= 1, "observable needs at least one qubit");
  }

  int nbQubits() const noexcept { return nbQubits_; }

  /// Adds a term; its string length must match the register size.  Terms
  /// with identical Pauli strings are merged, found through an index keyed
  /// by the string, so building n terms takes O(n) lookups.
  Observable& add(PauliString<T> term) {
    util::require(term.nbQubits() == nbQubits_,
                  "Pauli string length does not match the observable");
    // A formed table, or one a copy shares, no longer fits these terms.
    // An unformed one held here alone is still free to form from them:
    // building an observable term by term allocates one holder.
    if (compiled_.use_count() != 1 || compiled_->formed) {
      compiled_ = std::make_shared<Compiled>();
    }
    const auto [slot, added] =
        index_.try_emplace(term.paulis(), terms_.size());
    if (!added) {
      PauliString<T>& existing = terms_[slot->second];
      existing.setCoefficient(existing.coefficient() + term.coefficient());
      return *this;
    }
    try {
      terms_.push_back(std::move(term));
    } catch (...) {
      index_.erase(slot);
      throw;
    }
    return *this;
  }

  /// Convenience: add(coefficient * paulis).
  Observable& add(const std::string& paulis, T coefficient) {
    return add(PauliString<T>(paulis, coefficient));
  }

  const std::vector<PauliString<T>>& terms() const noexcept { return terms_; }
  std::size_t nbTerms() const noexcept { return terms_.size(); }

  /// H |psi>: D psi for the I/Z terms in one pass, plus each other term.
  std::vector<std::complex<T>> apply(
      const std::vector<std::complex<T>>& state) const {
    checkDimension(state.size());
    std::vector<std::complex<T>> result(state.size());
    if (terms_.empty()) return result;
    const Compiled& compiled = compile();
    if (!compiled.diagonal.empty()) {
      const T* d = compiled.diagonal.data();
      const std::complex<T>* psi = state.data();
      std::complex<T>* out = result.data();
      const auto dim = static_cast<std::int64_t>(state.size());
      sim::parallelFor(
          dim, dim, detail::kDiagonalForkEntries,
          [d, psi, out](std::int64_t i) { out[i] = d[i] * psi[i]; });
    }
    for (const std::size_t t : compiled.flipping) {
      const auto contribution = terms_[t].apply(state);
      for (std::size_t i = 0; i < result.size(); ++i) {
        result[i] += contribution[i];
      }
    }
    return result;
  }

  /// <psi| H |psi> of a std::vector or a sim::StateBuffer of any tier,
  /// read in place: one pass over the I/Z terms' diagonal, whose bits do
  /// not depend on the thread count, and one read-only pass per other
  /// term (PauliString::expectation).
  T expectation(std::span<const std::complex<T>> state) const {
    checkDimension(state.size());
    if (terms_.empty()) return T(0);
    const Compiled& compiled = compile();
    T sum(0);
    if (!compiled.diagonal.empty()) {
      sum = detail::diagonalExpectation<T>(state, compiled.diagonal);
    }
    for (const std::size_t t : compiled.flipping) {
      sum += terms_[t].expectation(state);
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
  /// What apply and expectation read of the terms: the I/Z-only terms as
  /// one real diagonal D(i) = sum_t c_t (-1)^|i & z_t| (2^n entries, empty
  /// when there is no such term), and the indices of the other terms.
  struct Compiled {
    std::mutex mutex;
    std::atomic<bool> formed{false};
    std::vector<T> diagonal;
    std::vector<std::size_t> flipping;
  };

  void checkDimension(std::size_t size) const {
    util::require(size == (std::size_t{1} << nbQubits_),
                  "state dimension does not match Pauli string length");
  }

  /// The compiled terms, formed by the first caller.  A mutex rather than
  /// std::call_once: a formation that throws (bad_alloc) leaves the next
  /// call free to try again.
  const Compiled& compile() const {
    Compiled& compiled = *compiled_;
    if (compiled.formed.load(std::memory_order_acquire)) return compiled;
    const std::lock_guard lock(compiled.mutex);
    if (compiled.formed.load(std::memory_order_relaxed)) return compiled;
    std::vector<T> diagonal;
    std::vector<std::size_t> flipping;
    for (std::size_t t = 0; t < terms_.size(); ++t) {
      const auto masks = terms_[t].masks();
      if (masks.x != 0) {
        flipping.push_back(t);
        continue;
      }
      // D is the transform of the coefficients placed at their Z masks.
      if (diagonal.empty()) diagonal.resize(std::size_t{1} << nbQubits_);
      diagonal[masks.z] += terms_[t].coefficient();
    }
    if (!diagonal.empty()) detail::walshHadamard<T>(diagonal);
    compiled.diagonal = std::move(diagonal);
    compiled.flipping = std::move(flipping);
    compiled.formed.store(true, std::memory_order_release);
    return compiled;
  }

  int nbQubits_;
  std::vector<PauliString<T>> terms_;
  std::unordered_map<std::string, std::size_t> index_;  ///< string -> term
  std::shared_ptr<Compiled> compiled_;
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
