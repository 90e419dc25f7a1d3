#pragma once

/// \file backend.hpp
/// \brief Gate-application strategies.
///
/// Two interchangeable backends reproduce the two systems of the paper:
///  - SparseKronBackend: the MATLAB-QCLAB algorithm (§3.2) — form the sparse
///    extended unitary I_l (x) U' (x) I_r over the full register and
///    multiply it with the state vector;
///  - KernelBackend: the QCLAB++ engine — in-place bit-sliced kernels with
///    fast paths for single-qubit, diagonal, controlled, and swap gates.
///    It lowers the gate to its kernel record and runs it (kernel_op.hpp).
/// Both produce identical states (up to rounding); bench_backend_compare
/// measures the performance gap the paper alludes to.

#include <algorithm>
#include <complex>
#include <vector>

#include "qclab/qgates/qgates.hpp"
#include "qclab/sim/kernel_op.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/sim/state_buffer.hpp"
#include "qclab/sparse/csr.hpp"

namespace qclab::sim {

/// Abstract gate-application strategy.
template <typename T>
class Backend {
 public:
  virtual ~Backend() = default;

  /// Applies `gate` (with its qubit indices shifted by `offset`) to the
  /// n-qubit state, in place.  Takes a StateSpan so one virtual
  /// signature serves plain vectors and tiered StateBuffers alike (both
  /// convert implicitly).
  virtual void applyGate(StateSpan<T> state, int nbQubits,
                         const qgates::QGate<T>& gate, int offset = 0) const = 0;

  /// The kernel path this backend would dispatch `gate` to.  Defaults to
  /// the in-place kernel classification; matrix-multiply style backends
  /// override it.
  virtual KernelPath dispatchPath(const qgates::QGate<T>& gate) const {
    return classifyKernelPath(gate);
  }

  /// Human-readable backend name (for benches and logs).
  virtual const char* name() const noexcept = 0;
};

/// QCLAB++-style in-place kernels (default backend).
template <typename T>
class KernelBackend final : public Backend<T> {
 public:
  /// Lowers `gate` to its kernel record and runs it; sim::compile lowers
  /// once instead.
  void applyGate(StateSpan<T> state, int nbQubits,
                 const qgates::QGate<T>& gate, int offset = 0) const override {
    applyKernelOp(state, nbQubits, lowerGate(gate, offset));
  }

  const char* name() const noexcept override { return "kernel"; }
};

/// Builds the sparse extended unitary I_l (x) U_range (x) I_r of `gate`
/// over an `nbQubits` register (the paper's Eq. in §3.2).  U_range spans the
/// contiguous qubit range [minQubit, maxQubit] of the gate, with identity
/// action on in-range qubits the gate does not touch.
template <typename T>
sparse::CsrMatrix<T> extendedUnitary(int nbQubits,
                                     const qgates::QGate<T>& gate,
                                     int offset = 0) {
  std::vector<int> qubits = gate.qubits();
  for (int& q : qubits) q += offset;
  const int k = static_cast<int>(qubits.size());
  util::checkQubit(qubits.front(), nbQubits);
  util::checkQubit(qubits.back(), nbQubits);

  const int lo = qubits.front();
  const int hi = qubits.back();
  const int m = hi - lo + 1;  // contiguous range width

  // Bit positions of the gate qubits within a range index (MSB-first).
  std::vector<int> gatePositions(k);
  for (int i = 0; i < k; ++i) {
    gatePositions[i] = util::bitPosition(qubits[i] - lo, m);
  }
  // Offset of gate-subspace index r within a range index.
  const std::size_t gateDim = std::size_t{1} << k;
  std::vector<util::index_t> spread(gateDim, 0);
  for (util::index_t r = 0; r < gateDim; ++r) {
    for (int i = 0; i < k; ++i) {
      if (util::getBit(r, util::bitPosition(i, k))) {
        spread[r] = util::setBit(spread[r], gatePositions[i]);
      }
    }
  }

  // Filler bit positions (in-range qubits not touched by the gate),
  // ascending for insertZeroBits.
  std::vector<int> fillerPositions;
  for (int pos = 0; pos < m; ++pos) {
    if (std::find(gatePositions.begin(), gatePositions.end(), pos) ==
        gatePositions.end()) {
      fillerPositions.push_back(pos);
    }
  }

  const auto u = gate.matrix();
  std::vector<sparse::Triplet<T>> triplets;
  const util::index_t fillerCount = util::index_t{1}
                                    << fillerPositions.size();
  for (util::index_t filler = 0; filler < fillerCount; ++filler) {
    // Scatter the filler bits to their positions; gate bits stay 0.
    util::index_t base = 0;
    for (std::size_t i = 0; i < fillerPositions.size(); ++i) {
      if (util::getBit(filler, static_cast<int>(i))) {
        base = util::setBit(base, fillerPositions[i]);
      }
    }
    for (util::index_t r = 0; r < gateDim; ++r) {
      for (util::index_t c = 0; c < gateDim; ++c) {
        const auto value = u(r, c);
        if (value == std::complex<T>(0)) continue;
        triplets.push_back({static_cast<std::size_t>(base | spread[r]),
                            static_cast<std::size_t>(base | spread[c]),
                            value});
      }
    }
  }
  const std::size_t rangeDim = std::size_t{1} << m;
  auto uRange =
      sparse::CsrMatrix<T>::fromTriplets(rangeDim, rangeDim, std::move(triplets));

  // I_l (x) U_range (x) I_r.
  const std::size_t dimLeft = std::size_t{1} << lo;
  const std::size_t dimRight = std::size_t{1} << (nbQubits - 1 - hi);
  auto extended = kron(sparse::CsrMatrix<T>::identity(dimLeft), uRange);
  return kron(extended, sparse::CsrMatrix<T>::identity(dimRight));
}

/// MATLAB-QCLAB-style backend: sparse extended unitary times state vector.
template <typename T>
class SparseKronBackend final : public Backend<T> {
 public:
  void applyGate(StateSpan<T> state, int nbQubits,
                 const qgates::QGate<T>& gate, int offset = 0) const override {
    // The CSR multiply produces a fresh vector; a span cannot be
    // reseated, so copy through (this backend is the reference
    // implementation, not a hot path).
    const std::vector<std::complex<T>> input(state.begin(), state.end());
    const std::vector<std::complex<T>> output =
        extendedUnitary(nbQubits, gate, offset).apply(input);
    std::copy(output.begin(), output.end(), state.begin());
  }

  KernelPath dispatchPath(const qgates::QGate<T>&) const override {
    return KernelPath::kSparseKron;
  }

  const char* name() const noexcept override { return "sparse-kron"; }
};

/// The library-wide default backend (QCLAB++ kernels).
template <typename T>
const Backend<T>& defaultBackend() {
  static const KernelBackend<T> backend;
  return backend;
}

}  // namespace qclab::sim
