#pragma once

/// \file kernel_op.hpp
/// \brief The one lowered form of a gate or fused block (KernelOp), and
/// the two dispatchers that run it: applyKernelOp sweeps the whole state,
/// applyKernelOpChunk one chunk of a cache-blocked run (blocking.hpp).
///
/// sim::compile lowers every unfused gate once (lowerGate); a FusedBlock
/// is its own record (fusion.hpp).  Both dispatchers call the kernels of
/// kernels.hpp and simd.hpp with the coefficients the gate itself yields,
/// so a record applies bit-identically to its gate.

#include <algorithm>
#include <complex>
#include <cstdint>
#include <span>
#include <typeinfo>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/qgates/qgate.hpp"
#include "qclab/qgates/two_qubit.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/sim/kernels.hpp"
#include "qclab/sim/simd.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::sim {

/// The kernel fast path the in-place engine selects for `gate` — the
/// single source of truth for the lowering, exposed so that decorators
/// (obs::InstrumentedBackend) can tag applications with the path actually
/// taken without re-implementing the dispatch rules.
template <typename T>
KernelPath classifyKernelPath(const qgates::QGate<T>& gate) {
  // SWAP is final: a type compare, cheaper than a dynamic_cast.
  if (typeid(gate) == typeid(qgates::SWAP<T>)) return KernelPath::kSwap;
  if (!gate.controls().empty() && gate.targets().size() == 1) {
    // Controlled gates with a diagonal target (CZ, CPhase, CRZ, MCZ, ...)
    // need only one multiply per active-subspace amplitude; the dense
    // 2x2 pair update of kControlled1 would double the work.
    return gate.isDiagonal() ? KernelPath::kControlledDiagonal1
                             : KernelPath::kControlled1;
  }
  if (gate.nbQubits() == 1) {
    return gate.isDiagonal() ? KernelPath::kDiagonal1 : KernelPath::kDense1;
  }
  if (gate.controls().empty() && gate.isDiagonal()) {
    return KernelPath::kDiagonalK;
  }
  return KernelPath::kDenseK;
}

/// One gate or fused block lowered for the in-place kernels.  A one-qubit
/// gate fills `target`, a controlled one `target` and `controls`, any
/// other op `qubits`, so the first two hold no heap memory.  A 2x2 (a
/// controlled gate's target matrix; a diagonal one is applied as its pair
/// coeffs[0], coeffs[3]) or 4x4 sits in `coeffs`, a 2^k diagonal in
/// `diag`, a wider dense matrix in `matrix` (a fused dense block keeps its
/// product there at every width).
template <typename T>
struct KernelOp {
  KernelPath path = KernelPath::kDenseK;
  int target = 0;           ///< one-qubit gate's qubit or controlled target
  ControlBits controls;     ///< a controlled gate's controls
  std::vector<int> qubits;  ///< ascending absolute qubit indices
  std::complex<T> coeffs[16] = {};    ///< inline row-major 2x2 or 4x4
  dense::Matrix<T> matrix;            ///< dense matrix of a wide op
  std::vector<std::complex<T>> diag;  ///< diagonal table (2^k entries)
};

namespace detail {

/// The 2^k diagonal entries of a (diagonal) gate matrix.
template <typename T>
std::vector<std::complex<T>> diagonalOf(const dense::Matrix<T>& u) {
  std::vector<std::complex<T>> d(u.rows());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = u(i, i);
  return d;
}

}  // namespace detail

/// Lowers `gate`, its qubits shifted by `offset`, to its kernel record.
template <typename T>
KernelOp<T> lowerGate(const qgates::QGate<T>& gate, int offset) {
  KernelOp<T> op;
  op.path = classifyKernelPath(gate);
  const auto inlineCoeffs = [&op](const dense::Matrix<T>& u) {
    std::copy_n(u.data(), u.size(), op.coeffs);
  };
  if (op.path == KernelPath::kDense1 || op.path == KernelPath::kDiagonal1) {
    // A one-qubit gate's maxQubit() is its qubit, read without the
    // vector qubits() builds.
    op.target = gate.maxQubit() + offset;
    inlineCoeffs(gate.matrix());
    return op;
  }
  if (op.path == KernelPath::kControlled1 ||
      op.path == KernelPath::kControlledDiagonal1) {
    op.controls =
        ControlBits::from(gate.controls(), gate.controlStates(), offset);
    op.target = gate.targets()[0] + offset;
    inlineCoeffs(gate.targetMatrix());
    return op;
  }
  op.qubits = gate.qubits();
  for (int& q : op.qubits) q += offset;
  if (op.path == KernelPath::kSwap) return op;
  dense::Matrix<T> u = gate.matrix();
  if (op.path == KernelPath::kDiagonalK) {
    op.diag = detail::diagonalOf(u);
  } else if (u.size() <= 16) {  // two-qubit matrices
    inlineCoeffs(u);
  } else {
    op.matrix = std::move(u);
  }
  return op;
}

/// Applies the record `op` to the n-qubit state with one full sweep
/// (applyRun, applyFusionPlan, KernelBackend::applyGate).
template <typename State, typename T>
void applyKernelOp(State& state, int nbQubits, const KernelOp<T>& op) {
  switch (op.path) {
    case KernelPath::kSwap:
      applySwap(state, nbQubits, op.qubits[0], op.qubits[1]);
      return;
    case KernelPath::kControlled1:
      applyControlled1(state, nbQubits, op.controls, op.target, op.coeffs);
      return;
    case KernelPath::kControlledDiagonal1:
      applyControlledDiagonal1(state, nbQubits, op.controls, op.target,
                               op.coeffs[0], op.coeffs[3]);
      return;
    case KernelPath::kDense1:
      apply1(state, nbQubits, op.target, op.coeffs);
      return;
    case KernelPath::kDiagonal1:
      applyDiagonal1(state, nbQubits, op.target, op.coeffs[0], op.coeffs[3]);
      return;
    case KernelPath::kDiagonalK:
      applyDiagonalK(state, nbQubits, op.qubits, op.diag);
      return;
    case KernelPath::kFusedDiagonalK:
      applyDiagonalBlock(state, nbQubits, op.qubits, op.diag);
      return;
    default:  // kDenseK, kFusedDenseK
      // The k = 2 hot path has a quad-run kernel that avoids applyK's
      // gather/scatter.
      if (op.qubits.size() == 1) {
        apply1(state, nbQubits, op.qubits[0], op.coeffs);
      } else if (op.qubits.size() == 2) {
        apply2(state, nbQubits, op.qubits[0], op.qubits[1], op.coeffs);
      } else {
        applyK(state, nbQubits, op.qubits, op.matrix);
      }
  }
}

/// Per-thread buffers of applyKernelOpChunk for dense blocks of three or
/// more qubits: the gather layout and the gather buffer of applyKSpan.
template <typename T>
struct ChunkScratch {
  std::vector<int> positions;
  std::vector<util::index_t> offsets;
  std::vector<std::complex<T>> gathered;
};

/// Applies the fused-block record `op` to one aligned 2^b-amplitude chunk
/// of an nbQubits register, every qubit of `op` at a bit position below b:
/// the full sweep's span kernels at the same positions, so a blocked run
/// is bit-identical to per-block sweeps.  Serial (blocking.hpp).
template <typename T>
void applyKernelOpChunk(std::complex<T>* chunk, std::int64_t chunkDim,
                        int nbQubits, const KernelOp<T>& op, SimdLevel level,
                        ChunkScratch<T>& scratch) {
  // MSB-first positions: qubits ascending => positions descending, the
  // order of the rows of the block's matrix or table.
  const std::size_t k = op.qubits.size();
  int positions[64];
  for (std::size_t i = 0; i < k; ++i) {
    positions[i] = util::bitPosition(op.qubits[i], nbQubits);
  }
  if (op.path == KernelPath::kFusedDiagonalK) {
    simd::applyDiagonalRunsSpan(chunk, chunkDim,
                                std::span<const int>(positions, k), op.diag,
                                level);
  } else if (op.path != KernelPath::kFusedDenseK) {
    throw InvalidArgumentError("only fused blocks run chunked");
  } else if (k == 1) {
    simd::apply1Span(chunk, chunkDim, positions[0], op.coeffs, level);
  } else if (k == 2) {
    simd::apply2Span(chunk, chunkDim, positions[0], positions[1], op.coeffs,
                     level);
  } else {
    detail::subspaceLayout(op.qubits, nbQubits, scratch.positions,
                           scratch.offsets);
    simd::applyKSpan(chunk, 0, chunkDim >> k, scratch.positions,
                     scratch.offsets, op.matrix, scratch.gathered);
  }
}

}  // namespace qclab::sim
