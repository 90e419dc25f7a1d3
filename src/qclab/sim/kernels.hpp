#pragma once

/// \file kernels.hpp
/// \brief Optimized in-place gate-application kernels (the QCLAB++ engine).
///
/// Instead of forming the extended unitary I (x) U' (x) I like the MATLAB
/// toolbox, these kernels update the state vector in place by iterating over
/// the 2^{n-k} gate subspaces with bit-insertion index arithmetic.  All hot
/// loops are OpenMP-parallel; the paper's GPU backend is substituted by
/// these CPU kernels (see DESIGN.md).
///
/// The single- and two-qubit hot paths are tiled wrappers over the
/// SIMD-dispatched span kernels of simd.hpp: for a target at bit position
/// `pos` the partner amplitudes form unit-stride runs of 2^pos, so each
/// OpenMP task hands whole runs (or kTile-sized slices of long runs) to
/// apply1Runs / scaleRun / apply2Runs, which use AVX2+FMA when active.

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/sim/simd.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

namespace qclab::sim {

/// Threshold below which kernels stay single-threaded: parallelising tiny
/// states costs more than it saves.
inline constexpr std::int64_t kOmpThreshold = 1 << 12;

/// Tile length (complex amplitudes) for splitting long unit-stride runs
/// across OpenMP tasks; 2^12 doubles = 64 KiB per run slice, L1-friendly.
inline constexpr std::int64_t kRunTile = 1 << 12;

namespace detail {

/// Fixed bit positions (controls + target) with their pinned values, in an
/// inline buffer: applyControlled1 runs once per gate application, so a
/// heap-allocated + std::sort'ed vector here costs more than the loop it
/// feeds for small states (~35% of the per-call time for a 2-qubit CNOT
/// micro-bench; see DESIGN.md).  64 slots covers any index_t state.
struct FixedBits {
  std::array<std::pair<int, util::index_t>, 64> slots;
  int count = 0;

  /// Inserts (pos, value) keeping `slots[0..count)` ascending by position
  /// (insertion sort: the handful of controls is far below std::sort's
  /// break-even).
  void insert(int pos, util::index_t value) noexcept {
    int i = count++;
    while (i > 0 && slots[static_cast<std::size_t>(i - 1)].first > pos) {
      slots[static_cast<std::size_t>(i)] =
          slots[static_cast<std::size_t>(i - 1)];
      --i;
    }
    slots[static_cast<std::size_t>(i)] = {pos, value};
  }

  const std::pair<int, util::index_t>* begin() const noexcept {
    return slots.data();
  }
  const std::pair<int, util::index_t>* end() const noexcept {
    return slots.data() + count;
  }
};

/// Validates controls and collects the fixed (position, value) set for the
/// controlled kernels.
inline FixedBits collectFixedBits(int nbQubits,
                                  const std::vector<int>& controls,
                                  const std::vector<int>& controlStates,
                                  int target) {
  util::checkQubit(target, nbQubits);
  util::require(controls.size() == controlStates.size(),
                "controls/controlStates length mismatch");
  FixedBits fixed;
  for (std::size_t i = 0; i < controls.size(); ++i) {
    util::checkQubit(controls[i], nbQubits);
    util::require(controls[i] != target, "control equals target");
    fixed.insert(util::bitPosition(controls[i], nbQubits),
                 static_cast<util::index_t>(controlStates[i]));
  }
  fixed.insert(util::bitPosition(target, nbQubits), 0);
  return fixed;
}

}  // namespace detail

// All kernels are generic over the state container (`std::vector`,
// sim::StateBuffer, sim::StateSpan — anything contiguous with
// data()/operator[]); the scalar T is deduced from the gate payload.

/// Applies a 2x2 gate to `qubit` of an n-qubit state, in place.
template <typename State, typename T>
void apply1(State& state, int nbQubits, int qubit,
            const dense::Matrix<T>& u) {
  util::checkQubit(qubit, nbQubits);
  util::require(u.rows() == 2 && u.cols() == 2, "apply1 needs a 2x2 matrix");
  const int pos = util::bitPosition(qubit, nbQubits);
  const std::complex<T> coeffs[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
  const SimdLevel level = activeSimdLevel();

  const std::int64_t dim = std::int64_t{1} << nbQubits;
  const std::int64_t stride = std::int64_t{1} << pos;
  std::complex<T>* const data = state.data();
  if (stride < simd::kVectorLanes<T>) {
    // Short runs: a dispatch call per pair would dominate; hand aligned
    // power-of-two chunks (many groups each) to the hoisted span walker.
    const std::int64_t chunk =
        std::min(dim, std::max(2 * stride, kRunTile));
    const std::int64_t chunks = dim / chunk;
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (dim >= 2 * kOmpThreshold)
#endif
    for (std::int64_t c = 0; c < chunks; ++c) {
      simd::apply1Span(data + c * chunk, chunk, pos, coeffs, level);
    }
    return;
  }
  // Each task updates one `tile`-length slice of a (|0>, |1>) run pair.
  const std::int64_t tile = std::min(stride, kRunTile);
  const std::int64_t tilesPerRun = stride / tile;
  const std::int64_t tasks = (dim / (2 * stride)) * tilesPerRun;
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (dim >= 2 * kOmpThreshold)
#endif
  for (std::int64_t t = 0; t < tasks; ++t) {
    const std::int64_t offset =
        (t / tilesPerRun) * 2 * stride + (t % tilesPerRun) * tile;
    simd::apply1Runs(data + offset, data + offset + stride, tile, coeffs,
                     level);
  }
}

/// Applies a diagonal 2x2 gate diag(d0, d1) to `qubit`, in place.  The
/// two runs of every 2^{pos+1}-aligned group are scaled by their own
/// constant — no per-element bit test.
template <typename State, typename T>
void applyDiagonal1(State& state, int nbQubits,
                    int qubit, std::complex<T> d0, std::complex<T> d1) {
  util::checkQubit(qubit, nbQubits);
  const int pos = util::bitPosition(qubit, nbQubits);
  const SimdLevel level = activeSimdLevel();

  const std::int64_t dim = std::int64_t{1} << nbQubits;
  const std::int64_t stride = std::int64_t{1} << pos;
  const std::int64_t tile = std::min(stride, kRunTile);
  const std::int64_t tilesPerRun = stride / tile;
  const std::int64_t tasks = (dim / (2 * stride)) * tilesPerRun;
  std::complex<T>* const data = state.data();
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (dim >= kOmpThreshold)
#endif
  for (std::int64_t t = 0; t < tasks; ++t) {
    const std::int64_t offset =
        (t / tilesPerRun) * 2 * stride + (t % tilesPerRun) * tile;
    simd::scaleRun(data + offset, tile, d0, level);
    simd::scaleRun(data + offset + stride, tile, d1, level);
  }
}

/// Applies a 4x4 gate to the ascending pair (qubit0, qubit1), in place.
/// `u` is MSB-first over (qubit0, qubit1), like every gate matrix.  The
/// four partner runs of each subspace are unit-stride (length 2^posLo),
/// so this avoids the gather/scatter of applyK for the k = 2 hot path.
template <typename State, typename T>
void apply2(State& state, int nbQubits, int qubit0,
            int qubit1, const dense::Matrix<T>& u) {
  util::checkQubit(qubit0, nbQubits);
  util::checkQubit(qubit1, nbQubits);
  util::require(qubit0 < qubit1, "apply2 qubits must be strictly ascending");
  util::require(u.rows() == 4 && u.cols() == 4, "apply2 needs a 4x4 matrix");
  const int posHi = util::bitPosition(qubit0, nbQubits);
  const int posLo = util::bitPosition(qubit1, nbQubits);
  std::complex<T> coeffs[16];
  for (int i = 0; i < 16; ++i) {
    coeffs[i] = u(static_cast<std::size_t>(i / 4),
                  static_cast<std::size_t>(i % 4));
  }
  const SimdLevel level = activeSimdLevel();

  const std::int64_t dim = std::int64_t{1} << nbQubits;
  const std::int64_t sHi = std::int64_t{1} << posHi;
  const std::int64_t sLo = std::int64_t{1} << posLo;
  std::complex<T>* const data = state.data();
  if (sLo < simd::kVectorLanes<T>) {
    // Short runs: a dispatch call + matrix re-hoist per quad would
    // dominate; hand aligned power-of-two chunks to the span walker.
    const std::int64_t chunk = std::min(dim, std::max(2 * sHi, kRunTile));
    const std::int64_t chunks = dim / chunk;
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (dim >= 4 * kOmpThreshold)
#endif
    for (std::int64_t c = 0; c < chunks; ++c) {
      simd::apply2SpanShortRuns(data + c * chunk, chunk, posHi, posLo,
                                coeffs);
    }
    return;
  }
  // Flattened (outer group, inner group, run tile) task index; each task
  // updates one `tile`-length slice of a quad of partner runs.
  const std::int64_t tile = std::min(sLo, kRunTile);
  const std::int64_t tilesPerRun = sLo / tile;
  const std::int64_t innerGroups = sHi / (2 * sLo);
  const std::int64_t tasks = (dim / (2 * sHi)) * innerGroups * tilesPerRun;
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (dim >= 4 * kOmpThreshold)
#endif
  for (std::int64_t t = 0; t < tasks; ++t) {
    const std::int64_t q = t / tilesPerRun;
    const std::int64_t offset = (q / innerGroups) * 2 * sHi +
                                (q % innerGroups) * 2 * sLo +
                                (t % tilesPerRun) * tile;
    std::complex<T>* const quad[4] = {data + offset, data + offset + sLo,
                                      data + offset + sHi,
                                      data + offset + sHi + sLo};
    simd::apply2Runs(quad, tile, coeffs, level);
  }
}

/// Applies a 2x2 gate to `target`, controlled on `controls` being in the
/// per-control `controlStates`, in place.  Only the active subspace
/// (2^{n - nc - 1} pairs) is touched.
template <typename State, typename T>
void applyControlled1(State& state, int nbQubits,
                      const std::vector<int>& controls,
                      const std::vector<int>& controlStates, int target,
                      const dense::Matrix<T>& u) {
  util::require(u.rows() == 2 && u.cols() == 2,
                "applyControlled1 needs a 2x2 matrix");
  const detail::FixedBits fixed =
      detail::collectFixedBits(nbQubits, controls, controlStates, target);
  const int targetPos = util::bitPosition(target, nbQubits);

  const std::int64_t count = std::int64_t{1} << (nbQubits - fixed.count);
  const std::complex<T> u00 = u(0, 0), u01 = u(0, 1);
  const std::complex<T> u10 = u(1, 0), u11 = u(1, 1);
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (count >= kOmpThreshold)
#endif
  for (std::int64_t base = 0; base < count; ++base) {
    util::index_t i0 = static_cast<util::index_t>(base);
    for (const auto& [pos, value] : fixed) {
      i0 = util::insertBit(i0, pos, value);
    }
    const util::index_t i1 = util::setBit(i0, targetPos);
    const std::complex<T> a0 = state[i0];
    const std::complex<T> a1 = state[i1];
    state[i0] = u00 * a0 + u01 * a1;
    state[i1] = u10 * a0 + u11 * a1;
  }
}

/// Applies a diagonal 2x2 gate diag(d0, d1) to `target`, controlled on
/// `controls` being in the per-control `controlStates`, in place.  Only the
/// active subspace (2^{n - nc} amplitudes) is touched, with one multiply
/// per amplitude — the fast path for CZ / CPhase / CRZ-like gates that the
/// dense pair-update of applyControlled1 would overwork.
template <typename State, typename T>
void applyControlledDiagonal1(State& state,
                              int nbQubits, const std::vector<int>& controls,
                              const std::vector<int>& controlStates,
                              int target, std::complex<T> d0,
                              std::complex<T> d1) {
  const detail::FixedBits fixed =
      detail::collectFixedBits(nbQubits, controls, controlStates, target);
  const int targetPos = util::bitPosition(target, nbQubits);

  const std::int64_t count = std::int64_t{1} << (nbQubits - fixed.count);
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (count >= kOmpThreshold)
#endif
  for (std::int64_t base = 0; base < count; ++base) {
    util::index_t i0 = static_cast<util::index_t>(base);
    for (const auto& [pos, value] : fixed) {
      i0 = util::insertBit(i0, pos, value);
    }
    const util::index_t i1 = util::setBit(i0, targetPos);
    state[i0] *= d0;
    state[i1] *= d1;
  }
}

/// Swaps qubits q0 and q1, in place (permutation only, no arithmetic).
template <typename State>
void applySwap(State& state, int nbQubits, int qubit0,
               int qubit1) {
  util::checkQubit(qubit0, nbQubits);
  util::checkQubit(qubit1, nbQubits);
  util::require(qubit0 != qubit1, "swap needs distinct qubits");
  const int p0 = util::bitPosition(qubit0, nbQubits);
  const int p1 = util::bitPosition(qubit1, nbQubits);
  const int lo = std::min(p0, p1);
  const int hi = std::max(p0, p1);
  const std::int64_t count = std::int64_t{1} << (nbQubits - 2);
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (count >= kOmpThreshold)
#endif
  for (std::int64_t base = 0; base < count; ++base) {
    // Indices with bit(lo) = 1, bit(hi) = 0; swap with the (0, 1) partner.
    util::index_t i = util::insertZeroBit(static_cast<util::index_t>(base), lo);
    i = util::insertZeroBit(i, hi);
    const util::index_t i01 = util::setBit(i, lo);
    const util::index_t i10 = util::setBit(i, hi);
    std::swap(state[i01], state[i10]);
  }
}

/// Applies a general k-qubit gate on the (ascending, MSB-first) `qubits`
/// list, in place, via gather / dense multiply / scatter per subspace.
template <typename State, typename T>
void applyK(State& state, int nbQubits,
            const std::vector<int>& qubits, const dense::Matrix<T>& u) {
  const int k = static_cast<int>(qubits.size());
  util::require(k >= 1 && k <= nbQubits, "gate qubit count out of range");
  const std::size_t dim = std::size_t{1} << k;
  util::require(u.rows() == dim && u.cols() == dim,
                "applyK matrix dimension mismatch");

  // Gate-bit positions, ascending (for insertion), and the offset of each
  // gate-subspace index r (MSB-first over `qubits`).
  std::vector<int> positions(k);
  for (int i = 0; i < k; ++i) {
    util::checkQubit(qubits[i], nbQubits);
    if (i > 0) {
      util::require(qubits[i] > qubits[i - 1],
                    "applyK qubits must be strictly ascending");
    }
    positions[i] = util::bitPosition(qubits[i], nbQubits);
  }
  std::sort(positions.begin(), positions.end());

  std::vector<util::index_t> offsets(dim, 0);
  for (util::index_t r = 0; r < dim; ++r) {
    util::index_t offset = 0;
    for (int i = 0; i < k; ++i) {
      if (util::getBit(r, util::bitPosition(i, k))) {
        offset = util::setBit(offset, util::bitPosition(qubits[i], nbQubits));
      }
    }
    offsets[r] = offset;
  }

  const std::int64_t count = std::int64_t{1} << (nbQubits - k);
  // Restrict views keep the matrix and gather-buffer loads from being
  // treated as aliasing the state scatter (all complex<T>); without them
  // the compiler reloads u per element (see DESIGN.md, SIMD tier).
  std::complex<T>* __restrict__ psi = state.data();
  const std::complex<T>* __restrict__ mat = u.data();
  const util::index_t* __restrict__ off = offsets.data();
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel if (count >= kOmpThreshold)
#endif
  {
    std::vector<std::complex<T>> scratch(dim);
    std::complex<T>* __restrict__ gathered = scratch.data();
#ifdef QCLAB_HAS_OPENMP
#pragma omp for schedule(static)
#endif
    for (std::int64_t outer = 0; outer < count; ++outer) {
      util::index_t base = static_cast<util::index_t>(outer);
      for (int pos : positions) base = util::insertZeroBit(base, pos);
      for (util::index_t r = 0; r < dim; ++r) {
        gathered[r] = psi[base | off[r]];
      }
      for (util::index_t r = 0; r < dim; ++r) {
        T sumr(0), sumi(0);
        for (util::index_t c = 0; c < dim; ++c) {
          const std::complex<T> m = mat[r * dim + c];
          sumr += m.real() * gathered[c].real() -
                  m.imag() * gathered[c].imag();
          sumi += m.real() * gathered[c].imag() +
                  m.imag() * gathered[c].real();
        }
        psi[base | off[r]] = std::complex<T>(sumr, sumi);
      }
    }
  }
}

/// Applies a diagonal k-qubit gate given by its 2^k diagonal entries on
/// the (ascending, MSB-first) `qubits` list, in place.  One multiply per
/// amplitude — the fast path for RZZ / CZ-like gates.
template <typename State, typename T>
void applyDiagonalK(State& state, int nbQubits,
                    const std::vector<int>& qubits,
                    const std::vector<std::complex<T>>& diagonal) {
  const int k = static_cast<int>(qubits.size());
  util::require(k >= 1 && k <= nbQubits, "gate qubit count out of range");
  util::require(diagonal.size() == (std::size_t{1} << k),
                "diagonal length mismatch");
  std::vector<int> positions(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    util::checkQubit(qubits[static_cast<std::size_t>(i)], nbQubits);
    if (i > 0) {
      util::require(qubits[static_cast<std::size_t>(i)] >
                        qubits[static_cast<std::size_t>(i - 1)],
                    "applyDiagonalK qubits must be strictly ascending");
    }
    positions[static_cast<std::size_t>(i)] =
        util::bitPosition(qubits[static_cast<std::size_t>(i)], nbQubits);
  }
  const std::int64_t dim = std::int64_t{1} << nbQubits;
  // Restrict views: diagonal loads must not alias the state stores (both
  // complex<T>), or the table is reloaded per amplitude.
  std::complex<T>* __restrict__ psi = state.data();
  const std::complex<T>* __restrict__ diag = diagonal.data();
  const int* __restrict__ pos = positions.data();
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (dim >= kOmpThreshold)
#endif
  for (std::int64_t i = 0; i < dim; ++i) {
    util::index_t row = 0;
    for (int b = 0; b < k; ++b) {
      row = (row << 1) | util::getBit(static_cast<util::index_t>(i), pos[b]);
    }
    const std::complex<T> d = diag[row];
    const T xr = psi[i].real(), xi = psi[i].imag();
    psi[i] = std::complex<T>(d.real() * xr - d.imag() * xi,
                             d.real() * xi + d.imag() * xr);
  }
}

/// Applies a diagonal k-qubit gate given by its 2^k diagonal entries on
/// the (ascending, MSB-first) `qubits` list, in place, through the
/// run-structured sweep of simd::applyDiagonalRunsSpan — the fused-path
/// diagonal kernel (wide diagonal blocks from sim/fusion.hpp land here).
/// The state splits into independent 2^{maxPos+1}-amplitude groups, which
/// is also the OpenMP work division.  At one multiply per amplitude the
/// sweep shares apply2's parallel threshold: below 4 * kOmpThreshold
/// amplitudes a fork/join costs more than the sweep itself.
template <typename State, typename T>
void applyDiagonalBlock(State& state, int nbQubits,
                        const std::vector<int>& qubits,
                        const std::vector<std::complex<T>>& diagonal) {
  const int k = static_cast<int>(qubits.size());
  util::require(k >= 1 && k <= nbQubits, "gate qubit count out of range");
  util::require(diagonal.size() == (std::size_t{1} << k),
                "diagonal length mismatch");
  std::vector<int> positions(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    util::checkQubit(qubits[static_cast<std::size_t>(i)], nbQubits);
    if (i > 0) {
      util::require(qubits[static_cast<std::size_t>(i)] >
                        qubits[static_cast<std::size_t>(i - 1)],
                    "applyDiagonalBlock qubits must be strictly ascending");
    }
    positions[static_cast<std::size_t>(i)] =
        util::bitPosition(qubits[static_cast<std::size_t>(i)], nbQubits);
  }
  const SimdLevel level = activeSimdLevel();
  const std::int64_t dim = std::int64_t{1} << nbQubits;
  const std::int64_t groupDim = std::int64_t{1} << (positions.front() + 1);
  const std::int64_t groups = dim / groupDim;
  std::complex<T>* const data = state.data();
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) \
    if (dim >= 4 * kOmpThreshold && groups > 1 && !omp_in_parallel())
#endif
  for (std::int64_t g = 0; g < groups; ++g) {
    simd::applyDiagonalRunsSpan(data + g * groupDim, groupDim, positions,
                                diagonal, level);
  }
}

/// Probability of measuring |0> on `qubit` (paper §3.3, Eq. for P(|0>)).
template <typename State>
auto measureProbability0(const State& state, int nbQubits,
                         int qubit) {
  using T = typename State::value_type::value_type;
  util::checkQubit(qubit, nbQubits);
  const int pos = util::bitPosition(qubit, nbQubits);
  const std::int64_t half = std::int64_t{1} << (nbQubits - 1);
  T p0(0);
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) reduction(+ : p0) \
    if (half >= kOmpThreshold)
#endif
  for (std::int64_t base = 0; base < half; ++base) {
    const util::index_t i0 =
        util::insertZeroBit(static_cast<util::index_t>(base), pos);
    p0 += std::norm(state[i0]);
  }
  return p0;
}

/// Collapses `qubit` onto `outcome` and renormalizes by 1/sqrt(probability)
/// (paper §3.3): amplitudes of the other outcome are zeroed.
template <typename State, typename T>
void collapse(State& state, int nbQubits, int qubit,
              int outcome, T probability) {
  util::checkQubit(qubit, nbQubits);
  util::require(outcome == 0 || outcome == 1, "outcome must be 0 or 1");
  util::require(probability > T(0), "cannot collapse onto zero probability");
  const T scale = T(1) / std::sqrt(probability);
  const int pos = util::bitPosition(qubit, nbQubits);
  const std::int64_t half = std::int64_t{1} << (nbQubits - 1);
#ifdef QCLAB_HAS_OPENMP
#pragma omp parallel for schedule(static) if (half >= kOmpThreshold)
#endif
  for (std::int64_t base = 0; base < half; ++base) {
    const util::index_t i0 =
        util::insertZeroBit(static_cast<util::index_t>(base), pos);
    const util::index_t i1 = util::setBit(i0, pos);
    const util::index_t keep = outcome == 0 ? i0 : i1;
    const util::index_t kill = outcome == 0 ? i1 : i0;
    state[keep] *= scale;
    state[kill] = std::complex<T>(0);
  }
}

}  // namespace qclab::sim
