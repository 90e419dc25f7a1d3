#pragma once

/// \file simd.hpp
/// \brief SIMD kernel tier: runtime CPU dispatch + span-level gate kernels.
///
/// The gate kernels in kernels.hpp are wrappers over the *span* kernels
/// defined here: serial routines that update a contiguous span of
/// amplitudes in place.  Every span kernel exploits the run structure of
/// bit-indexed pair updates — for a target bit position `pos`, the |0>
/// and |1> partners of each 2^{pos+1}-aligned group form two unit-stride
/// runs of 2^pos amplitudes — and dispatches each run either to the
/// explicit AVX2+FMA kernels of simd_avx2.hpp or to a portable scalar
/// loop written in split re/im arithmetic (branch-free, autovectorizable,
/// and free of the __muldc3 inf/nan fixup call that std::complex
/// operator* can emit).
///
/// Dispatch is decided once at runtime:
///  - compile-time gate: the QCLAB_SIMD CMake option defines
///    QCLAB_HAS_SIMD; without it only the scalar tier exists,
///  - cpuid: detectedSimdLevel() probes AVX2 + FMA via
///    __builtin_cpu_supports, so a binary built with the SIMD tier still
///    runs correctly on hardware without it,
///  - override: the QCLAB_SIMD_LEVEL environment variable ("scalar" or
///    "avx2") or setSimdLevel() force a level, clamped to what the build
///    and the CPU support — this is how both paths are tested on one
///    machine.
///
/// Dispatch matrix (per span kernel at the AVX2 level, W = complex lanes
/// per 256-bit register: 2 for double, 4 for float; every other case,
/// and the whole scalar level, takes the portable loops).  The choice
/// depends only on bit positions, the scalar type and the level:
///
///   kernel                 | case                  | AVX2 kernel
///   -----------------------+-----------------------+---------------------
///   apply1Span             | stride >= W           | avx2::apply1Runs
///   apply2Span, double     | low position 0        | avx2::apply2SpanLowPair
///   apply2Span, double     | low position >= 1     | avx2::apply2SpanRuns
///   apply2Span, float      | low stride >= W       | avx2::apply2Runs
///   applyDiagonalRunsSpan  | suffix, double        | avx2::diagonalCycle
///   applyDiagonalRunsSpan  | lowest stride >= 4    | avx2::scaleRun
///   applyKSpan             | (scalar gather/scatter — no vector tier)

#include <atomic>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

#if defined(QCLAB_HAS_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define QCLAB_SIMD_X86 1
#include "qclab/sim/simd_avx2.hpp"
#endif

namespace qclab::sim {

/// The closed set of SIMD tiers the kernel layer can dispatch to.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable split re/im loops
  kAvx2 = 1,    ///< 256-bit AVX2 + FMA kernels (x86 only)
};

/// Stable short name of a SIMD level ("scalar" / "avx2").
inline const char* simdLevelName(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2:   return "avx2";
  }
  return "unknown";
}

/// Highest level this build *and* this CPU support (cpuid, cached).
inline SimdLevel detectedSimdLevel() noexcept {
#ifdef QCLAB_SIMD_X86
  static const SimdLevel detected =
      (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
          ? SimdLevel::kAvx2
          : SimdLevel::kScalar;
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

namespace detail {

/// Clamps a requested level to what the build + CPU support.
inline SimdLevel clampSimdLevel(SimdLevel level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(detectedSimdLevel())
             ? level
             : detectedSimdLevel();
}

/// Initial level: the QCLAB_SIMD_LEVEL environment override if set and
/// recognized, otherwise the detected level.  Unknown values are ignored
/// (the dispatch must never fail at startup over a typo).
inline SimdLevel initialSimdLevel() noexcept {
  const char* env = std::getenv("QCLAB_SIMD_LEVEL");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      return clampSimdLevel(SimdLevel::kAvx2);
    }
  }
  return detectedSimdLevel();
}

/// The mutable active level (-1 = not yet initialized from the env).
inline std::atomic<int>& activeSimdLevelCell() noexcept {
  static std::atomic<int> cell{-1};
  return cell;
}

}  // namespace detail

/// The level the kernels currently dispatch to (env-initialized, clamped).
inline SimdLevel activeSimdLevel() noexcept {
  std::atomic<int>& cell = detail::activeSimdLevelCell();
  int level = cell.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(detail::initialSimdLevel());
    int expected = -1;
    cell.compare_exchange_strong(expected, level, std::memory_order_relaxed);
    level = cell.load(std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

/// Forces the dispatch level (clamped to build/CPU support; used by the
/// differential tests and benches to exercise both tiers in one process).
/// Returns the previous level.
inline SimdLevel setSimdLevel(SimdLevel level) noexcept {
  const SimdLevel previous = activeSimdLevel();
  detail::activeSimdLevelCell().store(
      static_cast<int>(detail::clampSimdLevel(level)),
      std::memory_order_relaxed);
  return previous;
}

/// True when the vector tier is the active dispatch target.
inline bool simdActive() noexcept {
  return activeSimdLevel() != SimdLevel::kScalar;
}

/// The kernel path a gate application should be COUNTED under when the
/// SIMD tier is active: the dispatch rules (classifyKernelPath) are
/// unchanged — the same fast path is selected — but the obs layer
/// attributes the application to the vectorized variant so reports show
/// which tier did the work.  `gateQubits` disambiguates kDenseK (only the
/// two-qubit case has a vectorized quad-run kernel).
inline KernelPath simdCountedPath(KernelPath path, int gateQubits) noexcept {
  if (!simdActive()) return path;
  switch (path) {
    case KernelPath::kDense1:    return KernelPath::kSimdDense1;
    case KernelPath::kDiagonal1: return KernelPath::kSimdDiagonal1;
    case KernelPath::kDenseK:
      return gateQubits == 2 ? KernelPath::kSimdDenseK : path;
    default:                     return path;
  }
}

namespace simd {

/// Complex lanes per 256-bit register for scalar type T.
template <typename T>
inline constexpr std::int64_t kVectorLanes =
    static_cast<std::int64_t>(32 / (2 * sizeof(T)));

// ---- portable run kernels (split re/im, autovectorizable) -------------

/// (a0, a1) <- (u00 a0 + u01 a1, u10 a0 + u11 a1) over unit-stride runs.
template <typename T>
void apply1RunsScalar(std::complex<T>* a0, std::complex<T>* a1,
                      std::int64_t count, const std::complex<T> u[4]) {
  const T u00r = u[0].real(), u00i = u[0].imag();
  const T u01r = u[1].real(), u01i = u[1].imag();
  const T u10r = u[2].real(), u10i = u[2].imag();
  const T u11r = u[3].real(), u11i = u[3].imag();
  for (std::int64_t j = 0; j < count; ++j) {
    const T x0r = a0[j].real(), x0i = a0[j].imag();
    const T x1r = a1[j].real(), x1i = a1[j].imag();
    a0[j] = std::complex<T>(u00r * x0r - u00i * x0i + u01r * x1r - u01i * x1i,
                            u00r * x0i + u00i * x0r + u01r * x1i + u01i * x1r);
    a1[j] = std::complex<T>(u10r * x0r - u10i * x0i + u11r * x1r - u11i * x1i,
                            u10r * x0i + u10i * x0r + u11r * x1i + u11i * x1r);
  }
}

/// a <- d * a over a unit-stride run.
template <typename T>
void scaleRunScalar(std::complex<T>* a, std::int64_t count,
                    std::complex<T> d) {
  const T dr = d.real(), di = d.imag();
  for (std::int64_t j = 0; j < count; ++j) {
    const T xr = a[j].real(), xi = a[j].imag();
    a[j] = std::complex<T>(dr * xr - di * xi, dr * xi + di * xr);
  }
}

/// a[r] <- sum_c u[4r + c] a[c] over four unit-stride runs.  The matrix
/// is hoisted into split re/im locals and the (disjoint) runs marked
/// restrict: without both, every u load aliases the a[r][j] stores (same
/// complex type) and the compiler reloads the matrix per element.
template <typename T>
void apply2RunsScalar(std::complex<T>* const a[4], std::int64_t count,
                      const std::complex<T> u[16]) {
  T ur[16], ui[16];
  for (int e = 0; e < 16; ++e) {
    ur[e] = u[e].real();
    ui[e] = u[e].imag();
  }
  std::complex<T>* __restrict__ const r0 = a[0];
  std::complex<T>* __restrict__ const r1 = a[1];
  std::complex<T>* __restrict__ const r2 = a[2];
  std::complex<T>* __restrict__ const r3 = a[3];
  for (std::int64_t j = 0; j < count; ++j) {
    const T inr[4] = {r0[j].real(), r1[j].real(), r2[j].real(), r3[j].real()};
    const T ini[4] = {r0[j].imag(), r1[j].imag(), r2[j].imag(), r3[j].imag()};
    T outr[4], outi[4];
    for (int r = 0; r < 4; ++r) {
      T re = 0, im = 0;
      for (int c = 0; c < 4; ++c) {
        re += ur[4 * r + c] * inr[c] - ui[4 * r + c] * ini[c];
        im += ur[4 * r + c] * ini[c] + ui[4 * r + c] * inr[c];
      }
      outr[r] = re;
      outi[r] = im;
    }
    r0[j] = std::complex<T>(outr[0], outi[0]);
    r1[j] = std::complex<T>(outr[1], outi[1]);
    r2[j] = std::complex<T>(outr[2], outi[2]);
    r3[j] = std::complex<T>(outr[3], outi[3]);
  }
}

// ---- dispatched run kernels -------------------------------------------

/// Pair update over unit-stride runs, dispatched on `level`.
template <typename T>
inline void apply1Runs(std::complex<T>* a0, std::complex<T>* a1,
                       std::int64_t count, const std::complex<T> u[4],
                       SimdLevel level) {
#ifdef QCLAB_SIMD_X86
  if (level == SimdLevel::kAvx2 && count >= kVectorLanes<T>) {
    avx2::apply1Runs(a0, a1, count, u);
    return;
  }
#else
  (void)level;
#endif
  apply1RunsScalar(a0, a1, count, u);
}

/// Constant complex scale over a unit-stride run, dispatched on `level`.
template <typename T>
inline void scaleRun(std::complex<T>* a, std::int64_t count,
                     std::complex<T> d, SimdLevel level) {
#ifdef QCLAB_SIMD_X86
  if (level == SimdLevel::kAvx2 && count >= kVectorLanes<T>) {
    avx2::scaleRun(a, count, d);
    return;
  }
#else
  (void)level;
#endif
  scaleRunScalar(a, count, d);
}

/// Quad update over four unit-stride runs, dispatched on `level`.
template <typename T>
inline void apply2Runs(std::complex<T>* const a[4], std::int64_t count,
                       const std::complex<T> u[16], SimdLevel level) {
#ifdef QCLAB_SIMD_X86
  if (level == SimdLevel::kAvx2 && count >= kVectorLanes<T>) {
    avx2::apply2Runs(a, count, u);
    return;
  }
#else
  (void)level;
#endif
  apply2RunsScalar(a, count, u);
}

// ---- span kernels (serial; `dim` must cover whole aligned groups) -----

/// 2x2 dense gate at bit position `pos` over `dim` amplitudes.  `dim`
/// must be a multiple of 2^{pos+1} and `state` 2^{pos+1}-group aligned.
/// Short runs (stride below a vector width) take a hoisted-matrix index
/// walk instead of a per-pair run call — same scalar accumulation order
/// the run dispatch would have picked at that count, so the path split
/// never changes results.
template <typename T>
void apply1Span(std::complex<T>* state, std::int64_t dim, int pos,
                const std::complex<T> u[4], SimdLevel level) {
  const std::int64_t stride = std::int64_t{1} << pos;
  if (stride < kVectorLanes<T>) {
    const T u00r = u[0].real(), u00i = u[0].imag();
    const T u01r = u[1].real(), u01i = u[1].imag();
    const T u10r = u[2].real(), u10i = u[2].imag();
    const T u11r = u[3].real(), u11i = u[3].imag();
    std::complex<T>* __restrict__ psi = state;
    for (std::int64_t base = 0; base < dim; base += 2 * stride) {
      for (std::int64_t j = base; j < base + stride; ++j) {
        const T x0r = psi[j].real(), x0i = psi[j].imag();
        const T x1r = psi[j + stride].real(), x1i = psi[j + stride].imag();
        psi[j] =
            std::complex<T>(u00r * x0r - u00i * x0i + u01r * x1r - u01i * x1i,
                            u00r * x0i + u00i * x0r + u01r * x1i + u01i * x1r);
        psi[j + stride] =
            std::complex<T>(u10r * x0r - u10i * x0i + u11r * x1r - u11i * x1i,
                            u10r * x0i + u10i * x0r + u11r * x1i + u11i * x1r);
      }
    }
    return;
  }
  for (std::int64_t base = 0; base < dim; base += 2 * stride) {
    apply1Runs(state + base, state + base + stride, stride, u, level);
  }
}

/// apply2Span for short runs (sLo below a vector width): the run path
/// re-hoists the 4x4 matrix into split locals and builds a pointer quad
/// per FOUR amplitudes, which dominates at these strides (a contiguous
/// qubit pair at the bottom of the register was ~6x slower than a strided
/// one).  This variant hoists the matrix once and walks the groups with
/// index arithmetic, using the same per-amplitude accumulation order as
/// apply2RunsScalar.
template <typename T>
void apply2SpanShortRuns(std::complex<T>* state, std::int64_t dim, int posHi,
                         int posLo, const std::complex<T> u[16]) {
  T ur[16], ui[16];
  for (int e = 0; e < 16; ++e) {
    ur[e] = u[e].real();
    ui[e] = u[e].imag();
  }
  const std::int64_t sHi = std::int64_t{1} << posHi;
  const std::int64_t sLo = std::int64_t{1} << posLo;
  std::complex<T>* __restrict__ psi = state;
  for (std::int64_t b2 = 0; b2 < dim; b2 += 2 * sHi) {
    for (std::int64_t b1 = b2; b1 < b2 + sHi; b1 += 2 * sLo) {
      for (std::int64_t j = 0; j < sLo; ++j) {
        const std::int64_t i0 = b1 + j;
        const std::int64_t i1 = i0 + sLo;
        const std::int64_t i2 = i0 + sHi;
        const std::int64_t i3 = i2 + sLo;
        const T inr[4] = {psi[i0].real(), psi[i1].real(), psi[i2].real(),
                          psi[i3].real()};
        const T ini[4] = {psi[i0].imag(), psi[i1].imag(), psi[i2].imag(),
                          psi[i3].imag()};
        T outr[4], outi[4];
        for (int r = 0; r < 4; ++r) {
          T re = 0, im = 0;
          for (int c = 0; c < 4; ++c) {
            re += ur[4 * r + c] * inr[c] - ui[4 * r + c] * ini[c];
            im += ur[4 * r + c] * ini[c] + ui[4 * r + c] * inr[c];
          }
          outr[r] = re;
          outi[r] = im;
        }
        psi[i0] = std::complex<T>(outr[0], outi[0]);
        psi[i1] = std::complex<T>(outr[1], outi[1]);
        psi[i2] = std::complex<T>(outr[2], outi[2]);
        psi[i3] = std::complex<T>(outr[3], outi[3]);
      }
    }
  }
}

/// 4x4 dense gate at bit positions posHi > posLo over `dim` amplitudes
/// (`dim` a multiple of 2^{posHi+1}, group-aligned).  `u` is MSB-first
/// over (bit at posHi, bit at posLo).  The path choice depends only on
/// the positions, the scalar type and the level, never on `dim`, so
/// chunked and full sweeps stay bit-identical.  Double at the AVX2 level
/// broadcasts the matrix once per span: the in-register quad kernel when
/// the low partner is at position 0, else the hoisted quad walker.
template <typename T>
void apply2Span(std::complex<T>* state, std::int64_t dim, int posHi,
                int posLo, const std::complex<T> u[16], SimdLevel level) {
  const std::int64_t sHi = std::int64_t{1} << posHi;
  const std::int64_t sLo = std::int64_t{1} << posLo;
#ifdef QCLAB_SIMD_X86
  if constexpr (std::is_same_v<T, double>) {
    if (level == SimdLevel::kAvx2) {
      if (posLo == 0) {
        avx2::apply2SpanLowPair(state, dim, sHi, u);
      } else {
        avx2::apply2SpanRuns(state, dim, sHi, sLo, u);
      }
      return;
    }
  }
#endif
  if (sLo < kVectorLanes<T>) {
    apply2SpanShortRuns(state, dim, posHi, posLo, u);
    return;
  }
  for (std::int64_t b2 = 0; b2 < dim; b2 += 2 * sHi) {
    for (std::int64_t b1 = b2; b1 < b2 + sHi; b1 += 2 * sLo) {
      std::complex<T>* const quad[4] = {state + b1, state + b1 + sLo,
                                        state + b1 + sHi,
                                        state + b1 + sHi + sLo};
      apply2Runs(quad, sLo, u, level);
    }
  }
}

/// General k-qubit dense gate via gather / dense multiply / scatter over
/// the gate subspaces [lo, hi) of `state` (a whole register or one
/// aligned chunk of it).  `positions` are the ascending gate bit
/// positions within a state index, `offsets` the 2^k subspace offsets
/// (MSB-first row order), `scratch` a caller-provided gather buffer.
template <typename T>
void applyKSpan(std::complex<T>* __restrict__ state, std::int64_t lo,
                std::int64_t hi, std::span<const int> positions,
                const std::vector<util::index_t>& offsets,
                const dense::Matrix<T>& u,
                std::vector<std::complex<T>>& scratch) {
  const std::size_t gateDim = offsets.size();
  scratch.resize(gateDim);
  // Raw restrict views: matrix/scratch loads must not be treated as
  // aliasing the state scatter (all three are complex<T>); without them
  // the compiler reloads u per element (see DESIGN.md, SIMD tier).
  const std::complex<T>* __restrict__ mat = u.data();
  std::complex<T>* __restrict__ gathered = scratch.data();
  const util::index_t* __restrict__ off = offsets.data();
  for (std::int64_t outer = lo; outer < hi; ++outer) {
    util::index_t base = static_cast<util::index_t>(outer);
    for (int pos : positions) base = util::insertZeroBit(base, pos);
    for (util::index_t r = 0; r < gateDim; ++r) {
      gathered[r] = state[base | off[r]];
    }
    for (util::index_t r = 0; r < gateDim; ++r) {
      T sumr(0), sumi(0);
      for (util::index_t c = 0; c < gateDim; ++c) {
        const std::complex<T> m = mat[r * gateDim + c];
        sumr += m.real() * gathered[c].real() - m.imag() * gathered[c].imag();
        sumi += m.real() * gathered[c].imag() + m.imag() * gathered[c].real();
      }
      state[base | off[r]] = std::complex<T>(sumr, sumi);
    }
  }
}

/// Run-structured diagonal k-qubit gate over `dim` amplitudes: the row
/// index is constant over every unit-stride run of 2^minPos amplitudes
/// (minPos = the lowest gate bit position), so instead of gathering the
/// gate bits of every amplitude the table row is computed once per run
/// and the run is scaled through the dispatched scaleRun kernel.  Row
/// indices walk by XOR deltas: bit-gathering distributes over XOR and a
/// sequential counter flips exactly its ctz+1 low bits per increment, so
/// after precomputing the gather of each of the m+1 possible flip patterns
/// the per-step gather collapses to one ctz plus one XOR.  Three paths:
///  - gate bits contiguous at position 0 (the full-window / suffix case):
///    row = i mod 2^k, a sequential cyclic table walk (AVX2 for double),
///  - runs of >= 4 amplitudes: delta-walked row + scaleRun per run,
///  - short runs: per-amplitude delta-walked row.
/// The path choice depends only on `positions`, the scalar type and the
/// level, never on `dim`, so chunked (blocked) and full-state sweeps stay
/// bit-identical.
///
/// `state` holds amplitudes [first, first + dim) of the register, or of an
/// aligned window that holds every gate bit (a blocked chunk, first = 0),
/// and each row comes from the gate bits of the index first + i, so the
/// state can be cut into pieces at any offset that covers whole runs
/// (applyDiagonalBlock's split).  `first` and `dim` must cover whole runs
/// of 2^minPos amplitudes and be even.
template <typename T>
void applyDiagonalRunsSpan(std::complex<T>* state, std::int64_t dim,
                           std::span<const int> positions,
                           const std::vector<std::complex<T>>& diagonal,
                           SimdLevel level, std::int64_t first = 0) {
  const int k = static_cast<int>(positions.size());
  // `positions` is MSB-first over ascending qubits => strictly descending,
  // so front() is the highest bit and back() the lowest.
  if (positions.front() == k - 1) {
    // Contiguous suffix [0, k): row = i mod 2^k, cyclic table walk.
    const util::index_t mask = (util::index_t{1} << k) - 1;
#ifdef QCLAB_SIMD_X86
    if constexpr (std::is_same_v<T, double>) {
      if (level == SimdLevel::kAvx2) {
        avx2::diagonalCycle(state, dim, diagonal.data(), first,
                            static_cast<std::int64_t>(mask));
        return;
      }
    }
#endif
    std::complex<T>* __restrict__ psi = state;
    const std::complex<T>* __restrict__ diag = diagonal.data();
    for (std::int64_t i = 0; i < dim; ++i) {
      const std::complex<T> d =
          diag[static_cast<util::index_t>(first + i) & mask];
      const T xr = psi[i].real(), xi = psi[i].imag();
      psi[i] = std::complex<T>(d.real() * xr - d.imag() * xi,
                               d.real() * xi + d.imag() * xr);
    }
    return;
  }
  const int minPos = positions.back();
  const std::int64_t runLen = std::int64_t{1} << minPos;
  // deltas[j]: gather of the flip pattern with j low counter bits set —
  // counter bit c lives at group position shift + c, and row bit (k-1-i)
  // collects group position positions[i].
  const int shift = runLen >= 4 ? minPos : 0;
  const int counterBits = [&] {
    int m = 0;
    while ((std::int64_t{1} << (m + shift)) < first + dim) ++m;
    return m;
  }();
  util::index_t deltas[64];
  for (int j = 0; j <= counterBits; ++j) {
    util::index_t g = 0;
    for (int i = 0; i < k; ++i) {
      const int c = positions[static_cast<std::size_t>(i)] - shift;
      if (c >= 0 && c < j) g |= util::index_t{1} << (k - 1 - i);
    }
    deltas[j] = g;
  }
  // The walk starts from the gathered row of the span's first amplitude.
  util::index_t row = 0;
  for (int i = 0; i < k; ++i) {
    row = (row << 1) |
          util::getBit(static_cast<util::index_t>(first),
                       positions[static_cast<std::size_t>(i)]);
  }
  if (runLen >= 4) {
    const std::int64_t runs = dim >> minPos;
    const std::int64_t firstRun = first >> minPos;
    for (std::int64_t t = 0;;) {
      scaleRun(state + (t << minPos), runLen, diagonal[row], level);
      if (++t == runs) break;
      row ^= deltas[util::countTrailingZeros(
                        static_cast<util::index_t>(firstRun + t)) + 1];
    }
    return;
  }
  // Short runs: per-amplitude delta walk (same multiply as the naive
  // gather, only the row indexing is cheaper).
  std::complex<T>* __restrict__ psi = state;
  const std::complex<T>* __restrict__ diag = diagonal.data();
  for (std::int64_t i = 0;;) {
    const std::complex<T> d = diag[row];
    const T xr = psi[i].real(), xi = psi[i].imag();
    psi[i] = std::complex<T>(d.real() * xr - d.imag() * xi,
                             d.real() * xi + d.imag() * xr);
    if (++i == dim) break;
    row ^= deltas[util::countTrailingZeros(
                      static_cast<util::index_t>(first + i)) + 1];
  }
}

}  // namespace simd
}  // namespace qclab::sim
