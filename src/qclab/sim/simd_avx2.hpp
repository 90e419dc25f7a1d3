#pragma once

/// \file simd_avx2.hpp
/// \brief AVX2 + FMA gate kernels over unit-stride amplitude runs.
///
/// Every routine here operates on *contiguous* runs of amplitudes: the
/// run structure of the pair update (i, i + 2^pos) means that for any
/// target bit position the |0> and |1> halves of each 2^{pos+1}-aligned
/// group are themselves unit-stride arrays of 2^pos amplitudes, so the
/// kernels take one pointer per matrix column and stream them with plain
/// 256-bit loads — no gather instructions.
///
/// Complex arithmetic uses the interleaved-lane FMA pattern: for an
/// amplitude vector a = [re0, im0, re1, im1, ...] and a gate coefficient
/// c, the product c*a is fmaddsub(a, re(c), swap(a) * im(c)) where swap
/// exchanges the re/im lanes — one shuffle, one multiply, one FMA per
/// complex multiply, with a single rounding on the fused lanes.
///
/// All functions carry __attribute__((target("avx2,fma"))), so this
/// header compiles without -mavx2/-mfma on the command line and the
/// resulting code is only reached through the runtime cpuid dispatch in
/// simd.hpp (detectedSimdLevel).  The surrounding translation unit never
/// executes an AVX2 instruction on hardware that lacks it.

#include <complex>
#include <cstdint>
#include <immintrin.h>

#define QCLAB_AVX2_TARGET __attribute__((target("avx2,fma")))

namespace qclab::sim::avx2 {

// ---- double: 2 complex amplitudes per __m256d -------------------------

/// Lanes swapped within each complex slot: [im0, re0, im1, re1].
QCLAB_AVX2_TARGET inline __m256d swapLanes(__m256d x) noexcept {
  return _mm256_permute_pd(x, 0x5);
}

/// c * a for every complex lane of `a`, with c split into broadcast
/// re/im registers (cr = set1(re c), ci = set1(im c)).
QCLAB_AVX2_TARGET inline __m256d cmul(__m256d a, __m256d cr,
                                      __m256d ci) noexcept {
  return _mm256_fmaddsub_pd(a, cr, _mm256_mul_pd(swapLanes(a), ci));
}

/// In-place 2x2 dense update of the unit-stride runs a0 / a1 (`count`
/// complex amplitudes each): (a0, a1) <- (u00 a0 + u01 a1, u10 a0 + u11 a1).
QCLAB_AVX2_TARGET inline void apply1Runs(std::complex<double>* a0,
                                         std::complex<double>* a1,
                                         std::int64_t count,
                                         const std::complex<double> u[4]) {
  const __m256d u00r = _mm256_set1_pd(u[0].real());
  const __m256d u00i = _mm256_set1_pd(u[0].imag());
  const __m256d u01r = _mm256_set1_pd(u[1].real());
  const __m256d u01i = _mm256_set1_pd(u[1].imag());
  const __m256d u10r = _mm256_set1_pd(u[2].real());
  const __m256d u10i = _mm256_set1_pd(u[2].imag());
  const __m256d u11r = _mm256_set1_pd(u[3].real());
  const __m256d u11i = _mm256_set1_pd(u[3].imag());
  double* p0 = reinterpret_cast<double*>(a0);
  double* p1 = reinterpret_cast<double*>(a1);
  const std::int64_t vec = (count / 2) * 2;
  for (std::int64_t j = 0; j < vec; j += 2) {
    const __m256d v0 = _mm256_loadu_pd(p0 + 2 * j);
    const __m256d v1 = _mm256_loadu_pd(p1 + 2 * j);
    const __m256d r0 = _mm256_add_pd(cmul(v0, u00r, u00i),
                                     cmul(v1, u01r, u01i));
    const __m256d r1 = _mm256_add_pd(cmul(v0, u10r, u10i),
                                     cmul(v1, u11r, u11i));
    _mm256_storeu_pd(p0 + 2 * j, r0);
    _mm256_storeu_pd(p1 + 2 * j, r1);
  }
  for (std::int64_t j = vec; j < count; ++j) {
    const std::complex<double> x0 = a0[j];
    const std::complex<double> x1 = a1[j];
    a0[j] = std::complex<double>(
        u[0].real() * x0.real() - u[0].imag() * x0.imag() +
            u[1].real() * x1.real() - u[1].imag() * x1.imag(),
        u[0].real() * x0.imag() + u[0].imag() * x0.real() +
            u[1].real() * x1.imag() + u[1].imag() * x1.real());
    a1[j] = std::complex<double>(
        u[2].real() * x0.real() - u[2].imag() * x0.imag() +
            u[3].real() * x1.real() - u[3].imag() * x1.imag(),
        u[2].real() * x0.imag() + u[2].imag() * x0.real() +
            u[3].real() * x1.imag() + u[3].imag() * x1.real());
  }
}

/// In-place scale of a unit-stride run by the complex constant d.
QCLAB_AVX2_TARGET inline void scaleRun(std::complex<double>* a,
                                       std::int64_t count,
                                       std::complex<double> d) {
  const __m256d dr = _mm256_set1_pd(d.real());
  const __m256d di = _mm256_set1_pd(d.imag());
  double* p = reinterpret_cast<double*>(a);
  const std::int64_t vec = (count / 2) * 2;
  for (std::int64_t j = 0; j < vec; j += 2) {
    _mm256_storeu_pd(p + 2 * j, cmul(_mm256_loadu_pd(p + 2 * j), dr, di));
  }
  for (std::int64_t j = vec; j < count; ++j) {
    const std::complex<double> x = a[j];
    a[j] = std::complex<double>(d.real() * x.real() - d.imag() * x.imag(),
                                d.real() * x.imag() + d.imag() * x.real());
  }
}

/// Vector part of the 4x4 run update: the first `vec` (even) amplitudes
/// of the runs a[0..3], with the matrix already broadcast into cr / ci.
QCLAB_AVX2_TARGET inline void quadRunsBody(std::complex<double>* const a[4],
                                           std::int64_t vec,
                                           const __m256d cr[16],
                                           const __m256d ci[16]) {
  for (std::int64_t j = 0; j < vec; j += 2) {
    __m256d in[4];
    for (int c = 0; c < 4; ++c) {
      in[c] = _mm256_loadu_pd(reinterpret_cast<double*>(a[c] + j));
    }
    for (int r = 0; r < 4; ++r) {
      __m256d acc = cmul(in[0], cr[4 * r], ci[4 * r]);
      for (int c = 1; c < 4; ++c) {
        acc = _mm256_add_pd(acc, cmul(in[c], cr[4 * r + c], ci[4 * r + c]));
      }
      _mm256_storeu_pd(reinterpret_cast<double*>(a[r] + j), acc);
    }
  }
}

/// In-place 4x4 dense update of the four unit-stride runs a[0..3]
/// (`count` complex amplitudes each, MSB-first row order):
/// a[r] <- sum_c u[4r + c] a[c].
QCLAB_AVX2_TARGET inline void apply2Runs(std::complex<double>* const a[4],
                                         std::int64_t count,
                                         const std::complex<double> u[16]) {
  __m256d cr[16], ci[16];
  for (int e = 0; e < 16; ++e) {
    cr[e] = _mm256_set1_pd(u[e].real());
    ci[e] = _mm256_set1_pd(u[e].imag());
  }
  const std::int64_t vec = (count / 2) * 2;
  quadRunsBody(a, vec, cr, ci);
  for (std::int64_t j = vec; j < count; ++j) {
    std::complex<double> in[4] = {a[0][j], a[1][j], a[2][j], a[3][j]};
    for (int r = 0; r < 4; ++r) {
      double re = 0, im = 0;
      for (int c = 0; c < 4; ++c) {
        re += u[4 * r + c].real() * in[c].real() -
              u[4 * r + c].imag() * in[c].imag();
        im += u[4 * r + c].real() * in[c].imag() +
              u[4 * r + c].imag() * in[c].real();
      }
      a[r][j] = std::complex<double>(re, im);
    }
  }
}

/// 4x4 update at strides sHi > sLo >= 2 over `dim` amplitudes (whole
/// 2*sHi groups): apply2Runs on every quad of runs, with the matrix
/// broadcast once per span instead of once per quad.
QCLAB_AVX2_TARGET inline void apply2SpanRuns(std::complex<double>* state,
                                             std::int64_t dim,
                                             std::int64_t sHi,
                                             std::int64_t sLo,
                                             const std::complex<double> u[16]) {
  __m256d cr[16], ci[16];
  for (int e = 0; e < 16; ++e) {
    cr[e] = _mm256_set1_pd(u[e].real());
    ci[e] = _mm256_set1_pd(u[e].imag());
  }
  for (std::int64_t b2 = 0; b2 < dim; b2 += 2 * sHi) {
    for (std::int64_t b1 = b2; b1 < b2 + sHi; b1 += 2 * sLo) {
      std::complex<double>* const quad[4] = {state + b1, state + b1 + sLo,
                                             state + b1 + sHi,
                                             state + b1 + sHi + sLo};
      quadRunsBody(quad, sLo, cr, ci);
    }
  }
}

/// 4x4 update with the low partner at bit position 0 (stride sHi >= 2 for
/// the high one) over `dim` amplitudes (whole 2*sHi groups).  A quad's
/// four amplitudes fill two registers, lo = [a(i), a(i+1)] and
/// hi = [a(i+sHi), a(i+sHi+1)]; each amplitude is broadcast across both
/// 128-bit lanes and multiplied by its matrix column, so lo gathers rows
/// 0-1 and hi rows 2-3.  Per lane this is apply2Runs' arithmetic: the
/// same cmul per (row, column) and the same column-order sum.
QCLAB_AVX2_TARGET inline void apply2SpanLowPair(
    std::complex<double>* state, std::int64_t dim, std::int64_t sHi,
    const std::complex<double> u[16]) {
  // Column c of rows (0, 1) and of rows (2, 3), one row per 128-bit lane.
  __m256d loR[4], loI[4], hiR[4], hiI[4];
  for (int c = 0; c < 4; ++c) {
    loR[c] = _mm256_setr_pd(u[c].real(), u[c].real(), u[4 + c].real(),
                            u[4 + c].real());
    loI[c] = _mm256_setr_pd(u[c].imag(), u[c].imag(), u[4 + c].imag(),
                            u[4 + c].imag());
    hiR[c] = _mm256_setr_pd(u[8 + c].real(), u[8 + c].real(),
                            u[12 + c].real(), u[12 + c].real());
    hiI[c] = _mm256_setr_pd(u[8 + c].imag(), u[8 + c].imag(),
                            u[12 + c].imag(), u[12 + c].imag());
  }
  double* p = reinterpret_cast<double*>(state);
  for (std::int64_t b2 = 0; b2 < dim; b2 += 2 * sHi) {
    for (std::int64_t i = b2; i < b2 + sHi; i += 2) {
      const __m256d lo = _mm256_loadu_pd(p + 2 * i);
      const __m256d hi = _mm256_loadu_pd(p + 2 * (i + sHi));
      const __m256d in[4] = {_mm256_permute2f128_pd(lo, lo, 0x00),
                             _mm256_permute2f128_pd(lo, lo, 0x11),
                             _mm256_permute2f128_pd(hi, hi, 0x00),
                             _mm256_permute2f128_pd(hi, hi, 0x11)};
      __m256d outLo = cmul(in[0], loR[0], loI[0]);
      __m256d outHi = cmul(in[0], hiR[0], hiI[0]);
      for (int c = 1; c < 4; ++c) {
        outLo = _mm256_add_pd(outLo, cmul(in[c], loR[c], loI[c]));
        outHi = _mm256_add_pd(outHi, cmul(in[c], hiR[c], hiI[c]));
      }
      _mm256_storeu_pd(p + 2 * i, outLo);
      _mm256_storeu_pd(p + 2 * (i + sHi), outHi);
    }
  }
}

/// Cyclic diagonal walk: a[i] <- diag[(first + i) & mask] over `dim`
/// amplitudes, `first` and `dim` even, mask + 1 >= 2 a power of two.
/// Two neighbouring amplitudes have neighbouring table rows, so one
/// 256-bit load brings both entries; the re / im halves are spread across
/// the lanes in registers.
QCLAB_AVX2_TARGET inline void diagonalCycle(std::complex<double>* a,
                                            std::int64_t dim,
                                            const std::complex<double>* diag,
                                            std::int64_t first,
                                            std::int64_t mask) {
  double* p = reinterpret_cast<double*>(a);
  const double* d = reinterpret_cast<const double*>(diag);
  for (std::int64_t i = 0; i < dim; i += 2) {
    const __m256d entries = _mm256_loadu_pd(d + 2 * ((first + i) & mask));
    const __m256d dr = _mm256_movedup_pd(entries);       // [r0 r0 r1 r1]
    const __m256d di = _mm256_permute_pd(entries, 0xF);  // [i0 i0 i1 i1]
    _mm256_storeu_pd(p + 2 * i, cmul(_mm256_loadu_pd(p + 2 * i), dr, di));
  }
}

// ---- float: 4 complex amplitudes per __m256 ---------------------------

QCLAB_AVX2_TARGET inline __m256 swapLanes(__m256 x) noexcept {
  return _mm256_permute_ps(x, 0xB1);
}

QCLAB_AVX2_TARGET inline __m256 cmul(__m256 a, __m256 cr, __m256 ci) noexcept {
  return _mm256_fmaddsub_ps(a, cr, _mm256_mul_ps(swapLanes(a), ci));
}

QCLAB_AVX2_TARGET inline void apply1Runs(std::complex<float>* a0,
                                         std::complex<float>* a1,
                                         std::int64_t count,
                                         const std::complex<float> u[4]) {
  const __m256 u00r = _mm256_set1_ps(u[0].real());
  const __m256 u00i = _mm256_set1_ps(u[0].imag());
  const __m256 u01r = _mm256_set1_ps(u[1].real());
  const __m256 u01i = _mm256_set1_ps(u[1].imag());
  const __m256 u10r = _mm256_set1_ps(u[2].real());
  const __m256 u10i = _mm256_set1_ps(u[2].imag());
  const __m256 u11r = _mm256_set1_ps(u[3].real());
  const __m256 u11i = _mm256_set1_ps(u[3].imag());
  float* p0 = reinterpret_cast<float*>(a0);
  float* p1 = reinterpret_cast<float*>(a1);
  const std::int64_t vec = (count / 4) * 4;
  for (std::int64_t j = 0; j < vec; j += 4) {
    const __m256 v0 = _mm256_loadu_ps(p0 + 2 * j);
    const __m256 v1 = _mm256_loadu_ps(p1 + 2 * j);
    const __m256 r0 = _mm256_add_ps(cmul(v0, u00r, u00i),
                                    cmul(v1, u01r, u01i));
    const __m256 r1 = _mm256_add_ps(cmul(v0, u10r, u10i),
                                    cmul(v1, u11r, u11i));
    _mm256_storeu_ps(p0 + 2 * j, r0);
    _mm256_storeu_ps(p1 + 2 * j, r1);
  }
  for (std::int64_t j = vec; j < count; ++j) {
    const std::complex<float> x0 = a0[j];
    const std::complex<float> x1 = a1[j];
    a0[j] = std::complex<float>(
        u[0].real() * x0.real() - u[0].imag() * x0.imag() +
            u[1].real() * x1.real() - u[1].imag() * x1.imag(),
        u[0].real() * x0.imag() + u[0].imag() * x0.real() +
            u[1].real() * x1.imag() + u[1].imag() * x1.real());
    a1[j] = std::complex<float>(
        u[2].real() * x0.real() - u[2].imag() * x0.imag() +
            u[3].real() * x1.real() - u[3].imag() * x1.imag(),
        u[2].real() * x0.imag() + u[2].imag() * x0.real() +
            u[3].real() * x1.imag() + u[3].imag() * x1.real());
  }
}

QCLAB_AVX2_TARGET inline void scaleRun(std::complex<float>* a,
                                       std::int64_t count,
                                       std::complex<float> d) {
  const __m256 dr = _mm256_set1_ps(d.real());
  const __m256 di = _mm256_set1_ps(d.imag());
  float* p = reinterpret_cast<float*>(a);
  const std::int64_t vec = (count / 4) * 4;
  for (std::int64_t j = 0; j < vec; j += 4) {
    _mm256_storeu_ps(p + 2 * j, cmul(_mm256_loadu_ps(p + 2 * j), dr, di));
  }
  for (std::int64_t j = vec; j < count; ++j) {
    const std::complex<float> x = a[j];
    a[j] = std::complex<float>(d.real() * x.real() - d.imag() * x.imag(),
                               d.real() * x.imag() + d.imag() * x.real());
  }
}

QCLAB_AVX2_TARGET inline void apply2Runs(std::complex<float>* const a[4],
                                         std::int64_t count,
                                         const std::complex<float> u[16]) {
  __m256 cr[16], ci[16];
  for (int e = 0; e < 16; ++e) {
    cr[e] = _mm256_set1_ps(u[e].real());
    ci[e] = _mm256_set1_ps(u[e].imag());
  }
  const std::int64_t vec = (count / 4) * 4;
  for (std::int64_t j = 0; j < vec; j += 4) {
    __m256 in[4];
    for (int c = 0; c < 4; ++c) {
      in[c] = _mm256_loadu_ps(reinterpret_cast<float*>(a[c] + j));
    }
    for (int r = 0; r < 4; ++r) {
      __m256 acc = cmul(in[0], cr[4 * r], ci[4 * r]);
      for (int c = 1; c < 4; ++c) {
        acc = _mm256_add_ps(acc, cmul(in[c], cr[4 * r + c], ci[4 * r + c]));
      }
      _mm256_storeu_ps(reinterpret_cast<float*>(a[r] + j), acc);
    }
  }
  for (std::int64_t j = vec; j < count; ++j) {
    std::complex<float> in[4] = {a[0][j], a[1][j], a[2][j], a[3][j]};
    for (int r = 0; r < 4; ++r) {
      float re = 0, im = 0;
      for (int c = 0; c < 4; ++c) {
        re += u[4 * r + c].real() * in[c].real() -
              u[4 * r + c].imag() * in[c].imag();
        im += u[4 * r + c].real() * in[c].imag() +
              u[4 * r + c].imag() * in[c].real();
      }
      a[r][j] = std::complex<float>(re, im);
    }
  }
}

}  // namespace qclab::sim::avx2

#undef QCLAB_AVX2_TARGET
