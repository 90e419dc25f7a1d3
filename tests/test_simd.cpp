/// \file test_simd.cpp
/// \brief SIMD tier tests: level detection/override plumbing plus
/// differential fuzzing of the vectorized kernels against the scalar
/// tier, for float and double, over every target position (unit-stride
/// runs shorter and longer than a vector register, and states on both
/// sides of the OpenMP threshold).

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <vector>

#include "qclab/qclab.hpp"
#include "test_helpers.hpp"

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

using qclab::sim::KernelPath;
using qclab::sim::SimdLevel;
using qclab::test::ScopedSimdLevel;

namespace {

bool avx2Available() {
  return qclab::sim::detectedSimdLevel() == SimdLevel::kAvx2;
}

/// Both dispatch levels (AVX2 clamps to scalar where the CPU lacks it).
const SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2};

}  // namespace

// ---- level plumbing ---------------------------------------------------

TEST(SimdLevel, NamesAreStable) {
  EXPECT_STREQ(qclab::sim::simdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(qclab::sim::simdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdLevel, DetectionMatchesBuild) {
  // Without the compiled tier the only detectable level is scalar.
  if (!qclab::builtWithSimd()) {
    EXPECT_EQ(qclab::sim::detectedSimdLevel(), SimdLevel::kScalar);
  }
  // The active level never exceeds what the build + CPU support.
  EXPECT_LE(static_cast<int>(qclab::sim::activeSimdLevel()),
            static_cast<int>(qclab::sim::detectedSimdLevel()));
}

TEST(SimdLevel, SetClampsAndRestores) {
  const SimdLevel before = qclab::sim::activeSimdLevel();
  {
    const ScopedSimdLevel scalar(SimdLevel::kScalar);
    EXPECT_EQ(qclab::sim::activeSimdLevel(), SimdLevel::kScalar);
    EXPECT_FALSE(qclab::sim::simdActive());
  }
  EXPECT_EQ(qclab::sim::activeSimdLevel(), before);
  {
    // Requesting AVX2 is clamped to the detected level.
    const ScopedSimdLevel avx2(SimdLevel::kAvx2);
    EXPECT_EQ(qclab::sim::activeSimdLevel(),
              qclab::sim::detectedSimdLevel());
  }
  EXPECT_EQ(qclab::sim::activeSimdLevel(), before);
}

TEST(SimdLevel, CountedPathMapsOnlyVectorizedPaths) {
  {
    const ScopedSimdLevel scalar(SimdLevel::kScalar);
    EXPECT_EQ(qclab::sim::simdCountedPath(KernelPath::kDense1, 1),
              KernelPath::kDense1);
    EXPECT_EQ(qclab::sim::simdCountedPath(KernelPath::kDenseK, 2),
              KernelPath::kDenseK);
  }
  if (!avx2Available()) return;
  const ScopedSimdLevel avx2(SimdLevel::kAvx2);
  EXPECT_EQ(qclab::sim::simdCountedPath(KernelPath::kDense1, 1),
            KernelPath::kSimdDense1);
  EXPECT_EQ(qclab::sim::simdCountedPath(KernelPath::kDiagonal1, 1),
            KernelPath::kSimdDiagonal1);
  EXPECT_EQ(qclab::sim::simdCountedPath(KernelPath::kDenseK, 2),
            KernelPath::kSimdDenseK);
  // Paths without a vectorized variant are never remapped.
  EXPECT_EQ(qclab::sim::simdCountedPath(KernelPath::kDenseK, 3),
            KernelPath::kDenseK);
  EXPECT_EQ(qclab::sim::simdCountedPath(KernelPath::kControlled1, 1),
            KernelPath::kControlled1);
  EXPECT_EQ(qclab::sim::simdCountedPath(KernelPath::kSwap, 2),
            KernelPath::kSwap);
}

// ---- differential fuzz: scalar vs AVX2 kernels ------------------------

template <typename T>
class SimdDifferential : public ::testing::Test {};
using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(SimdDifferential, Scalars);

TYPED_TEST(SimdDifferential, Apply1AgreesAcrossLevelsAllPositions) {
  using T = TypeParam;
  if (!avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  qclab::random::Rng rng(11);
  // n = 13 crosses the OpenMP threshold (dim 8192 > 4096).
  for (int n : {1, 2, 3, 5, 13}) {
    const auto reference = qclab::test::randomState<T>(n, rng);
    for (int qubit = 0; qubit < n; ++qubit) {
      const auto u = qclab::test::randomUnitary1<T>(rng);
      auto scalar = reference;
      auto vector = reference;
      {
        const ScopedSimdLevel level(SimdLevel::kScalar);
        qclab::sim::apply1(scalar, n, qubit, u);
      }
      {
        const ScopedSimdLevel level(SimdLevel::kAvx2);
        qclab::sim::apply1(vector, n, qubit, u);
      }
      qclab::test::expectStateNear(scalar, vector);
    }
  }
}

TYPED_TEST(SimdDifferential, ApplyDiagonal1AgreesAcrossLevels) {
  using T = TypeParam;
  if (!avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  qclab::random::Rng rng(12);
  for (int n : {1, 3, 6, 13}) {
    const auto reference = qclab::test::randomState<T>(n, rng);
    for (int qubit = 0; qubit < n; ++qubit) {
      const auto d0 = std::polar(T(1), static_cast<T>(rng.uniform(-3, 3)));
      const auto d1 = std::polar(T(1), static_cast<T>(rng.uniform(-3, 3)));
      auto scalar = reference;
      auto vector = reference;
      {
        const ScopedSimdLevel level(SimdLevel::kScalar);
        qclab::sim::applyDiagonal1(scalar, n, qubit, d0, d1);
      }
      {
        const ScopedSimdLevel level(SimdLevel::kAvx2);
        qclab::sim::applyDiagonal1(vector, n, qubit, d0, d1);
      }
      qclab::test::expectStateNear(scalar, vector);
    }
  }
}

TYPED_TEST(SimdDifferential, Apply2AgreesWithApplyKAndAcrossLevels) {
  using T = TypeParam;
  qclab::random::Rng rng(13);
  // Every position pair at n = 2-13: the quad kernels at the bottom of
  // the register (low partner at position 0, short vector runs) included.
  for (int n = 2; n <= 13; ++n) {
    const auto reference = qclab::test::randomState<T>(n, rng);
    for (int q0 = 0; q0 < n; ++q0) {
      for (int q1 = q0 + 1; q1 < n; ++q1) {
        // Random 4x4 unitary: product of two embedded 1-qubit unitaries
        // and an entangling iSWAP.
        auto u = qclab::qgates::iSWAP<T>(0, 1).matrix();
        u = qclab::dense::kron(qclab::test::randomUnitary1<T>(rng),
                               qclab::test::randomUnitary1<T>(rng)) *
            u;
        auto viaK = reference;
        qclab::sim::applyK(viaK, n, {q0, q1}, u);
        const int posHi = qclab::util::bitPosition(q0, n);
        const int posLo = qclab::util::bitPosition(q1, n);
        std::complex<T> coeffs[16];
        for (int i = 0; i < 16; ++i) coeffs[i] = u(i / 4, i % 4);
        for (const SimdLevel level : kLevels) {
          const ScopedSimdLevel scoped(level);
          auto plain = reference;
          qclab::sim::apply2(plain, n, q0, q1, u);
          qclab::test::expectStateNear(viaK, plain);
          // The same span kernel group by group, as a blocked chunk runs
          // it, gives the plain sweep's bits.
          auto grouped = reference;
          const std::int64_t group = std::int64_t{2} << posHi;
          for (std::int64_t g = 0; g < std::int64_t(grouped.size());
               g += group) {
            qclab::sim::simd::apply2Span(grouped.data() + g, group, posHi,
                                         posLo, coeffs,
                                         qclab::sim::activeSimdLevel());
          }
          EXPECT_EQ(std::memcmp(plain.data(), grouped.data(),
                                plain.size() * sizeof(std::complex<T>)),
                    0)
              << "n=" << n << " qubits (" << q0 << ", " << q1 << ") level "
              << qclab::sim::simdLevelName(qclab::sim::activeSimdLevel());
        }
      }
    }
  }
}

TYPED_TEST(SimdDifferential, RandomCircuitsAgreeAcrossLevels) {
  using T = TypeParam;
  if (!avx2Available()) GTEST_SKIP() << "no AVX2 on this machine";
  const qclab::sim::KernelBackend<T> backend;
  qclab::SimulateOptions perGate;
  perGate.fusion = false;
  for (int n = 2; n <= 16; n += 2) {
    const auto circuit =
        qclab::test::randomCircuit<T>(n, 30, 1000u + static_cast<unsigned>(n));
    std::vector<std::complex<T>> scalar, vector;
    {
      const ScopedSimdLevel level(SimdLevel::kScalar);
      scalar = circuit.simulate(std::string(n, '0'), perGate, backend).state(0);
    }
    {
      const ScopedSimdLevel level(SimdLevel::kAvx2);
      vector = circuit.simulate(std::string(n, '0'), perGate, backend).state(0);
    }
    // A 30-gate circuit compounds per-gate rounding differences between
    // the FMA and scalar tiers; allow a modest depth factor.
    qclab::test::expectStateNear(scalar, vector,
                                 T(8) * qclab::test::tol<T>());
  }
}

// ---- double diagonal blocks ------------------------------------------
//
// At the AVX2 level a double suffix diagonal runs the vector cyclic walk,
// and a block that holds qubit 0 splits its one group over the team.
// Each must agree with applyDiagonalK at both levels, and a plain sweep
// must equal the span kernel run group by group (what a blocked chunk
// runs) and in one call, bit for bit.

namespace {

bool sameBits(const std::vector<std::complex<double>>& a,
              const std::vector<std::complex<double>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(std::complex<double>)) == 0;
}

/// MSB-first bit positions of ascending `qubits` (descending positions).
std::vector<int> bitPositions(const std::vector<int>& qubits, int n) {
  std::vector<int> positions;
  for (int q : qubits) positions.push_back(qclab::util::bitPosition(q, n));
  return positions;
}

/// Diagonal windows of every span-walk path on an n-qubit register:
/// suffixes, short runs (lowest position 0 or 1, not a suffix) and
/// one-group windows (holding qubit 0).
std::vector<std::vector<int>> diagonalWindows(int n) {
  std::vector<std::vector<int>> windows;
  for (int k = 1; k <= std::min(n, 4); ++k) {
    std::vector<int> suffix;
    for (int q = n - k; q < n; ++q) suffix.push_back(q);
    windows.push_back(suffix);
  }
  if (n >= 2) windows.push_back({n - 2});
  if (n >= 3) windows.push_back({0, n - 1});
  if (n >= 4) windows.push_back({1, n - 2});
  if (n >= 3) windows.push_back({0, n / 2});
  std::vector<int> top;
  for (int q = 0; q < std::min(n - 1, 12); ++q) top.push_back(q);
  if (!top.empty()) windows.push_back(top);
  return windows;
}

}  // namespace

TEST(SimdSpanKernels, DiagonalBlocksAgreeAtBothLevels) {
  using T = double;
  qclab::random::Rng rng(32);
  for (int n = 2; n <= 13; ++n) {
    const auto reference = qclab::test::randomState<T>(n, rng);
    for (const auto& qubits : diagonalWindows(n)) {
      std::vector<std::complex<T>> table(std::size_t{1} << qubits.size());
      for (auto& d : table) {
        d = std::polar(T(1), static_cast<T>(rng.uniform(-3, 3)));
      }
      auto viaK = reference;
      qclab::sim::applyDiagonalK(viaK, n, qubits, table);
      const auto positions = bitPositions(qubits, n);
      for (const SimdLevel level : kLevels) {
        const ScopedSimdLevel scoped(level);
        auto plain = reference;
        qclab::sim::applyDiagonalBlock(plain, n, qubits, table);
        qclab::test::expectStateNear(viaK, plain);
        // One span call over the whole register, and one per group.
        auto whole = reference;
        qclab::sim::simd::applyDiagonalRunsSpan(
            whole.data(), std::int64_t(whole.size()), positions, table,
            qclab::sim::activeSimdLevel());
        auto grouped = reference;
        const std::int64_t group = std::int64_t{2} << positions.front();
        for (std::int64_t g = 0; g < std::int64_t(grouped.size());
             g += group) {
          qclab::sim::simd::applyDiagonalRunsSpan(
              grouped.data() + g, group, positions, table,
              qclab::sim::activeSimdLevel());
        }
        EXPECT_TRUE(sameBits(plain, whole) && sameBits(plain, grouped))
            << "n=" << n << " window of " << qubits.size()
            << " from qubit " << qubits.front() << " level "
            << qclab::sim::simdLevelName(qclab::sim::activeSimdLevel());
      }
    }
  }
}

TEST(SimdSpanKernels, OneGroupDiagonalBlockIsThreadCountInvariant) {
#ifndef QCLAB_HAS_OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  using T = double;
  // n = 16 clears the parallel threshold; every window holds qubit 0, so
  // the block is one group and the team splits its runs.
  const int n = 16;
  qclab::random::Rng rng(33);
  const auto reference = qclab::test::randomState<T>(n, rng);
  const int originalThreads = omp_get_max_threads();
  for (const std::vector<int>& qubits :
       {std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
        std::vector<int>{0, 7, 15}, std::vector<int>{0, 14}}) {
    std::vector<std::complex<T>> table(std::size_t{1} << qubits.size());
    for (auto& d : table) {
      d = std::polar(T(1), static_cast<T>(rng.uniform(-3, 3)));
    }
    for (const SimdLevel level : kLevels) {
      const ScopedSimdLevel scoped(level);
      std::vector<std::complex<T>> first;
      for (int threads : {1, 2, 4}) {
        omp_set_num_threads(threads);
        auto state = reference;
        qclab::sim::applyDiagonalBlock(state, n, qubits, table);
        if (first.empty()) {
          first = state;
        } else {
          EXPECT_TRUE(sameBits(first, state))
              << threads << " threads, window of " << qubits.size();
        }
      }
    }
  }
  omp_set_num_threads(originalThreads);
#endif
}

// ---- fixed-capacity controlled-kernel buffer --------------------------

TEST(ControlledKernels, ManyControlsUseTheInlineBuffer) {
  using T = double;
  // 10 controls + target exercises deep insertion-sorted FixedBits.
  const int n = 12;
  qclab::random::Rng rng(21);
  auto state = qclab::test::randomState<T>(n, rng);
  auto viaKernel = state;

  std::vector<int> controls;
  std::vector<int> states;
  for (int q = 0; q < n - 1; ++q) {
    controls.push_back(q);
    states.push_back(1);
  }
  const int target = n - 1;
  const auto u = qclab::qgates::PauliX<T>(0).matrix();
  qclab::sim::applyControlled1(viaKernel, n, controls, states, target, u);

  // Reference: the controlled-X only exchanges the last two amplitudes.
  std::swap(state[state.size() - 2], state[state.size() - 1]);
  qclab::test::expectStateNear(state, viaKernel);
}
