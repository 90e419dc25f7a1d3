/// \file test_simd.cpp
/// \brief SIMD tier tests: level detection/override plumbing plus
/// differential fuzzing of the vectorized kernels against the scalar
/// tier, for float and double, over every target position (unit-stride
/// runs shorter and longer than a vector register, and states on both
/// sides of the OpenMP threshold).

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "qclab/qclab.hpp"
#include "test_helpers.hpp"

using qclab::sim::KernelPath;
using qclab::sim::SimdLevel;

namespace {

/// Forces a dispatch level for one scope and restores the previous one.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(qclab::sim::setSimdLevel(level)) {}
  ~ScopedSimdLevel() { qclab::sim::setSimdLevel(previous_); }

 private:
  SimdLevel previous_;
};

bool avx2Available() {
  return qclab::sim::detectedSimdLevel() == SimdLevel::kAvx2;
}

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
  for (int n : {2, 3, 5, 13}) {
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
        auto via2Scalar = reference;
        qclab::sim::applyK(viaK, n, {q0, q1}, u);
        {
          const ScopedSimdLevel level(SimdLevel::kScalar);
          qclab::sim::apply2(via2Scalar, n, q0, q1, u);
        }
        qclab::test::expectStateNear(viaK, via2Scalar);
        if (avx2Available()) {
          auto via2Vector = reference;
          const ScopedSimdLevel level(SimdLevel::kAvx2);
          qclab::sim::apply2(via2Vector, n, q0, q1, u);
          qclab::test::expectStateNear(viaK, via2Vector);
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
