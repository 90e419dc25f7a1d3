/// \file test_blocking.cpp
/// \brief Cache-blocked executor tests: chunk sizing, schedule grouping,
/// bit-identity of blocked vs plain fusion sweeps, random-circuit fuzz
/// against the unfused simulator (float and double), mid-circuit
/// measurement flush, and kBlocked obs attribution.

#include <gtest/gtest.h>

#include <complex>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "qclab/qclab.hpp"
#include "test_helpers.hpp"

using qclab::sim::BlockingOptions;
using qclab::sim::KernelPath;
using qclab::sim::SimdLevel;

namespace {

/// buildBlockSchedule only reads `.qubits`; a bare stub keeps the
/// schedule tests independent of the fusion scheduler.
struct StubBlock {
  std::vector<int> qubits;
};

/// A fusion-enabled SimulateOptions with an explicit chunk size (small
/// enough to trigger blocking on test-sized registers).
qclab::SimulateOptions blockedOptions(int blockQubits) {
  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.blockQubits = blockQubits;
  return options;
}

qclab::SimulateOptions unblockedOptions() {
  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.blocking = false;
  return options;
}

}  // namespace

// ---- chunk sizing -----------------------------------------------------

TEST(Blocking, AutoBlockQubitsHalvesTheL2) {
  // 2^b amplitudes must fill at most half the assumed L2.
  EXPECT_EQ(qclab::sim::autoBlockQubits<double>(std::size_t{1} << 20), 15);
  EXPECT_EQ(qclab::sim::autoBlockQubits<float>(std::size_t{1} << 20), 16);
  EXPECT_EQ(qclab::sim::autoBlockQubits<double>(std::size_t{1} << 19), 14);
}

TEST(Blocking, ScheduleSizesChunksByTheActualScalarType) {
  // Regression: buildBlockSchedule used to size chunks as if every state
  // were double, wasting half the L2 window for float states.  A float
  // amplitude is 8 bytes, so the same L2 budget fits one more qubit.
  const std::vector<StubBlock> blocks = {{{5}}, {{6, 7}}, {{7}}, {{6}}};
  BlockingOptions options;
  options.l2Bytes = std::size_t{1} << 8;  // double: b = 3, float: b = 4
  const auto viaDouble =
      qclab::sim::buildBlockSchedule<double>(blocks, 8, options);
  const auto viaFloat =
      qclab::sim::buildBlockSchedule<float>(blocks, 8, options);
  EXPECT_EQ(viaDouble.blockQubits, 3);
  EXPECT_EQ(viaFloat.blockQubits, 4);
  // The bare (untyped) call keeps its historical double sizing.
  EXPECT_EQ(qclab::sim::buildBlockSchedule(blocks, 8, options).blockQubits, 3);
}

// ---- environment overrides (QCLAB_L2_BYTES / QCLAB_BLOCK_QUBITS) ------

TEST(Blocking, EnvironmentOverridesBlockingOptions) {
  BlockingOptions defaults;

  ::setenv("QCLAB_L2_BYTES", "524288", 1);
  EXPECT_EQ(qclab::sim::resolveBlockingOptions(defaults).l2Bytes,
            std::size_t{1} << 19);
  ::setenv("QCLAB_BLOCK_QUBITS", "7", 1);
  EXPECT_EQ(qclab::sim::resolveBlockingOptions(defaults).blockQubits, 7);

  // Malformed or out-of-range values are ignored, not fatal.
  ::setenv("QCLAB_L2_BYTES", "garbage", 1);
  ::setenv("QCLAB_BLOCK_QUBITS", "-3", 1);
  const auto resolved = qclab::sim::resolveBlockingOptions(defaults);
  EXPECT_EQ(resolved.l2Bytes, defaults.l2Bytes);
  EXPECT_EQ(resolved.blockQubits, defaults.blockQubits);

  ::unsetenv("QCLAB_L2_BYTES");
  ::unsetenv("QCLAB_BLOCK_QUBITS");
  const auto untouched = qclab::sim::resolveBlockingOptions(defaults);
  EXPECT_EQ(untouched.l2Bytes, defaults.l2Bytes);
  EXPECT_EQ(untouched.blockQubits, defaults.blockQubits);
}

TEST(Blocking, EnvironmentBlockQubitsReachesTheSchedule) {
  const std::vector<StubBlock> blocks = {{{5}}, {{6, 7}}, {{7}}, {{6}}};
  BlockingOptions options;
  options.blockQubits = 4;
  ::setenv("QCLAB_BLOCK_QUBITS", "3", 1);
  const auto schedule = qclab::sim::buildBlockSchedule(blocks, 8, options);
  ::unsetenv("QCLAB_BLOCK_QUBITS");
  EXPECT_EQ(schedule.blockQubits, 3);
}

// ---- schedule grouping ------------------------------------------------

TEST(Blocking, ScheduleGroupsConsecutiveLowPositionRuns) {
  // n = 8, b = 4: blockable gates live on qubits >= 4 (bit positions < 4).
  const std::vector<StubBlock> blocks = {
      {{5}}, {{6, 7}},  // blockable run of 2
      {{0}},            // full-sweep block
      {{4}}, {{7}},     // blockable run of 2
  };
  BlockingOptions options;
  options.blockQubits = 4;
  const auto schedule = qclab::sim::buildBlockSchedule(blocks, 8, options);

  EXPECT_EQ(schedule.blockQubits, 4);
  ASSERT_EQ(schedule.items.size(), 3u);
  EXPECT_TRUE(schedule.items[0].blocked);
  EXPECT_EQ(schedule.items[0].first, 0u);
  EXPECT_EQ(schedule.items[0].count, 2u);
  EXPECT_FALSE(schedule.items[1].blocked);
  EXPECT_EQ(schedule.items[1].count, 1u);
  EXPECT_TRUE(schedule.items[2].blocked);
  EXPECT_EQ(schedule.items[2].first, 3u);
  EXPECT_EQ(schedule.items[2].count, 2u);
  EXPECT_EQ(schedule.blockedRuns(), 2u);
}

TEST(Blocking, ShortRunsAndEscapingBlocksStayPlain) {
  BlockingOptions options;
  options.blockQubits = 4;

  // A lone blockable block gains nothing: the schedule stays empty.
  const std::vector<StubBlock> lone = {{{7}}, {{0}}, {{1}}};
  EXPECT_TRUE(qclab::sim::buildBlockSchedule(lone, 8, options).items.empty());

  // A block straddling the window boundary (qubit 3 has position 4)
  // breaks the run.
  const std::vector<StubBlock> straddle = {{{5}}, {{3, 7}}, {{6}}};
  EXPECT_TRUE(
      qclab::sim::buildBlockSchedule(straddle, 8, options).items.empty());

  // Disabled, or whole state inside one chunk: no schedule.
  const std::vector<StubBlock> run = {{{6}}, {{7}}};
  options.enabled = false;
  EXPECT_TRUE(qclab::sim::buildBlockSchedule(run, 8, options).items.empty());
  options.enabled = true;
  options.blockQubits = 8;
  EXPECT_TRUE(qclab::sim::buildBlockSchedule(run, 8, options).items.empty());
}

TEST(Blocking, FusionPlanCarriesTheSchedule) {
  using T = double;
  // All gates on qubits 4..7 of an 8-qubit register fuse into low-window
  // blocks; maxQubits=2 forces several blocks so a run can form.
  qclab::QCircuit<T> circuit(8);
  circuit.push_back(qclab::qgates::Hadamard<T>(4));
  circuit.push_back(qclab::qgates::CX<T>(4, 5));
  circuit.push_back(qclab::qgates::Hadamard<T>(6));
  circuit.push_back(qclab::qgates::CX<T>(6, 7));
  circuit.push_back(qclab::qgates::RotationZZ<T>(5, 6, 0.3));

  std::vector<qclab::sim::GateRef<T>> refs;
  for (auto it = circuit.begin(); it != circuit.end(); ++it) {
    refs.push_back({static_cast<const qclab::qgates::QGate<T>*>(it->get()), 0});
  }
  qclab::sim::FusionOptions options;
  options.maxQubits = 2;
  options.blockQubits = 4;
  const auto plan = qclab::sim::fuseGates(refs, 8, options);
  ASSERT_GE(plan.blocks.size(), 2u);
  EXPECT_GE(plan.schedule.blockedRuns(), 1u);

  options.blocking = false;
  const auto plain = qclab::sim::fuseGates(refs, 8, options);
  EXPECT_TRUE(plain.schedule.items.empty());
}

// ---- correctness ------------------------------------------------------

template <typename T>
class BlockingDifferential : public ::testing::Test {};
using Scalars = ::testing::Types<float, double>;
TYPED_TEST_SUITE(BlockingDifferential, Scalars);

TYPED_TEST(BlockingDifferential, BlockedSweepsAreBitIdenticalToPlain) {
  using T = TypeParam;
  // Same kernels, same order, same chunk-closed index transforms: the
  // blocked executor must reproduce the plain fusion sweeps exactly.
  for (int n : {5, 8, 11}) {
    auto circuit = qclab::test::randomCircuit<T>(
        n, 40, 500u + static_cast<unsigned>(n));
    const auto plain =
        circuit.simulate(std::string(n, '0'), unblockedOptions());
    const auto blocked =
        circuit.simulate(std::string(n, '0'), blockedOptions(3));
    ASSERT_EQ(plain.nbBranches(), blocked.nbBranches());
    const auto& a = plain.state(0);
    const auto& b = blocked.state(0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "amplitude " << i << " (n=" << n << ")";
    }
  }
}

TYPED_TEST(BlockingDifferential, EveryBlockQubitsIsBitIdenticalToPlain) {
  using T = TypeParam;
  // Sweep the whole chunk-size range: every blockQubits in 1..n must
  // reproduce the plain (unblocked) fusion sweep bit for bit — same
  // kernels, same order, only the loop nest differs.
  for (int n : {4, 7, 10}) {
    const auto circuit = qclab::test::randomCircuit<T>(
        n, 45, 1300u + static_cast<unsigned>(n));
    const auto plain =
        circuit.simulate(std::string(n, '0'), unblockedOptions());
    const auto& a = plain.state(0);
    for (int blockQubits = 1; blockQubits <= n; ++blockQubits) {
      const auto blocked =
          circuit.simulate(std::string(n, '0'), blockedOptions(blockQubits));
      ASSERT_EQ(plain.nbBranches(), blocked.nbBranches());
      const auto& b = blocked.state(0);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            a.size() * sizeof(std::complex<T>)),
                0)
          << "n=" << n << " blockQubits=" << blockQubits;
    }
  }
}

TYPED_TEST(BlockingDifferential, RandomCircuitsMatchUnfusedSimulation) {
  using T = TypeParam;
  for (int n = 2; n <= 12; n += 2) {
    for (int blockQubits : {1, 2, 4}) {
      if (blockQubits >= n) continue;
      const auto circuit = qclab::test::randomCircuit<T>(
          n, 35, 900u + static_cast<unsigned>(n + 31 * blockQubits));
      qclab::SimulateOptions unfused;
      unfused.fusion = false;
      const auto reference = circuit.simulate(std::string(n, '0'), unfused);
      const auto blocked =
          circuit.simulate(std::string(n, '0'), blockedOptions(blockQubits));
      ASSERT_EQ(reference.nbBranches(), blocked.nbBranches());
      // Fusion reorders the floating-point products; tolerance compare.
      qclab::test::expectStateNear(reference.state(0), blocked.state(0),
                                   T(8) * qclab::test::tol<T>());
    }
  }
}

TYPED_TEST(BlockingDifferential, MidCircuitMeasurementFlushesTheRun) {
  using T = TypeParam;
  // Gates on the blockable window, a measurement branch point, then more
  // gates: the measurement must flush (and close) the open blocked run.
  qclab::QCircuit<T> circuit(6);
  circuit.push_back(qclab::qgates::Hadamard<T>(4));
  circuit.push_back(qclab::qgates::CX<T>(4, 5));
  circuit.push_back(qclab::qgates::RotationY<T>(5, 0.7));
  circuit.push_back(qclab::Measurement<T>(4));
  circuit.push_back(qclab::qgates::Hadamard<T>(5));
  circuit.push_back(qclab::qgates::CX<T>(3, 4));
  circuit.push_back(qclab::qgates::RotationZ<T>(5, 0.4));

  const auto reference = circuit.simulate("000000");
  const auto blocked = circuit.simulate("000000", blockedOptions(2));
  ASSERT_EQ(reference.nbBranches(), blocked.nbBranches());
  for (std::size_t b = 0; b < reference.nbBranches(); ++b) {
    EXPECT_EQ(reference.result(b), blocked.result(b));
    EXPECT_NEAR(reference.probability(b), blocked.probability(b),
                qclab::test::tol<T>());
    qclab::test::expectStateNear(reference.state(b), blocked.state(b),
                                 T(8) * qclab::test::tol<T>());
  }
}

TEST(Blocking, ControlledGatesInsideTheWindowStayCorrect) {
  using T = double;
  // Controlled + multi-control gates restricted to the window exercise
  // the compiled kDenseK chunk path (controls make 3-qubit blocks).
  qclab::QCircuit<T> circuit(7);
  circuit.push_back(qclab::qgates::Hadamard<T>(4));
  circuit.push_back(qclab::qgates::Hadamard<T>(5));
  circuit.push_back(qclab::qgates::MCX<T>({4, 5}, 6, {1, 1}));
  circuit.push_back(qclab::qgates::CPhase<T>(5, 6, 0.9));
  circuit.push_back(qclab::qgates::MCX<T>({4, 6}, 5, {0, 1}));

  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.maxQubits = 3;
  options.fusionOptions.blockQubits = 3;
  const auto reference = circuit.simulate("0000000");
  const auto blocked = circuit.simulate("0000000", options);
  qclab::test::expectStateNear(reference.state(0), blocked.state(0),
                               8 * qclab::test::tol<double>());
}

// ---- obs attribution --------------------------------------------------

TEST(Blocking, BlockedSweepsCountUnderTheBlockedPath) {
  if (!qclab::obs::kEnabled) GTEST_SKIP() << "obs disabled in this build";
  using T = double;
  auto& metrics = qclab::obs::metrics();
  metrics.reset();
  qclab::obs::latencyHistograms().reset();

  qclab::QCircuit<T> circuit(8);
  circuit.push_back(qclab::qgates::Hadamard<T>(5));
  circuit.push_back(qclab::qgates::CX<T>(5, 6));
  circuit.push_back(qclab::qgates::Hadamard<T>(7));
  circuit.push_back(qclab::qgates::CX<T>(6, 7));

  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.maxQubits = 2;
  options.fusionOptions.blockQubits = 3;
  circuit.simulate("00000000", options);

  EXPECT_GE(metrics.gateApplications(KernelPath::kBlocked), 1u);
  // One streamed sweep's worth of bytes per blocked run (the roofline
  // numerator for the effective-GB/s attribution).
  const std::uint64_t stateBytes =
      (std::uint64_t{1} << 8) * sizeof(std::complex<T>);
  EXPECT_EQ(metrics.bytesTouched(KernelPath::kBlocked),
            metrics.gateApplications(KernelPath::kBlocked) * 2 * stateBytes);
  EXPECT_GE(
      qclab::obs::latencyHistograms().histogram(KernelPath::kBlocked).count(),
      1u);
}
