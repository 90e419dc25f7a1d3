/// \file test_state_buffer.cpp
/// \brief Tiered state memory tests: tier selection (options, env, auto
/// ladder), graceful heap fallback, value semantics across tiers,
/// static partition coverage, per-tier byte gauges, and bit-identity of
/// the mmap tier against the heap path across the
/// fusion/blocking/thread-count matrix.

#include <gtest/gtest.h>

#include <complex>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "qclab/noise/trajectory.hpp"
#include "qclab/qclab.hpp"
#include "test_helpers.hpp"

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

using qclab::sim::StateBuffer;
using qclab::sim::StateTier;
using qclab::sim::StateTierOptions;

namespace {

/// RAII guard keeping QCLAB_STATE_TIER / QCLAB_STATE_DIR out of the
/// other tests.
class TierEnvGuard {
 public:
  TierEnvGuard() {
    ::unsetenv("QCLAB_STATE_TIER");
    ::unsetenv("QCLAB_STATE_DIR");
  }
  ~TierEnvGuard() {
    ::unsetenv("QCLAB_STATE_TIER");
    ::unsetenv("QCLAB_STATE_DIR");
  }
};

StateTierOptions forced(StateTier tier) {
  StateTierOptions options;
  options.tier = tier;
  return options;
}

template <typename A, typename B>
bool bitIdentical(const A& a, const B& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

}  // namespace

// ---- static partition (the blocked executor's per-thread ranges) -------

TEST(StateBuffer, StaticPartitionCoversTheRangeContiguously) {
  for (const std::size_t total : {0u, 1u, 7u, 64u, 1000u}) {
    for (const int threads : {1, 2, 3, 8, 13}) {
      std::size_t expectedLo = 0;
      std::size_t sum = 0;
      std::size_t maxLen = 0, minLen = total + 1;
      for (int t = 0; t < threads; ++t) {
        const auto [lo, hi] = qclab::sim::staticPartition(total, threads, t);
        EXPECT_EQ(lo, expectedLo) << "gap at thread " << t;
        EXPECT_LE(lo, hi);
        expectedLo = hi;
        sum += hi - lo;
        maxLen = std::max(maxLen, hi - lo);
        minLen = std::min(minLen, hi - lo);
      }
      EXPECT_EQ(expectedLo, total);
      EXPECT_EQ(sum, total);
      // Even partition: lengths differ by at most one amplitude.
      EXPECT_LE(maxLen - minLen, 1u) << total << "/" << threads;
    }
  }
  // Degenerate thread counts get the whole range.
  const auto all = qclab::sim::staticPartition(42, 0, 0);
  EXPECT_EQ(all.first, 0u);
  EXPECT_EQ(all.second, 42u);
}

// ---- tier selection ----------------------------------------------------

TEST(StateBuffer, ExplicitTierRequestsAreHonored) {
  TierEnvGuard guard;
  const std::size_t dim = std::size_t{1} << 12;

  const auto heap = StateBuffer<double>::zeros(dim, forced(StateTier::kHeap));
  EXPECT_EQ(heap.tier(), StateTier::kHeap);
  EXPECT_EQ(heap.size(), dim);

  const auto mmap = StateBuffer<double>::zeros(dim, forced(StateTier::kMmap));
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_EQ(mmap.tier(), StateTier::kMmap);
#else
  EXPECT_EQ(mmap.tier(), StateTier::kHeap);
#endif
  EXPECT_EQ(mmap.size(), dim);

  // Every tier starts zeroed.
  for (const auto* buffer : {&heap, &mmap}) {
    for (std::size_t i = 0; i < dim; i += 97) {
      EXPECT_EQ((*buffer)[i], std::complex<double>(0));
    }
  }
}

TEST(StateBuffer, AutoLadderPicksBySize) {
  TierEnvGuard guard;
  StateTierOptions options;  // kAuto

  // Tiny states stay on the heap regardless of topology.
  EXPECT_EQ(qclab::sim::chooseStateTier(1 << 10, options), StateTier::kHeap);

  // Above the out-of-core threshold the ladder goes mmap.
  options.mmapMinBytes = 1 << 16;
  EXPECT_EQ(qclab::sim::chooseStateTier(1 << 20, options), StateTier::kMmap);

  // Below the mmap ceiling the state stays on the heap.
  options.mmapMinBytes = std::size_t{1} << 40;
  EXPECT_EQ(qclab::sim::chooseStateTier(1 << 20, options), StateTier::kHeap);

  // Explicit choice always wins over the ladder.
  options.tier = StateTier::kHeap;
  EXPECT_EQ(qclab::sim::chooseStateTier(std::size_t{1} << 40, options),
            StateTier::kHeap);
}

TEST(StateBuffer, EnvironmentTierOverride) {
  TierEnvGuard guard;

  ::setenv("QCLAB_STATE_TIER", "mmap", 1);
  EXPECT_EQ(qclab::sim::resolveStateTier(StateTier::kAuto), StateTier::kMmap);
  ::setenv("QCLAB_STATE_TIER", "heap", 1);
  EXPECT_EQ(qclab::sim::resolveStateTier(StateTier::kMmap), StateTier::kHeap);
  ::setenv("QCLAB_STATE_TIER", "auto", 1);
  EXPECT_EQ(qclab::sim::resolveStateTier(StateTier::kHeap), StateTier::kAuto);
  // Unknown values are ignored, "numa" included (there is no NUMA tier).
  ::setenv("QCLAB_STATE_TIER", "quantum-foam", 1);
  EXPECT_EQ(qclab::sim::resolveStateTier(StateTier::kHeap), StateTier::kHeap);
  ::setenv("QCLAB_STATE_TIER", "numa", 1);
  EXPECT_EQ(qclab::sim::resolveStateTier(StateTier::kAuto), StateTier::kAuto);
  ::unsetenv("QCLAB_STATE_TIER");

#if defined(__unix__) || defined(__APPLE__)
  ::setenv("QCLAB_STATE_TIER", "mmap", 1);
  const auto buffer = StateBuffer<double>::zeros(1 << 10);
  EXPECT_EQ(buffer.tier(), StateTier::kMmap);
  ::unsetenv("QCLAB_STATE_TIER");
#endif
}

TEST(StateBuffer, MmapFallsBackToHeapOnBadDirectory) {
  TierEnvGuard guard;
  StateTierOptions options = forced(StateTier::kMmap);
  options.directory = "/nonexistent/qclab-state-dir";
  const auto buffer = StateBuffer<double>::zeros(1 << 10, options);
  EXPECT_EQ(buffer.tier(), StateTier::kHeap);
  EXPECT_EQ(buffer.size(), std::size_t{1} << 10);

  // Same degradation through the environment knob.
  ::setenv("QCLAB_STATE_TIER", "mmap", 1);
  ::setenv("QCLAB_STATE_DIR", "/nonexistent/qclab-state-dir", 1);
  const auto viaEnv = StateBuffer<double>::zeros(1 << 10);
  EXPECT_EQ(viaEnv.tier(), StateTier::kHeap);
}

#if (defined(__unix__) || defined(__APPLE__)) && GTEST_HAS_DEATH_TEST
TEST(StateBuffer, MmapFallsBackToHeapWhenFtruncateFails) {
  TierEnvGuard guard;
  const std::size_t dim = std::size_t{1} << 16;  // 1 MiB of doubles
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The child caps its own file size at 4 KiB, so mkstemp succeeds and
  // ftruncate to 1 MiB fails with EFBIG (SIGXFSZ ignored): the forced
  // mmap request must degrade to a full, zeroed heap state and count
  // one fallback.
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit{};
        ::getrlimit(RLIMIT_FSIZE, &limit);
        limit.rlim_cur = 4096;
        ::setrlimit(RLIMIT_FSIZE, &limit);
        const std::uint64_t before = qclab::obs::metrics().stateTierFallbacks();
        const auto buffer =
            StateBuffer<double>::zeros(dim, forced(StateTier::kMmap));
        bool zeroed = true;
        for (std::size_t i = 0; i < buffer.size(); ++i) {
          zeroed = zeroed && buffer[i] == std::complex<double>(0);
        }
        const std::uint64_t fallbacks =
            qclab::obs::metrics().stateTierFallbacks() - before;
        std::fprintf(stderr, "tier=%s size=%zu zeroed=%d fallbacks=%llu\n",
                     qclab::sim::stateTierName(buffer.tier()), buffer.size(),
                     zeroed ? 1 : 0,
                     static_cast<unsigned long long>(fallbacks));
        const bool counted = !qclab::obs::kEnabled || fallbacks == 1;
        std::exit(buffer.tier() == StateTier::kHeap && buffer.size() == dim &&
                          zeroed && counted
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");

  // Without the limit the same request stays on the mmap tier.
  const auto control = StateBuffer<double>::zeros(dim, forced(StateTier::kMmap));
  EXPECT_EQ(control.tier(), StateTier::kMmap);
}
#endif

TEST(StateBuffer, ExplicitMmapThresholdHoldsBelowTheMeminfoFloor) {
  // Auto mode skips /proc/meminfo for small states, but an explicit
  // threshold keeps its exact meaning at any size.
  TierEnvGuard guard;
  StateTierOptions options;  // kAuto
  options.mmapMinBytes = 4096;
  EXPECT_EQ(qclab::sim::chooseStateTier(8192, options), StateTier::kMmap);
  EXPECT_EQ(qclab::sim::chooseStateTier(2048, options), StateTier::kHeap);
#if defined(__unix__) || defined(__APPLE__)
  const auto buffer = StateBuffer<double>::zeros(512, options);  // 8 KiB
  EXPECT_EQ(buffer.tier(), StateTier::kMmap);
#endif
}

TEST(StateBuffer, StateDirectoryPrecedence) {
  TierEnvGuard guard;
  StateTierOptions options;
  options.directory = "/explicit";
  EXPECT_EQ(qclab::sim::stateDirectory(options), "/explicit");
  options.directory.clear();
  ::setenv("QCLAB_STATE_DIR", "/from-env", 1);
  EXPECT_EQ(qclab::sim::stateDirectory(options), "/from-env");
  ::unsetenv("QCLAB_STATE_DIR");
}

// ---- value semantics ----------------------------------------------------

TEST(StateBuffer, CopyMoveAdoptAndTakeAcrossTiers) {
  TierEnvGuard guard;
  const std::size_t dim = 1 << 8;
  std::vector<std::complex<double>> reference(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    reference[i] = {static_cast<double>(i), -static_cast<double>(i)};
  }

  for (const StateTier tier : {StateTier::kHeap, StateTier::kMmap}) {
    StateBuffer<double> buffer = StateBuffer<double>::zeros(dim, forced(tier));
    std::memcpy(buffer.data(), reference.data(),
                dim * sizeof(std::complex<double>));

    // Copy preserves the tier (when available) and the amplitudes.
    StateBuffer<double> copy(buffer);
    EXPECT_EQ(copy.tier(), buffer.tier());
    EXPECT_TRUE(bitIdentical(copy, reference));
    EXPECT_TRUE(copy == buffer);

    // Move steals the storage and empties the source.
    StateBuffer<double> moved(std::move(copy));
    EXPECT_TRUE(bitIdentical(moved, reference));
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)

    // toVector reads any tier; takeVector empties the buffer.
    EXPECT_TRUE(bitIdentical(moved.toVector(), reference));
    const auto taken = moved.takeVector();
    EXPECT_TRUE(bitIdentical(taken, reference));
    EXPECT_TRUE(moved.empty());
  }

  // Adopting a vector lands on the heap tier; vector() only serves heap.
  StateBuffer<double> adopted(reference);
  EXPECT_EQ(adopted.tier(), StateTier::kHeap);
  EXPECT_TRUE(bitIdentical(adopted.vector(), reference));
  const auto mmapBuffer =
      StateBuffer<double>::zeros(dim, forced(StateTier::kMmap));
  if (mmapBuffer.tier() == StateTier::kMmap) {
    EXPECT_THROW(mmapBuffer.vector(), qclab::InvalidArgumentError);
  }
}

// ---- simulation integration ----------------------------------------------

TEST(StateBuffer, SimulateOnEveryTierIsBitIdenticalToHeap) {
  TierEnvGuard guard;
  using T = double;
  const int n = 9;
  const auto circuit = qclab::test::randomCircuit<T>(n, 50, 777u);

  // The heap reference, plain and fused+blocked.
  std::vector<qclab::SimulateOptions> variants;
  {
    qclab::SimulateOptions plain;
    variants.push_back(plain);
    qclab::SimulateOptions fused;
    fused.fusion = true;
    variants.push_back(fused);
    qclab::SimulateOptions blocked;
    blocked.fusion = true;
    blocked.fusionOptions.blockQubits = 3;
    variants.push_back(blocked);
  }

  for (std::size_t v = 0; v < variants.size(); ++v) {
    qclab::SimulateOptions heapOptions = variants[v];
    heapOptions.stateTier = forced(StateTier::kHeap);
    const auto reference =
        circuit.simulate(std::string(n, '0'), heapOptions);
    qclab::SimulateOptions options = variants[v];
    options.stateTier = forced(StateTier::kMmap);
    const auto tiered = circuit.simulate(std::string(n, '0'), options);
    ASSERT_EQ(reference.nbBranches(), tiered.nbBranches());
    for (std::size_t b = 0; b < reference.nbBranches(); ++b) {
      EXPECT_EQ(reference.result(b), tiered.result(b));
      EXPECT_TRUE(bitIdentical(reference.branches()[b].state,
                               tiered.branches()[b].state))
          << "variant " << v << " branch " << b;
    }
  }
}

TEST(StateBuffer, TieredBranchSpawnAndPruneMatchesHeap) {
  TierEnvGuard guard;
  using T = double;
  // Hadamard + measurement spawns two branches; the mid-circuit reset
  // prunes.  All of it must behave identically on every tier.
  qclab::QCircuit<T> circuit(4);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  circuit.push_back(qclab::Measurement<T>(0));
  circuit.push_back(qclab::Reset<T>(1));
  circuit.push_back(qclab::qgates::Hadamard<T>(2));
  circuit.push_back(qclab::Measurement<T>(2));

  qclab::SimulateOptions heapOptions;
  heapOptions.stateTier = forced(StateTier::kHeap);
  const auto reference = circuit.simulate("0000", heapOptions);
  qclab::SimulateOptions options;
  options.stateTier = forced(StateTier::kMmap);
  const auto tiered = circuit.simulate("0000", options);
  ASSERT_EQ(reference.nbBranches(), tiered.nbBranches());
  for (std::size_t b = 0; b < reference.nbBranches(); ++b) {
    EXPECT_EQ(reference.result(b), tiered.result(b));
    EXPECT_EQ(reference.probability(b), tiered.probability(b));
    EXPECT_TRUE(bitIdentical(reference.branches()[b].state,
                             tiered.branches()[b].state));
  }
}

#ifdef QCLAB_HAS_OPENMP
TEST(StateBuffer, TiersStayBitIdenticalAcrossThreadCounts) {
  TierEnvGuard guard;
  using T = double;
  const int n = 8;
  const auto circuit = qclab::test::randomCircuit<T>(n, 40, 4242u);
  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.blockQubits = 3;
  options.stateTier = forced(StateTier::kHeap);

  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto reference = circuit.simulate(std::string(n, '0'), options);
  for (const int threads : {2, 3}) {
    omp_set_num_threads(threads);
    for (const StateTier tier : {StateTier::kHeap, StateTier::kMmap}) {
      options.stateTier = forced(tier);
      const auto run = circuit.simulate(std::string(n, '0'), options);
      EXPECT_TRUE(bitIdentical(reference.branches()[0].state,
                               run.branches()[0].state))
          << "threads=" << threads << " tier "
          << qclab::sim::stateTierName(tier);
    }
  }
  omp_set_num_threads(saved);
}
#endif

TEST(StateBuffer, BlockedMmapRunMatchesHeapBitForBit) {
  TierEnvGuard guard;
  using T = double;
  // Gates confined to the low window of an 8-qubit register form a
  // blocked run; its chunk walk over a mapped state must leave exactly
  // the amplitudes it leaves on the heap.
  qclab::QCircuit<T> circuit(8);
  circuit.push_back(qclab::qgates::Hadamard<T>(5));
  circuit.push_back(qclab::qgates::CX<T>(5, 6));
  circuit.push_back(qclab::qgates::Hadamard<T>(7));
  circuit.push_back(qclab::qgates::CX<T>(6, 7));

  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.maxQubits = 2;
  options.fusionOptions.blockQubits = 3;
  options.stateTier = forced(StateTier::kHeap);
  const auto reference = circuit.simulate("00000000", options);

  auto& metrics = qclab::obs::metrics();
  metrics.reset();
  options.stateTier = forced(StateTier::kMmap);
  const auto simulation = circuit.simulate("00000000", options);
  if (simulation.stateBuffer(0).tier() != StateTier::kMmap) {
    GTEST_SKIP() << "mmap tier unavailable";
  }
  EXPECT_TRUE(bitIdentical(reference.stateBuffer(0),
                           simulation.stateBuffer(0)));
  if (qclab::obs::kEnabled) {
    EXPECT_GE(metrics.gateApplications(qclab::sim::KernelPath::kBlocked), 1u);
    EXPECT_GT(metrics.tierMappedBytes(StateTier::kMmap), 0u);
  }
}

TEST(StateBuffer, TierGaugesTrackLiveAllocations) {
  if (!qclab::obs::kEnabled) GTEST_SKIP() << "obs disabled in this build";
  TierEnvGuard guard;
  auto& metrics = qclab::obs::metrics();
  const std::uint64_t mappedBefore =
      metrics.tierMappedBytes(StateTier::kMmap);
  const std::uint64_t heapBefore = metrics.tierMappedBytes(StateTier::kHeap);
  {
    const auto heap =
        StateBuffer<double>::zeros(1 << 10, forced(StateTier::kHeap));
    EXPECT_EQ(metrics.tierMappedBytes(StateTier::kHeap),
              heapBefore + (std::uint64_t{1} << 10) * sizeof(std::complex<double>));
    const auto mapped =
        StateBuffer<double>::zeros(1 << 10, forced(StateTier::kMmap));
    if (mapped.tier() == StateTier::kMmap) {
      EXPECT_EQ(metrics.tierMappedBytes(StateTier::kMmap),
                mappedBefore +
                    (std::uint64_t{1} << 10) * sizeof(std::complex<double>));
    }
  }
  // Gauges return to their baseline when the buffers die.
  EXPECT_EQ(metrics.tierMappedBytes(StateTier::kMmap), mappedBefore);
  EXPECT_EQ(metrics.tierMappedBytes(StateTier::kHeap), heapBefore);
}

// ---- stateDim: registers no state can address ---------------------------

TEST(StateDim, FormsTwoToTheNWhereAVectorCanHoldIt) {
  EXPECT_EQ(qclab::sim::stateDim<double>(0), 1u);
  EXPECT_EQ(qclab::sim::stateDim<float>(20), std::size_t{1} << 20);
  for (const int n : {-1, 60, 63, 64, 100}) {
    EXPECT_THROW(qclab::sim::stateDim<double>(n), qclab::InvalidArgumentError)
        << n;
    EXPECT_THROW(qclab::sim::stateDim<float>(n), qclab::InvalidArgumentError)
        << n;
  }
}

template <typename T>
void expectSimulateRejects(int n) {
  // A T gate: no dispatch route takes it, so the statevector path runs.
  qclab::QCircuit<T> circuit(n);
  circuit.push_back(qclab::qgates::TGate<T>(0));
  EXPECT_THROW(circuit.simulate(std::string(static_cast<std::size_t>(n), '0')),
               qclab::InvalidArgumentError)
      << n;
}

TEST(StateDim, SimulateRejectsRegistersBeforeAllocating) {
  for (const int n : {60, 63, 64}) {
    expectSimulateRejects<double>(n);
    expectSimulateRejects<float>(n);
  }
}

TEST(StateDim, BatchAndTrajectoryEnginesRejectOnTheCallingThread) {
  qclab::QCircuit<double> circuit(60);
  circuit.push_back(qclab::qgates::RotationZ<double>(0, 0.5));
  EXPECT_THROW(qclab::sim::BatchedSimulation<double>{circuit},
               qclab::InvalidArgumentError);
  qclab::noise::TrajectoryOptions options;
  options.nbTrajectories = 4;
  const qclab::noise::TrajectorySimulator<double> trajectories(circuit, {},
                                                               options);
  EXPECT_THROW(trajectories.run(std::string(60, '0')),
               qclab::InvalidArgumentError);
}

TEST(StateDim, FullCliffordRegistersStillRunOnTheTableau) {
  // GHZ on 100 qubits: the tableau samples it without any 2^n state.
  qclab::QCircuit<double> circuit(100);
  circuit.push_back(qclab::qgates::Hadamard<double>(0));
  for (int q = 0; q + 1 < 100; ++q) {
    circuit.push_back(qclab::qgates::CX<double>(q, q + 1));
  }
  for (int q = 0; q < 100; ++q) {
    circuit.push_back(qclab::Measurement<double>(q));
  }
  const auto counts = qclab::sim::dispatchSampleCounts(circuit, 64, 7);
  EXPECT_FALSE(counts.empty());
  for (const auto& [outcome, count] : counts) {
    EXPECT_TRUE(outcome == std::string(100, '0') ||
                outcome == std::string(100, '1'));
  }
}
