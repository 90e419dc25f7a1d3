/// \file test_histogram.cpp
/// \brief Tests of the obs v2 additions: log2 latency histogram bucket
/// boundaries and percentile estimation, the per-thread sharded gate-kind
/// counters under concurrent recording, and live/high-water state-memory
/// accounting across branch spawn and prune.  Compiled in both obs modes;
/// the no-op expectations of QCLAB_OBS_DISABLED builds live at the end.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "qclab/qclab.hpp"

namespace {

using T = double;
using qclab::obs::HistogramSnapshot;
using qclab::sim::KernelPath;

#ifndef QCLAB_OBS_DISABLED

TEST(ObsHistogram, BucketBoundaries) {
  using qclab::obs::latencyBucketOf;
  EXPECT_EQ(latencyBucketOf(0), 0);   // zeros get their own bucket
  EXPECT_EQ(latencyBucketOf(1), 1);   // [1, 1]
  EXPECT_EQ(latencyBucketOf(2), 2);   // [2, 3]
  EXPECT_EQ(latencyBucketOf(3), 2);
  EXPECT_EQ(latencyBucketOf(4), 3);   // [4, 7]
  EXPECT_EQ(latencyBucketOf(1023), 10);
  EXPECT_EQ(latencyBucketOf(1024), 11);
  EXPECT_EQ(latencyBucketOf(std::numeric_limits<std::uint64_t>::max()),
            qclab::obs::kLatencyBuckets - 1);
}

TEST(ObsHistogram, RecordFillsTheRightBuckets) {
  qclab::obs::LatencyHistogram histogram;
  histogram.record(0);
  histogram.record(1);
  histogram.record(1);
  histogram.record(700);  // bucket 10: [512, 1023]
  histogram.record(std::numeric_limits<std::uint64_t>::max());

  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[10], 1u);
  EXPECT_EQ(snap.buckets[qclab::obs::kLatencyBuckets - 1], 1u);
  EXPECT_EQ(snap.sumNs,
            0u + 1u + 1u + 700u +
                std::numeric_limits<std::uint64_t>::max());
}

TEST(ObsHistogram, PercentilesInterpolateWithinBuckets) {
  qclab::obs::LatencyHistogram histogram;
  // 90 samples in bucket 7 ([64, 127]) and 10 in bucket 13 ([4096, 8191]).
  for (int i = 0; i < 90; ++i) histogram.record(100);
  for (int i = 0; i < 10; ++i) histogram.record(5000);

  const HistogramSnapshot snap = histogram.snapshot();
  const double p50 = snap.percentileNs(0.50);
  const double p90 = snap.percentileNs(0.90);
  const double p99 = snap.percentileNs(0.99);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 127.0);
  EXPECT_GE(p99, 4096.0);
  EXPECT_LE(p99, 8191.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(snap.meanNs(), (90.0 * 100.0 + 10.0 * 5000.0) / 100.0, 1e-9);
}

TEST(ObsHistogram, EmptyHistogramReportsZeros) {
  const qclab::obs::LatencyHistogram histogram;
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.percentileNs(0.50), 0.0);
  EXPECT_EQ(snap.meanNs(), 0.0);
}

TEST(ObsHistogram, PathTimerFeedsThePathHistogram) {
  auto& histograms = qclab::obs::latencyHistograms();
  histograms.reset();
  {
    const qclab::obs::PathTimer timer(KernelPath::kDense1);
  }
  EXPECT_EQ(histograms.histogram(KernelPath::kDense1).count(), 1u);
  EXPECT_EQ(histograms.histogram(KernelPath::kDenseK).count(), 0u);
  histograms.reset();
  EXPECT_EQ(histograms.histogram(KernelPath::kDense1).count(), 0u);
}

TEST(ObsHistogram, InstrumentedBackendRecordsLatencies) {
  qclab::obs::metrics().reset();
  qclab::obs::latencyHistograms().reset();

  qclab::QCircuit<T> circuit(3);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  circuit.push_back(qclab::qgates::RotationZ<T>(2, 0.4));
  const qclab::obs::InstrumentedBackend<T> backend;
  circuit.simulate("000", backend);

  // Applications are counted under the tier that did the work: on an
  // AVX2 machine the dense1/diagonal1 paths land in the kSimd* variants.
  const KernelPath dense1 =
      qclab::sim::simdCountedPath(KernelPath::kDense1, 1);
  const KernelPath diagonal1 =
      qclab::sim::simdCountedPath(KernelPath::kDiagonal1, 1);
  auto& histograms = qclab::obs::latencyHistograms();
  EXPECT_EQ(histograms.histogram(dense1).count(), 1u);
  EXPECT_EQ(histograms.histogram(KernelPath::kControlled1).count(), 1u);
  EXPECT_EQ(histograms.histogram(diagonal1).count(), 1u);
  // Per-path bytes feed the effective-bandwidth figures.
  EXPECT_GT(qclab::obs::metrics().bytesTouched(dense1), 0u);
}

TEST(ObsHistogram, FusionSweepsRecordFusedPathLatencies) {
  qclab::obs::metrics().reset();
  qclab::obs::latencyHistograms().reset();

  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::Hadamard<T>(1));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  qclab::SimulateOptions options;
  options.fusion = true;
  circuit.simulate("00", options);

  const auto& histograms = qclab::obs::latencyHistograms();
  EXPECT_GT(histograms.histogram(KernelPath::kFusedDenseK).count() +
                histograms.histogram(KernelPath::kFusedDiagonalK).count(),
            0u);
}

TEST(ObsShardedCounters, ConcurrentRecordingMergesExactly) {
  qclab::obs::ShardedCounters counters;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters, t] {
      const std::string own = "thread-" + std::to_string(t % 2);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counters.add("shared", 1);
        counters.add(own, 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto merged = counters.snapshot();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.at("shared"), kThreads * kPerThread);
  EXPECT_EQ(merged.at("thread-0"), kThreads / 2 * kPerThread);
  EXPECT_EQ(merged.at("thread-1"), kThreads / 2 * kPerThread);

  counters.reset();
  EXPECT_TRUE(counters.snapshot().empty());
  // Shards survive a reset: the same threads' cells keep counting (here
  // the main thread warms its own cell post-reset).
  counters.add("shared", 2);
  EXPECT_EQ(counters.snapshot().at("shared"), 2u);
}

TEST(ObsShardedCounters, MetricsGateKindsUnderConcurrency) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        metrics.countGate(KernelPath::kDense1, "h", 16);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(metrics.gateKinds().at("h"), kThreads * kPerThread);
  EXPECT_EQ(metrics.gateApplications(KernelPath::kDense1),
            kThreads * kPerThread);
  metrics.reset();
}

TEST(ObsMemory, HighWaterTracksBranchSpawnAndPrune) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();
  const std::uint64_t before = metrics.currentStateBytes();

  // 3 qubits: 8 amplitudes * 16 bytes = 128 bytes per branch state.
  const std::uint64_t branchBytes = 8 * sizeof(std::complex<T>);
  {
    qclab::QCircuit<T> circuit(3);
    circuit.push_back(qclab::qgates::Hadamard<T>(0));
    circuit.push_back(qclab::Measurement<T>(0));  // spawns a second branch
    circuit.push_back(qclab::Measurement<T>(0));  // prunes (deterministic)
    const auto simulation = circuit.simulate("000");
    ASSERT_EQ(simulation.nbBranches(), 2u);
    EXPECT_EQ(metrics.currentStateBytes(), before + 2 * branchBytes);
    EXPECT_GE(metrics.peakStateBytes(), before + 2 * branchBytes);
    EXPECT_EQ(metrics.branchSpawns(), 1u);
    EXPECT_EQ(metrics.branchPrunes(), 2u);
  }
  // Simulation destroyed: its branch states release their attribution.
  EXPECT_EQ(metrics.currentStateBytes(), before);
  EXPECT_GE(metrics.peakStateBytes(), before + 2 * branchBytes);
}

TEST(ObsMemory, MoveTransfersAttributionCopyAddsIt) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();
  const std::uint64_t before = metrics.currentStateBytes();
  const std::uint64_t stateBytes = 4 * sizeof(std::complex<T>);

  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  auto simulation = circuit.simulate("00");
  EXPECT_EQ(metrics.currentStateBytes(), before + stateBytes);

  auto moved = std::move(simulation);
  EXPECT_EQ(metrics.currentStateBytes(), before + stateBytes);

  {
    const auto copy = moved;  // NOLINT(performance-unnecessary-copy)
    EXPECT_EQ(metrics.currentStateBytes(), before + 2 * stateBytes);
  }
  EXPECT_EQ(metrics.currentStateBytes(), before + stateBytes);
}

TEST(ObsMemory, DensitySimulationAttributesMatrixBytes) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();
  const std::uint64_t before = metrics.peakStateBytes();

  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  const auto rho = qclab::noise::simulateDensity(circuit, "00");
  // 2 qubits: 16 density-matrix amplitudes * 16 bytes = 256 bytes peak.
  EXPECT_GE(metrics.peakStateBytes(),
            before + 16 * sizeof(std::complex<T>));
}

#else  // QCLAB_OBS_DISABLED

TEST(ObsDisabledV2, HistogramsAndMemoryAreInertNoOps) {
  auto& histograms = qclab::obs::latencyHistograms();
  histograms.record(KernelPath::kDense1, 1234);
  EXPECT_EQ(histograms.histogram(KernelPath::kDense1).count(), 0u);
  EXPECT_TRUE(histograms.histogram(KernelPath::kDense1).snapshot().empty());

  auto& metrics = qclab::obs::metrics();
  metrics.addStateBytes(4096);
  EXPECT_EQ(metrics.currentStateBytes(), 0u);
  EXPECT_EQ(metrics.peakStateBytes(), 0u);
  EXPECT_EQ(metrics.bytesTouched(KernelPath::kDense1), 0u);

  // Simulations still run (and their state buffers attribute nothing).
  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::Measurement<T>(0));
  const auto simulation = circuit.simulate("00");
  EXPECT_EQ(simulation.nbBranches(), 2u);
  EXPECT_EQ(metrics.currentStateBytes(), 0u);
}

#endif  // QCLAB_OBS_DISABLED

}  // namespace
