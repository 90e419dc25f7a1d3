/// \file test_trajectory.cpp
/// \brief Unit, determinism, and fusion property tests of the Monte Carlo
/// trajectory engine (noise/trajectory.hpp).
///
/// The determinism tests pin the engine's central contract: per-trajectory
/// jump() streams plus serial fixed-order reductions make the aggregate
/// result bit-identical for every OpenMP thread count and schedule, on
/// the per-gate path of gate noise and on the fused, cache-blocked path
/// of measurement-only noise alike.  The fusion tests pin the engine's
/// fusion rule: it fuses every noise-free gate run, and none under gate
/// noise.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

#include "qclab/qclab.hpp"
#include "test_helpers.hpp"

namespace qclab {
namespace {

using noise::KrausChannel;
using noise::NoiseModel;
using noise::TrajectoryOptions;
using noise::TrajectoryResult;
using noise::TrajectorySimulator;

std::vector<int> allQubits(int n) {
  std::vector<int> qubits(static_cast<std::size_t>(n));
  std::iota(qubits.begin(), qubits.end(), 0);
  return qubits;
}

/// A noisy test circuit mixing gates, a mid-circuit measurement, and a
/// reset, driven by `rng`.
QCircuit<double> randomNoisyCircuit(int nbQubits, random::Rng& rng) {
  QCircuit<double> circuit(nbQubits);
  test::addRandomGates(circuit, 6, rng);
  circuit.push_back(Measurement<double>(
      static_cast<int>(rng.uniformInt(nbQubits))));
  test::addRandomGates(circuit, 6, rng);
  if (rng.uniform() < 0.5) {
    circuit.push_back(Reset<double>(
        static_cast<int>(rng.uniformInt(nbQubits))));
    test::addRandomGates(circuit, 3, rng);
  }
  for (int q = 0; q < nbQubits; ++q) {
    circuit.push_back(Measurement<double>(q));
  }
  return circuit;
}

void expectBitIdentical(const TrajectoryResult<double>& a,
                        const TrajectoryResult<double>& b) {
  ASSERT_EQ(a.nbTrajectories(), b.nbTrajectories());
  EXPECT_TRUE(a.results() == b.results());
  EXPECT_TRUE(a.probabilities() == b.probabilities());
  EXPECT_TRUE(a.expectations() == b.expectations());
}

// ---- basic engine behavior --------------------------------------------

TEST(Trajectory, DeterministicCircuitGivesExactCounts) {
  QCircuit<double> circuit(3);
  circuit.push_back(qgates::PauliX<double>(0));
  for (int q = 0; q < 3; ++q) {
    circuit.push_back(Measurement<double>(q));
  }
  TrajectoryOptions options;
  options.nbTrajectories = 64;
  const TrajectorySimulator<double> simulator(circuit, {}, options);
  const auto result = simulator.run("000");
  EXPECT_EQ(result.nbTrajectories(), 64u);
  EXPECT_EQ(result.nbMeasurements(), 3u);
  const auto counts = result.counts();
  ASSERT_EQ(counts.size(), 8u);
  EXPECT_EQ(counts[4], 64u);  // outcome "100", MSB first
  const auto map = result.countsMap();
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.at("100"), 64u);
}

TEST(Trajectory, InitialBitstringIsRespected) {
  QCircuit<double> circuit(2);
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  TrajectoryOptions options;
  options.nbTrajectories = 16;
  const TrajectorySimulator<double> simulator(circuit, {}, options);
  EXPECT_EQ(simulator.run("01").countsMap().at("01"), 16u);
  EXPECT_EQ(simulator.run("10").countsMap().at("10"), 16u);
}

TEST(Trajectory, BellCountsAreFair) {
  QCircuit<double> circuit(2);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(qgates::CX<double>(0, 1));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  TrajectoryOptions options;
  options.seed = 5;
  options.nbTrajectories = 2000;
  const TrajectorySimulator<double> simulator(circuit, {}, options);
  const auto counts = simulator.run("00").counts();
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[0] + counts[3], 2000u);
  EXPECT_NEAR(static_cast<double>(counts[0]), 1000.0, 150.0);
}

TEST(Trajectory, NoiselessMarginalsMatchTheStateVector) {
  random::Rng rng(11);
  QCircuit<double> circuit(3);
  test::addRandomGates(circuit, 10, rng);
  const auto state = circuit.simulate("000").branches().front().state;

  TrajectoryOptions options;
  options.nbTrajectories = 4;  // noiseless: every trajectory is identical
  options.marginalQubits = allQubits(3);
  const TrajectorySimulator<double> simulator(circuit, {}, options);
  const auto probabilities = simulator.run("000").probabilities();
  ASSERT_EQ(probabilities.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(probabilities[i], std::norm(state[i]), test::tol<double>());
  }
}

TEST(Trajectory, ResetReinitializesTheQubit) {
  QCircuit<double> circuit(2);
  circuit.push_back(qgates::PauliX<double>(0));
  circuit.push_back(Reset<double>(0));
  circuit.push_back(Measurement<double>(0));
  TrajectoryOptions options;
  options.nbTrajectories = 32;
  const TrajectorySimulator<double> simulator(circuit, {}, options);
  EXPECT_EQ(simulator.run("00").countsMap().at("0"), 32u);
}

TEST(Trajectory, SampleCountsDrawsFromTheAveragedMarginal) {
  QCircuit<double> circuit(2);
  circuit.push_back(qgates::PauliX<double>(1));
  TrajectoryOptions options;
  options.nbTrajectories = 8;
  options.marginalQubits = allQubits(2);
  const TrajectorySimulator<double> simulator(circuit, {}, options);
  const auto result = simulator.run("00");
  const auto sampled = result.sampleCounts(1000, 3);
  ASSERT_EQ(sampled.size(), 4u);
  EXPECT_EQ(sampled[1], 1000u);  // |01> is certain
}

TEST(Trajectory, ExpectationTracksTheNoiseStrength) {
  // X then bit-flip gate noise with p = 1 flips back: <Z> = +1; with
  // p = 0 the X survives: <Z> = -1.
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::PauliX<double>(0));
  Observable<double> z(1);
  z.add("Z", 1.0);
  TrajectoryOptions options;
  options.nbTrajectories = 16;

  const TrajectorySimulator<double> certainFlip(
      circuit, NoiseModel<double>::bitFlip(1.0), options);
  EXPECT_NEAR(certainFlip.run("0", z).expectation(), 1.0,
              test::tol<double>());

  const TrajectorySimulator<double> noiseless(
      circuit, NoiseModel<double>::bitFlip(0.0), options);
  const auto result = noiseless.run("0", z);
  EXPECT_NEAR(result.expectation(), -1.0, test::tol<double>());
  EXPECT_EQ(result.expectations().size(), 16u);
}

TEST(Trajectory, DepolarizingShrinksTheExpectation) {
  // One X gate under depolarizing(p): <Z> averages to -(1 - p) as N grows.
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::PauliX<double>(0));
  Observable<double> z(1);
  z.add("Z", 1.0);
  TrajectoryOptions options;
  options.seed = 21;
  options.nbTrajectories = 4000;
  const TrajectorySimulator<double> simulator(
      circuit, NoiseModel<double>::depolarizing(0.2), options);
  EXPECT_NEAR(simulator.run("0", z).expectation(), -0.8, 0.03);
}

TEST(Trajectory, MeasurementNoiseFlipsRecordedOutcomes) {
  // Readout error on a deterministic |1>: outcome "0" shows up with
  // probability p10.
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::PauliX<double>(0));
  circuit.push_back(Measurement<double>(0));
  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::readout(0.0, 0.25);
  TrajectoryOptions options;
  options.seed = 9;
  options.nbTrajectories = 4000;
  const TrajectorySimulator<double> simulator(circuit, model, options);
  const auto counts = simulator.run("0").counts();
  EXPECT_NEAR(static_cast<double>(counts[0]), 1000.0, 120.0);
}

TEST(Trajectory, XBasisMeasurementNoiseActsInMeasurementFrame) {
  // |+> measured in the X basis records '+' (0) with probability 1 - p
  // under bit-flip readout noise; before the ordering fix the channel
  // commuted with the basis change and was a no-op on the distribution.
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0, 'x'));
  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::bitFlip(0.2);
  TrajectoryOptions options;
  options.seed = 17;
  options.nbTrajectories = 4000;
  const TrajectorySimulator<double> simulator(circuit, model, options);
  const auto counts = simulator.run("0").counts();
  EXPECT_NEAR(static_cast<double>(counts[1]) / 4000.0, 0.2, 0.03);
}

TEST(Trajectory, MeasurementRenormalizesByTheDrawnOutcomesWeight) {
  // (1 - 1e-13) X passes the unitarity check but leaves norm^2 2e-13
  // short; the measurement must divide by the drawn outcome's summed
  // weight, not by 1 - p0 = 1.
  using C = std::complex<double>;
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::MatrixGate1<double>(
      0, qgates::PauliX<double>(0).matrix() * C(1.0 - 1e-13)));
  circuit.push_back(Measurement<double>(0));
  TrajectoryOptions options;
  options.nbTrajectories = 1;
  const TrajectorySimulator<double> simulator(circuit, {}, options);
  const auto result =
      simulator.runFunctional("0", [](const std::vector<C>& state) {
        double normSq = 0.0;
        for (const C& amplitude : state) normSq += std::norm(amplitude);
        return normSq;
      });
  EXPECT_EQ(result.results()[0], "1");
  EXPECT_NEAR(result.expectations()[0], 1.0, 1e-15);
}

TEST(Trajectory, Validation) {
  QCircuit<double> circuit(2);
  circuit.push_back(qgates::Hadamard<double>(0));

  TrajectoryOptions zeroTrajectories;
  zeroTrajectories.nbTrajectories = 0;
  EXPECT_THROW(TrajectorySimulator<double>(circuit, {}, zeroTrajectories),
               InvalidArgumentError);

  TrajectoryOptions badMarginal;
  badMarginal.marginalQubits = {5};
  EXPECT_THROW(TrajectorySimulator<double>(circuit, {}, badMarginal),
               QubitRangeError);

  const TrajectorySimulator<double> simulator(circuit, {}, {});
  EXPECT_THROW(simulator.run("0"), InvalidArgumentError);
  EXPECT_THROW(simulator.run("0x"), InvalidArgumentError);
  EXPECT_THROW(simulator.run("00").probabilities(), InvalidArgumentError);
  EXPECT_THROW(simulator.run("00").counts(), InvalidArgumentError);
  EXPECT_THROW(simulator.run("00").expectation(), InvalidArgumentError);
}

// ---- determinism ------------------------------------------------------

TEST(TrajectoryDeterminism, SameSeedIsBitIdentical) {
  random::Rng rng(23);
  const auto circuit = randomNoisyCircuit(4, rng);
  NoiseModel<double> model = NoiseModel<double>::depolarizing(0.05);
  model.measurementNoise = KrausChannel<double>::readout(0.02);
  TrajectoryOptions options;
  options.seed = 99;
  options.nbTrajectories = 64;
  options.marginalQubits = allQubits(4);
  const TrajectorySimulator<double> simulator(circuit, model, options);
  expectBitIdentical(simulator.run("0000"), simulator.run("0000"));
}

TEST(TrajectoryDeterminism, DifferentSeedsDiffer) {
  random::Rng rng(29);
  const auto circuit = randomNoisyCircuit(3, rng);
  TrajectoryOptions a;
  a.seed = 1;
  a.nbTrajectories = 128;
  TrajectoryOptions b = a;
  b.seed = 2;
  const NoiseModel<double> model = NoiseModel<double>::depolarizing(0.2);
  const auto resultA =
      TrajectorySimulator<double>(circuit, model, a).run("000");
  const auto resultB =
      TrajectorySimulator<double>(circuit, model, b).run("000");
  EXPECT_NE(resultA.results(), resultB.results());
}

#ifdef QCLAB_HAS_OPENMP

/// Gate plus readout noise (per-gate path), and readout noise alone
/// (fused path).
std::vector<NoiseModel<double>> perGateAndFusedModels() {
  NoiseModel<double> gateNoise = NoiseModel<double>::bitFlip(0.1);
  gateNoise.measurementNoise = KrausChannel<double>::readout(0.05);
  NoiseModel<double> readoutOnly;
  readoutOnly.measurementNoise = KrausChannel<double>::readout(0.05);
  return {gateNoise, readoutOnly};
}

TEST(TrajectoryDeterminism, ThreadCountInvariance) {
  random::Rng rng(31);
  const auto circuit = randomNoisyCircuit(4, rng);
  for (const NoiseModel<double>& model : perGateAndFusedModels()) {
    SCOPED_TRACE(model.gateNoise ? "gate noise" : "readout noise only");
    std::vector<TrajectoryResult<double>> runs;
    for (int threads : {1, 2, 8}) {
      TrajectoryOptions options;
      options.seed = 7;
      options.nbTrajectories = 96;
      options.nbThreads = threads;
      options.marginalQubits = allQubits(4);
      const TrajectorySimulator<double> simulator(circuit, model, options);
      runs.push_back(simulator.run("0000"));
    }
    expectBitIdentical(runs[0], runs[1]);
    expectBitIdentical(runs[0], runs[2]);
  }
}

TEST(TrajectoryDeterminism, ObservableThreadCountInvariance) {
  // Each run evaluates a fresh observable, so its first expectation call
  // inside the workers forms the diagonal table.  No final measurement:
  // the X term reads a superposition.
  random::Rng rng(41);
  QCircuit<double> circuit(4);
  test::addRandomGates(circuit, 12, rng);
  circuit.push_back(Measurement<double>(1));
  test::addRandomGates(circuit, 6, rng);
  std::vector<TrajectoryResult<double>> runs;
  for (int threads : {1, 2, 8}) {
    Observable<double> observable(4);
    observable.add("ZZII", 0.7).add("IZIZ", -0.4).add("XIIX", 0.3);
    observable.add("IIII", 0.1);
    TrajectoryOptions options;
    options.seed = 13;
    options.nbTrajectories = 96;
    options.nbThreads = threads;
    options.marginalQubits = allQubits(4);
    const TrajectorySimulator<double> simulator(
        circuit, NoiseModel<double>::depolarizing(0.05), options);
    runs.push_back(simulator.run("0000", observable));
  }
  EXPECT_EQ(runs[0].expectations().size(), 96u);
  expectBitIdentical(runs[0], runs[1]);
  expectBitIdentical(runs[0], runs[2]);
}

TEST(TrajectoryDeterminism, BlockedPlanThreadCountInvariance) {
  // n = 17 exceeds one cache-blocking chunk, and every gate run acts on
  // qubits 3..16 inside the chunk window: each of the four runs replays
  // as one blocked sweep.
  const int n = 17;
  QCircuit<double> circuit(n);
  for (int round = 0; round < 4; ++round) {
    for (int q = 3; q < n; ++q) {
      circuit.push_back(qgates::RotationY<double>(q, 0.2 * (q + round)));
    }
    for (int q = 3; q + 1 < n; ++q) {
      circuit.push_back(qgates::CZ<double>(q, q + 1));
    }
    circuit.push_back(Measurement<double>(3 + 4 * round));
  }
  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::readout(0.05);

  const std::uint64_t blockedBefore =
      obs::metrics().gateApplications(sim::KernelPath::kBlocked);
  std::vector<TrajectoryResult<double>> runs;
  for (int threads : {1, 2, 4}) {
    TrajectoryOptions options;
    options.seed = 11;
    options.nbTrajectories = 8;
    options.nbThreads = threads;
    options.marginalQubits = {3, 7, 11, 15};
    const TrajectorySimulator<double> simulator(circuit, model, options);
    runs.push_back(simulator.run(std::string(n, '0')));
  }
  if (obs::kEnabled) {
    EXPECT_EQ(obs::metrics().gateApplications(sim::KernelPath::kBlocked) -
                  blockedBefore,
              3u * 8u * 4u);
  }
  expectBitIdentical(runs[0], runs[1]);
  expectBitIdentical(runs[0], runs[2]);
}

TEST(TrajectoryDeterminism, ScheduleInvariance) {
  random::Rng rng(37);
  const auto circuit = randomNoisyCircuit(3, rng);
  NoiseModel<double> readoutOnly;
  readoutOnly.measurementNoise = KrausChannel<double>::readout(0.1);

  omp_sched_t originalKind;
  int originalChunk;
  omp_get_schedule(&originalKind, &originalChunk);

  const std::pair<omp_sched_t, int> schedules[] = {
      {omp_sched_static, 0},
      {omp_sched_static, 1},
      {omp_sched_dynamic, 1},
      {omp_sched_guided, 2},
  };
  for (const NoiseModel<double>& model :
       {NoiseModel<double>::depolarizing(0.1), readoutOnly}) {
    SCOPED_TRACE(model.gateNoise ? "gate noise" : "readout noise only");
    std::vector<TrajectoryResult<double>> runs;
    for (const auto& [kind, chunk] : schedules) {
      omp_set_schedule(kind, chunk);
      TrajectoryOptions options;
      options.seed = 3;
      options.nbTrajectories = 64;
      options.nbThreads = 4;
      options.marginalQubits = allQubits(3);
      const TrajectorySimulator<double> simulator(circuit, model, options);
      runs.push_back(simulator.run("000"));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      expectBitIdentical(runs[0], runs[i]);
    }
  }
  omp_set_schedule(originalKind, originalChunk);
}

#endif  // QCLAB_HAS_OPENMP

// ---- fusion rule ------------------------------------------------------

TEST(TrajectoryFusion, MeasurementOnlyNoiseEngagesFusedBlocks) {
  // With no gate noise every gate run fuses, whatever the register size.
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  random::Rng rng(41);
  const auto circuit = randomNoisyCircuit(4, rng);
  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::readout(0.1);
  TrajectoryOptions options;
  options.seed = 13;
  options.nbTrajectories = 48;

  const std::uint64_t before = obs::metrics().fusionBlocks();
  TrajectorySimulator<double>(circuit, model, options).run("0000");
  EXPECT_GT(obs::metrics().fusionBlocks(), before);
}

TEST(TrajectoryFusion, GateNoiseAddsNoFusedBlocks) {
  // Gate noise samples a channel after every gate, which leaves no run to
  // merge: every gate goes through the kernel backend.
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  random::Rng rng(43);
  const auto circuit = randomNoisyCircuit(4, rng);
  NoiseModel<double> model = NoiseModel<double>::depolarizing(0.05);
  model.measurementNoise = KrausChannel<double>::readout(0.1);
  TrajectoryOptions options;
  options.seed = 13;
  options.nbTrajectories = 48;

  const std::uint64_t before = obs::metrics().fusionBlocks();
  TrajectorySimulator<double>(circuit, model, options).run("0000");
  EXPECT_EQ(obs::metrics().fusionBlocks(), before);
}

// ---- ownership --------------------------------------------------------

// The program points into the engine's own circuit copy: a copy would
// still point into its source's.
static_assert(!std::is_copy_constructible_v<TrajectorySimulator<double>>);
static_assert(!std::is_copy_assignable_v<TrajectorySimulator<double>>);

TEST(Trajectory, MovedSimulatorRunsAfterItsSourceIsGone) {
  random::Rng rng(47);
  const auto circuit = randomNoisyCircuit(3, rng);
  NoiseModel<double> model;
  model.measurementNoise = KrausChannel<double>::readout(0.1);
  TrajectoryOptions options;
  options.seed = 5;
  options.nbTrajectories = 16;
  options.marginalQubits = allQubits(3);
  const TrajectoryResult<double> expected =
      TrajectorySimulator<double>(circuit, model, options).run("000");

  auto source =
      std::make_unique<TrajectorySimulator<double>>(circuit, model, options);
  const TrajectorySimulator<double> moved(std::move(*source));
  source.reset();
  expectBitIdentical(moved.run("000"), expected);
}

// ---- observability ----------------------------------------------------

TEST(TrajectoryObs, CountersHistogramsAndMemoryAreRecorded) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs disabled at compile time";
  QCircuit<double> circuit(5);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));

  obs::metrics().reset();
  obs::latencyHistograms().reset();
  TrajectoryOptions options;
  options.nbTrajectories = 24;
  const TrajectorySimulator<double> simulator(
      circuit, NoiseModel<double>::depolarizing(0.1), options);
  simulator.run("00000");

  EXPECT_EQ(obs::metrics().trajectoryRuns(), 1u);
  EXPECT_EQ(obs::metrics().trajectoriesSimulated(), 24u);
  // depolarizing noise after the H: one channel application per
  // trajectory; measurement adds none (no measurement noise configured).
  EXPECT_EQ(obs::metrics().noiseChannelApplications(), 24u);
  const auto snapshot = obs::latencyHistograms()
                            .histogram(sim::KernelPath::kTrajectory)
                            .snapshot();
  EXPECT_EQ(snapshot.count, 24u);
  // Each worker thread attributed its 2^5-amplitude state buffer.
  EXPECT_GE(obs::metrics().peakStateBytes(),
            (std::uint64_t{1} << 5) * sizeof(std::complex<double>));
  EXPECT_EQ(obs::metrics().currentStateBytes(), 0u);
}

}  // namespace
}  // namespace qclab
