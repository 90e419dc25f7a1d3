/// \file bench_trajectory.cpp
/// \brief Monte Carlo trajectory experiment: stochastic unravelling of a
/// noisy circuit as N independent state-vector runs.  A density-matrix
/// simulation stores 4^n amplitudes, so 20+ qubits are out of reach; the
/// trajectory engine keeps 2^n per worker and trades memory for sampling
/// noise.  The timings report ns per trajectory for a 20-qubit GHZ chain
/// under depolarizing gate noise, plus a measurement-heavy readout
/// workload at moderate width, whose noise-free gate runs the engine
/// fuses.
///
/// Prints the whole run as one BENCH_*.json-shaped object (obs::Report)
/// on stdout; `--obs-json <path>` additionally writes it to a file.

#include <cstdio>
#include <string>
#include <vector>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

namespace {

using T = double;

/// GHZ chain on n qubits with a terminal measurement on qubit 0.
qclab::QCircuit<T> ghzCircuit(int n) {
  qclab::QCircuit<T> circuit(n);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  for (int q = 1; q < n; ++q) {
    circuit.push_back(qclab::qgates::CX<T>(q - 1, q));
  }
  circuit.push_back(qclab::Measurement<T>(0));
  return circuit;
}

/// Layered rotation circuit measured on every qubit — measurement-noise
/// heavy, with noise-free gate runs that genuinely fuse.
qclab::QCircuit<T> readoutCircuit(int n, int layers) {
  qclab::QCircuit<T> circuit(n);
  for (int layer = 0; layer < layers; ++layer) {
    for (int q = 0; q < n; ++q) {
      circuit.push_back(qclab::qgates::RotationY<T>(q, T(0.3) * (layer + 1)));
    }
    for (int q = 0; q + 1 < n; ++q) {
      circuit.push_back(qclab::qgates::CZ<T>(q, q + 1));
    }
  }
  for (int q = 0; q < n; ++q) {
    circuit.push_back(qclab::Measurement<T>(q));
  }
  return circuit;
}

/// ns per trajectory of a full trajectory-ensemble run.
double timeTrajectories(const qclab::QCircuit<T>& circuit,
                        const qclab::noise::NoiseModel<T>& model,
                        const qclab::noise::TrajectoryOptions& options) {
  const std::string zeros(static_cast<std::size_t>(circuit.nbQubits()), '0');
  const qclab::noise::TrajectorySimulator<T> simulator(circuit, model,
                                                       options);
  const double nsPerRun = qclab::benchutil::timeNsPerOp(
      [&] { auto result = simulator.run(zeros); });
  return nsPerRun / static_cast<double>(options.nbTrajectories);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::initObsRun();
  qclab::obs::Report report("bench_trajectory");

  // 20+ qubit GHZ under depolarizing gate noise: the regime where the
  // 4^n density matrix is unrepresentable but 2^n trajectories fit.
  for (int n = 18; n <= 20; ++n) {
    qclab::noise::NoiseModel<T> model;
    model.gateNoise = qclab::noise::KrausChannel<T>::depolarizing(T(1e-3));
    qclab::noise::TrajectoryOptions options;
    options.seed = 2026;
    options.nbTrajectories = 4;
    report.add("ghz-depolarizing/n=" + std::to_string(n),
               timeTrajectories(ghzCircuit(n), model, options),
               "ns/trajectory");
  }

  // Measurement-only readout noise at moderate width: gate runs between
  // measurements are noise-free, so the engine replays fused plans.
  {
    qclab::noise::NoiseModel<T> model;
    model.measurementNoise = qclab::noise::KrausChannel<T>::readout(T(0.02));
    qclab::noise::TrajectoryOptions options;
    options.seed = 2026;
    options.nbTrajectories = 16;
    report.add("fused/readout/n=12",
               timeTrajectories(readoutCircuit(12, 3), model, options),
               "ns/trajectory");
  }

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
