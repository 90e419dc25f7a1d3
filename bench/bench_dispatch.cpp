/// \file bench_dispatch.cpp
/// \brief Adaptive-dispatch benchmark: stabilizer-routed QEC syndrome rounds
/// at 50-200 qubits (far beyond statevector reach), the hybrid
/// Clifford-prefix path on a mixed Clifford+T workload, and the headline
/// acceptance number — the measured tableau cost of a 100-qubit Clifford
/// QEC round against a statevector cost model calibrated at 20 qubits and
/// extrapolated by the 2^(100-20) state-size factor.
///
/// Prints the whole run as one BENCH_*.json-shaped object (obs::Report)
/// on stdout; `--obs-json <path>` additionally writes it to a file.

#include <cmath>
#include <cstdio>
#include <string>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

namespace {

using T = double;

/// One repetition-code syndrome-extraction round on `n` qubits: data on
/// even wires, ancillas on odd wires.  Each ancilla is entangled with its
/// two data neighbours, measured, and reset — fully Clifford, so the
/// dispatcher routes it to the tableau backend at any width.
qclab::QCircuit<T> qecRound(const int n, const int rounds,
                            const bool withDataPrep) {
  qclab::QCircuit<T> circuit(n);
  if (withDataPrep) {
    // Superpose the data qubits so syndrome outcomes are non-trivial.
    for (int q = 0; q < n; q += 2) circuit.push_back(qclab::qgates::Hadamard<T>(q));
  }
  for (int r = 0; r < rounds; ++r) {
    for (int a = 1; a < n; a += 2) {
      circuit.push_back(qclab::qgates::CX<T>(a - 1, a));
      if (a + 1 < n) circuit.push_back(qclab::qgates::CX<T>(a + 1, a));
    }
    for (int a = 1; a < n; a += 2) {
      circuit.push_back(qclab::Measurement<T>(a));
      circuit.push_back(qclab::Reset<T>(a));
    }
  }
  return circuit;
}

/// Gate count of one round (CX only; measure/reset excluded so the
/// statevector model below stays conservative).
double qecGateCount(const int n, const int rounds) {
  double gates = 0;
  for (int a = 1; a < n; a += 2) gates += (a + 1 < n) ? 2 : 1;
  return gates * rounds;
}

/// Mixed Clifford+T workload: a long Clifford prefix (GHZ ladder + S/CZ
/// mixing), one T layer, and a short Clifford tail — the hybrid path runs
/// the prefix on the tableau, converts once, and finishes on the
/// statevector pipeline.
qclab::QCircuit<T> mixedCliffordT(const int n) {
  qclab::QCircuit<T> circuit(n);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  for (int q = 1; q < n; ++q) circuit.push_back(qclab::qgates::CX<T>(q - 1, q));
  for (int q = 0; q < n; ++q) circuit.push_back(qclab::qgates::SGate<T>(q));
  for (int q = 1; q < n; q += 2) circuit.push_back(qclab::qgates::CZ<T>(q - 1, q));
  for (int q = 0; q < n; q += 4) circuit.push_back(qclab::qgates::TGate<T>(q));
  for (int q = 0; q < n; q += 2) circuit.push_back(qclab::qgates::Hadamard<T>(q));
  return circuit;
}

double timeSampled(const qclab::QCircuit<T>& circuit,
                   const std::uint64_t shots) {
  std::uint64_t seed = 1;
  return qclab::benchutil::timeNsPerOp([&] {
    auto counts = qclab::sim::dispatchSampleCounts(circuit, shots, seed++);
    (void)counts;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::rejectUnknownArguments(argc, argv);
  qclab::benchutil::initObsRun();
  qclab::obs::Report report("bench_dispatch");

  constexpr std::uint64_t kShots = 256;
  constexpr int kRounds = 3;

  // Stabilizer-routed syndrome sampling at widths no statevector holds.
  for (const int n : {50, 100, 200}) {
    const auto circuit = qecRound(n, kRounds, true);
    const double ns = timeSampled(circuit, kShots);
    report.add("qec-sample/n=" + std::to_string(n) + "/shots=256", ns,
               "ns/op");
  }

  // Hybrid Clifford-prefix routing on a mixed Clifford+T circuit vs the
  // plain statevector path for the same workload.
  {
    const int n = 20;
    const auto circuit = mixedCliffordT(n);
    const std::string bits(static_cast<std::size_t>(n), '0');
    qclab::SimulateOptions autoRoute;
    autoRoute.dispatch = qclab::sim::DispatchMode::kAuto;
    qclab::SimulateOptions svOnly;
    const double autoNs = qclab::benchutil::timeNsPerOp(
        [&] { auto sim = circuit.simulate(bits, autoRoute); });
    const double svNs = qclab::benchutil::timeNsPerOp(
        [&] { auto sim = circuit.simulate(bits, svOnly); });
    report.add("mixed-auto/n=20", autoNs, "ns/op");
    report.add("mixed-statevector/n=20", svNs, "ns/op");
    report.add("mixed-auto-vs-sv/n=20", autoNs > 0 ? svNs / autoNs : 0.0,
               "x");
  }

  // Acceptance metric: measured tableau cost of one 100-qubit QEC-round
  // shot vs a statevector cost model.  Calibrate ns per gate-amplitude on
  // a 20-qubit measurement-free Clifford round, then extrapolate by gate
  // count and the 2^(100-20) state-size factor.  The model ignores the
  // branch forking that 150 mid-circuit measurements would force on the
  // statevector path, so it understates the real cost — the recorded
  // speedup is a floor.
  {
    const int calibN = 20;
    const auto calibCircuit = qecRound(calibN, kRounds, false);
    const auto initial = qclab::basisState<T>(
        std::string(static_cast<std::size_t>(calibN), '0'));
    qclab::SimulateOptions svOnly;
    const double calibNs = qclab::benchutil::timeNsPerOp(
        [&] { auto sim = calibCircuit.simulate(initial, svOnly); });
    const double calibGates = qecGateCount(calibN, kRounds);
    const double perGateAmpNs =
        calibNs / (calibGates * static_cast<double>(1ULL << calibN));
    report.add("sv-calibration/n=20", calibNs, "ns/op");

    const int bigN = 100;
    const auto bigCircuit = qecRound(bigN, kRounds, true);
    const double perShotNs = timeSampled(bigCircuit, kShots) /
                             static_cast<double>(kShots);
    const double modelNs = perGateAmpNs * qecGateCount(bigN, kRounds) *
                           std::pow(2.0, bigN);
    report.add("qec-shot-measured/n=100", perShotNs, "ns/op");
    report.add("speedup-vs-sv-model/n=100",
               perShotNs > 0 ? modelNs / perShotNs : 0.0, "x");
  }

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
