/// \file bench_fusion.cpp
/// \brief Gate-fusion experiment: fused vs unfused simulation of the QFT
/// and a Trotterized Ising evolution.  Fusion merges runs of adjacent
/// gates into <= k-qubit blocks, so the full-state sweep count drops by
/// the gates-per-block factor; the timings show how much of that survives
/// as wall-clock speedup once the per-block arithmetic is paid.  The
/// `default/` rows time a bare SimulateOptions{}, which fuses from
/// sim::kDefaultFusionMinQubits qubits up, so they should match
/// `unfused/` below that size and `fused/` from it on.
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

/// ns/op of simulating `circuit` from |0...0> under `options`.
double timeSimulate(const qclab::QCircuit<T>& circuit,
                    const qclab::SimulateOptions& options) {
  const auto initial = qclab::basisState<T>(
      std::string(static_cast<std::size_t>(circuit.nbQubits()), '0'));
  return qclab::benchutil::timeNsPerOp(
      [&] { auto simulation = circuit.simulate(initial, options); });
}

/// Benchmarks one workload unfused, fused, and with the default options,
/// and records the scheduler's sweep statistics (one extra fused run feeds
/// the fusion counters).
void benchWorkload(qclab::obs::Report& report, const std::string& name,
                   const qclab::QCircuit<T>& circuit) {
  qclab::SimulateOptions unfused;
  unfused.fusion = false;
  qclab::SimulateOptions fused;
  fused.fusion = true;

  report.add("unfused/" + name, timeSimulate(circuit, unfused), "ns/op");
  report.add("fused/" + name, timeSimulate(circuit, fused), "ns/op");
  report.add("default/" + name,
             timeSimulate(circuit, qclab::SimulateOptions{}), "ns/op");

  // One clean fused run to read the scheduler stats for this workload.
  auto& metrics = qclab::obs::metrics();
  const std::uint64_t gatesInBefore = metrics.fusionGatesIn();
  const std::uint64_t blocksBefore = metrics.fusionBlocks();
  {
    const auto initial = qclab::basisState<T>(
        std::string(static_cast<std::size_t>(circuit.nbQubits()), '0'));
    auto simulation = circuit.simulate(initial, fused);
  }
  const double gatesIn =
      static_cast<double>(metrics.fusionGatesIn() - gatesInBefore);
  const double blocksOut =
      static_cast<double>(metrics.fusionBlocks() - blocksBefore);
  report.add("sweeps-unfused/" + name, gatesIn, "sweeps");
  report.add("sweeps-fused/" + name, blocksOut, "sweeps");
  report.add("sweep-reduction/" + name,
             blocksOut > 0 ? gatesIn / blocksOut : 0.0, "x");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::initObsRun(obsJsonPath);
  qclab::obs::Report report("bench_fusion");

  for (int n = 8; n <= 14; n += 2) {
    benchWorkload(report, "qft/n=" + std::to_string(n),
                  qclab::algorithms::qft<T>(n));
  }
  for (int n = 8; n <= 14; n += 2) {
    benchWorkload(
        report, "trotter-ising/n=" + std::to_string(n),
        qclab::algorithms::trotterIsing<T>(n, T(1), T(0.7), T(1), 10));
  }

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
