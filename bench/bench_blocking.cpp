/// \file bench_blocking.cpp
/// \brief Cache-blocking experiment: 20+ qubit end-to-end simulation with
/// fusion off, fusion without blocking, and fusion + the cache-blocked
/// executor.  At these sizes the state (16-32 MB) no longer fits in L2,
/// so every plain sweep streams it from DRAM; blocking keeps a 2^b-chunk
/// resident while a whole run of low-window blocks is applied, and the
/// effective-GB/s attribution shows the sweeps it amortized away.
///
/// Prints the whole run as one BENCH_*.json-shaped object (obs::Report)
/// on stdout; `--obs-json <path>` additionally writes it to a file.

#include <cstdio>
#include <string>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

namespace {

using T = double;

/// ns/op of simulating `circuit` from |0...0>.
double timeSimulate(const qclab::QCircuit<T>& circuit,
                    const qclab::SimulateOptions& options) {
  const auto initial = qclab::basisState<T>(
      std::string(static_cast<std::size_t>(circuit.nbQubits()), '0'));
  return qclab::benchutil::timeNsPerOp(
      [&] { auto simulation = circuit.simulate(initial, options); });
}

/// Benchmarks one workload across the three executor modes and records the
/// blocked executor's obs attribution (runs, bytes, effective GB/s).
void benchWorkload(qclab::obs::Report& report, const std::string& name,
                   const qclab::QCircuit<T>& circuit) {
  // The default FusionOptions keep dense blocks small (1-2 qubits), so the
  // chunk kernels stay cheap and the sweep memory-bound -- the regime
  // blocking is built for.  Large dense-k blocks are compute-bound and
  // would mask the bandwidth saving.
  qclab::SimulateOptions unfused;
  unfused.fusion = false;
  qclab::SimulateOptions fusedPlain;
  fusedPlain.fusion = true;
  fusedPlain.fusionOptions.blocking = false;
  qclab::SimulateOptions fusedBlocked;
  fusedBlocked.fusion = true;

  const double plainNs = timeSimulate(circuit, unfused);
  const double fusedNs = timeSimulate(circuit, fusedPlain);
  const double blockedNs = timeSimulate(circuit, fusedBlocked);
  report.add("unfused/" + name, plainNs, "ns/op");
  report.add("fused/" + name, fusedNs, "ns/op");
  report.add("blocked/" + name, blockedNs, "ns/op");
  report.add("blocked-vs-unfused/" + name,
             blockedNs > 0 ? plainNs / blockedNs : 0.0, "x");
  report.add("blocked-vs-fused/" + name,
             blockedNs > 0 ? fusedNs / blockedNs : 0.0, "x");

  if (!qclab::obs::kEnabled) return;
  // One clean blocked run for the kBlocked attribution: bytes are counted
  // as one read+write stream of the state per blocked run (the roofline
  // numerator), so bytes/time is the run's effective bandwidth — it
  // exceeds DRAM bandwidth exactly when blocking kept chunks cache-hot.
  auto& metrics = qclab::obs::metrics();
  auto& histograms = qclab::obs::latencyHistograms();
  const std::uint64_t runsBefore =
      metrics.gateApplications(qclab::sim::KernelPath::kBlocked);
  const std::uint64_t bytesBefore =
      metrics.bytesTouched(qclab::sim::KernelPath::kBlocked);
  const double nsBefore =
      histograms.histogram(qclab::sim::KernelPath::kBlocked).sumNs();
  {
    const auto initial = qclab::basisState<T>(
        std::string(static_cast<std::size_t>(circuit.nbQubits()), '0'));
    auto simulation = circuit.simulate(initial, fusedBlocked);
  }
  const double runs = static_cast<double>(
      metrics.gateApplications(qclab::sim::KernelPath::kBlocked) -
      runsBefore);
  const double bytes = static_cast<double>(
      metrics.bytesTouched(qclab::sim::KernelPath::kBlocked) - bytesBefore);
  const double ns =
      histograms.histogram(qclab::sim::KernelPath::kBlocked).sumNs() -
      nsBefore;
  report.add("blocked-runs/" + name, runs, "runs");
  report.add("blocked-effective-bw/" + name, ns > 0 ? bytes / ns : 0.0,
             "GB/s");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::rejectUnknownArguments(argc, argv);
  qclab::benchutil::initObsRun();
  qclab::obs::Report report("bench_blocking");

  benchWorkload(report, "qft/n=20", qclab::algorithms::qft<T>(20));
  benchWorkload(report, "ghz/n=21", qclab::algorithms::ghz<T>(21));
  benchWorkload(report, "trotter-ising/n=20",
                qclab::algorithms::trotterIsing<T>(20, T(1), T(0.7), T(1), 4));

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
