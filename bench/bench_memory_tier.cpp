/// \file bench_memory_tier.cpp
/// \brief Tiered state memory experiment: GHZ and QFT simulated with the
/// state on the heap tier and on the out-of-core mmap tier
/// (sim/state_buffer.hpp).  The mmap rows are backed by an unlinked
/// temporary file that the kernel pages in and out; the executors see
/// the same data()/size() on both tiers.
///
/// The default register size keeps CI fast; QCLAB_BENCH_TIER_QUBITS
/// raises it (26-30+) to reproduce the out-of-core regime where the
/// state no longer fits comfortably in RAM.  QCLAB_STATE_DIR relocates
/// the backing files (a fast local disk beats a network tmp).
///
/// Prints the whole run as one BENCH_*.json-shaped object (obs::Report)
/// on stdout; `--obs-json <path>` additionally writes it to a file.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

namespace {

using T = double;
using qclab::sim::StateTier;

/// Register size: QCLAB_BENCH_TIER_QUBITS, default 20 (16 MiB state —
/// big enough to stream, small enough for the CI gate).
int benchQubits() {
  if (const char* env = std::getenv("QCLAB_BENCH_TIER_QUBITS")) {
    const int n = std::atoi(env);
    if (n >= 4 && n <= 40) return n;
  }
  return 20;
}

qclab::SimulateOptions tierOptions(StateTier tier) {
  qclab::SimulateOptions options;
  options.fusion = true;
  options.stateTier.tier = tier;
  return options;
}

/// ns/op of simulating `circuit` from |0...0> with the state on `tier`.
double timeSimulate(const qclab::QCircuit<T>& circuit, StateTier tier) {
  const std::string bits(static_cast<std::size_t>(circuit.nbQubits()), '0');
  const auto options = tierOptions(tier);
  return qclab::benchutil::timeNsPerOp(
      [&] { auto simulation = circuit.simulate(bits, options); });
}

/// Benchmarks one workload on both tiers.
void benchWorkload(qclab::obs::Report& report, const std::string& name,
                   const qclab::QCircuit<T>& circuit) {
  const double dim =
      static_cast<double>(std::size_t{1} << circuit.nbQubits());

  const double heapNs = timeSimulate(circuit, StateTier::kHeap);
  report.add("heap/" + name, heapNs, "ns/op");

  const double mmapNs = timeSimulate(circuit, StateTier::kMmap);
  report.add("mmap/" + name, mmapNs, "ns/op");
  report.add("mmap-vs-heap/" + name, mmapNs > 0 ? heapNs / mmapNs : 0.0, "x");
  // Amplitudes per second through the out-of-core tier — the throughput
  // figure a 30-qubit run is judged by.
  report.add("mmap-throughput/" + name,
             mmapNs > 0 ? dim / mmapNs : 0.0, "Gamp/s");

  // Bit-identity of the mmap run against the heap reference (one clean
  // run each): the tiers must be indistinguishable in content.
  {
    const std::string bits(static_cast<std::size_t>(circuit.nbQubits()), '0');
    const auto heap = circuit.simulate(bits, tierOptions(StateTier::kHeap));
    const auto mmap = circuit.simulate(bits, tierOptions(StateTier::kMmap));
    const auto& a = heap.branches().front().state;
    const auto& b = mmap.branches().front().state;
    const bool identical =
        a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
    report.add("mmap-bit-identical/" + name, identical ? 1.0 : 0.0, "bool");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::initObsRun();
  qclab::obs::Report report("bench_memory_tier");

  const int n = benchQubits();
  benchWorkload(report, "ghz/n=" + std::to_string(n),
                qclab::algorithms::ghz<T>(n));
  benchWorkload(report, "qft/n=" + std::to_string(n),
                qclab::algorithms::qft<T>(n));

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
