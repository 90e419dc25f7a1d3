/// \file bench_memory_tier.cpp
/// \brief Tiered state memory experiment: GHZ and QFT simulated with the
/// state on the heap tier, the NUMA first-touch tier, and the out-of-core
/// mmap tier (sim/state_buffer.hpp).  On a single-socket box the NUMA
/// rows are skipped (reported via "numa-nodes"); the mmap rows always
/// run — backed by an unlinked temporary file, they exercise the
/// schedule-driven madvise prefetch walk whose counters the report
/// carries.
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

/// Benchmarks one workload across the available tiers.
void benchWorkload(qclab::obs::Report& report, const std::string& name,
                   const qclab::QCircuit<T>& circuit, bool multiSocket) {
  const double dim =
      static_cast<double>(std::size_t{1} << circuit.nbQubits());

  const double heapNs = timeSimulate(circuit, StateTier::kHeap);
  report.add("heap/" + name, heapNs, "ns/op");

  if (multiSocket) {
    // First-touch placement only differentiates itself across sockets;
    // single-node boxes skip the row (reported via "numa-nodes").
    const double numaNs = timeSimulate(circuit, StateTier::kNuma);
    report.add("numa/" + name, numaNs, "ns/op");
    report.add("numa-vs-heap/" + name, numaNs > 0 ? heapNs / numaNs : 0.0,
               "x");
  }

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
  qclab::benchutil::initObsRun(obsJsonPath);
  qclab::obs::Report report("bench_memory_tier");

  const int n = benchQubits();
  const int nodes = qclab::sim::numaNodeCount();
  const bool multiSocket = nodes > 1;
  report.add("numa-nodes", static_cast<double>(nodes), "nodes");
  if (!multiSocket) {
    std::fprintf(stderr,
                 "note: single NUMA node detected — numa tier rows "
                 "skipped (heap and numa placement coincide)\n");
  }

  benchWorkload(report, "ghz/n=" + std::to_string(n),
                qclab::algorithms::ghz<T>(n), multiSocket);
  benchWorkload(report, "qft/n=" + std::to_string(n),
                qclab::algorithms::qft<T>(n), multiSocket);

  if (qclab::obs::kEnabled) {
    // Lifetime prefetch-walk counters of the mmap runs above.
    const auto& metrics = qclab::obs::metrics();
    report.add("prefetch-issued",
               static_cast<double>(metrics.prefetchIssued()), "granules");
    report.add("prefetch-hits",
               static_cast<double>(metrics.prefetchHits()), "granules");
    report.add("prefetch-retired",
               static_cast<double>(metrics.prefetchRetired()), "granules");
  }

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
