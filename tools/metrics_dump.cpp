/// \file metrics_dump.cpp
/// \brief OpenMetrics exposition CLI of the observability layer.
///
/// Runs a workload through the metered pipeline and prints the resulting
/// registries in OpenMetrics text format (obs/openmetrics.hpp) — the same
/// surface the ROADMAP's circuit-as-a-service daemon will expose over
/// HTTP, usable today for piping into promtool or a textfile collector:
///
///   qclab_metrics_dump                        # built-in demo workload
///   qclab_metrics_dump --qasm circuit.qasm    # parse + simulate a file
///   qclab_metrics_dump --delta                # per-workload increments
///   qclab_metrics_dump --out metrics.prom     # write instead of stdout
///
/// --delta demonstrates the scrape API: a snapshot is captured before the
/// workload and the rendered exposition carries only the increments since
/// (snapshotDelta), the pattern a periodic scraper follows.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "qclab/qclab.hpp"

namespace {

using T = double;

int usage() {
  std::fprintf(stderr,
               "usage: qclab_metrics_dump [--qasm <file>] [--out <file>] "
               "[--delta] [--shots <count>]\n");
  return 2;
}

/// Built-in demo: a fused GHZ simulate, a sampled Grover run, and a small
/// batched parameter sweep — enough to populate counters, histograms,
/// stages and the qclab_batch_* families across several kernel paths.
void demoWorkload(std::uint64_t shots) {
  const qclab::obs::InstrumentedBackend<T> backend;
  {
    qclab::QCircuit<T> circuit(12);
    circuit.push_back(std::make_unique<qclab::qgates::Hadamard<T>>(0));
    for (int q = 1; q < 12; ++q) {
      circuit.push_back(
          std::make_unique<qclab::qgates::CNOT<T>>(q - 1, q));
    }
    qclab::SimulateOptions options;
    options.fusion = true;
    auto simulation = circuit.simulate(std::string(12, '0'), options,
                                       backend);
  }
  {
    const auto grover = qclab::algorithms::grover<T>(
        "111", qclab::algorithms::groverIterations(3));
    auto simulation = grover.simulate("000", backend);
    auto counts = simulation.countsMap(shots);
  }
  {
    qclab::QCircuit<T> sweep(4);
    for (int q = 0; q < 4; ++q) {
      sweep.push_back(std::make_unique<qclab::qgates::RotationY<T>>(q, 0.0));
    }
    for (int q = 1; q < 4; ++q) {
      sweep.push_back(std::make_unique<qclab::qgates::CNOT<T>>(q - 1, q));
    }
    std::vector<std::vector<T>> parameterSets;
    for (int member = 0; member < 4; ++member) {
      parameterSets.push_back(
          {0.1 * member, 0.2 * member, 0.3 * member, 0.4 * member});
    }
    auto simulations = sweep.simulateBatch(parameterSets);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string qasmPath;
  std::string outPath;
  bool delta = false;
  std::uint64_t shots = 1024;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--qasm" && i + 1 < argc) {
      qasmPath = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      outPath = argv[++i];
    } else if (arg == "--delta") {
      delta = true;
    } else if (arg == "--shots" && i + 1 < argc) {
      shots = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }

  // A crashing workload (bad QASM input, kernel bug) should still leave a
  // qclab-crash-<pid>.json behind for diagnosis.
  qclab::obs::installCrashHandlers();
  const qclab::obs::ObsSnapshot before = qclab::obs::captureSnapshot();

  if (qasmPath.empty()) {
    demoWorkload(shots);
  } else {
    std::ifstream file(qasmPath);
    if (!file) {
      std::fprintf(stderr, "error: cannot read %s\n", qasmPath.c_str());
      return 1;
    }
    std::ostringstream source;
    source << file.rdbuf();
    try {
      const auto circuit = qclab::io::parseQasm<T>(source.str());
      const qclab::obs::InstrumentedBackend<T> backend;
      auto simulation = circuit.simulate(
          std::string(static_cast<std::size_t>(circuit.nbQubits()), '0'),
          backend);
      auto counts = simulation.countsMap(shots);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s: %s\n", qasmPath.c_str(),
                   error.what());
      return 1;
    }
  }

  const std::string exposition =
      delta ? qclab::obs::renderOpenMetrics(qclab::obs::snapshotDelta(before))
            : qclab::obs::renderOpenMetrics();

  if (outPath.empty()) {
    std::fputs(exposition.c_str(), stdout);
    return 0;
  }
  std::ofstream out(outPath);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", outPath.c_str());
    return 1;
  }
  out << exposition;
  return 0;
}
