/// \file observability.cpp
/// \brief Instrumenting a simulation with qclab::obs (README
/// "Observability"): run Grover search through InstrumentedBackend, print
/// the text report, and export
///   - grover_trace.json   — Chrome trace_event view of the flight rings:
///                           stage spans and gate events (open in
///                           about:tracing or https://ui.perfetto.dev)
///   - BENCH_grover_obs.json — machine-readable counters + timings.

#include <iostream>

#include "qclab/qclab.hpp"

int main() {
  using T = double;
  using namespace qclab;

  // Fresh counters, empty flight rings, and tracing on for this run.
  obs::resetAll();
  obs::flightRecorder().enableTracing();

  // A 5-qubit Grover search, metered gate by gate.
  const std::string marked = "11111";
  const auto circuit =
      algorithms::grover<T>(marked, algorithms::groverIterations(5));
  const obs::InstrumentedBackend<T> backend;  // wraps the kernel backend
  const auto simulation = circuit.simulate("00000", backend);
  const auto counts = simulation.countsMap(1000, /*seed=*/7);

  double success = 0.0;
  for (std::size_t i = 0; i < simulation.nbBranches(); ++i) {
    if (simulation.result(i) == marked) success = simulation.probability(i);
  }
  std::cout << "P(" << marked << ") = " << success << ", counts[" << marked
            << "] = " << counts.at(marked) << "/1000\n\n";

  // 1. Human-readable aggregate report.
  obs::Report report("grover_n5");
  std::cout << report.text();

  // 2. Chrome trace_event timeline of every stage span and gate event.
  if (obs::writeChromeTrace("grover_trace.json")) {
    std::cout << "\nwrote grover_trace.json ("
              << obs::flightRecorder().totalRecorded() << " events)\n";
  }

  // 3. Machine-readable metrics in the BENCH_*.json shape.
  if (report.writeJson("BENCH_grover_obs.json")) {
    std::cout << "wrote BENCH_grover_obs.json\n";
  }

  obs::flightRecorder().disableTracing();
  return 0;
}
