/// \file repro_e4_grover.cpp
/// \brief Experiment E4 (paper §5.3): Grover search for |11> on two qubits.
/// The paper reports result '11' with probability 1.0000.  Also sweeps the
/// generalized builder over register sizes against the analytic success
/// probability.

#include <cstdio>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::rejectUnknownArguments(argc, argv);
  qclab::benchutil::initObsRun();
  const qclab::benchutil::WallTimer wallTimer;

  using T = double;
  using namespace qclab;

  // Metered backend: fills the per-path histogram/roofline sections
  // of the exported report (plain kernels underneath, see
  // obs/instrumented.hpp).
  const obs::InstrumentedBackend<T> backend;

  // Paper construction: CZ oracle + H,Z,CZ,H diffuser as blocks.
  QCircuit<T> oracle(2);
  oracle.push_back(std::make_unique<qgates::CZ<T>>(0, 1));
  QCircuit<T> diffuser(2);
  diffuser.push_back(std::make_unique<qgates::Hadamard<T>>(0));
  diffuser.push_back(std::make_unique<qgates::Hadamard<T>>(1));
  diffuser.push_back(std::make_unique<qgates::PauliZ<T>>(0));
  diffuser.push_back(std::make_unique<qgates::PauliZ<T>>(1));
  diffuser.push_back(std::make_unique<qgates::CZ<T>>(0, 1));
  diffuser.push_back(std::make_unique<qgates::Hadamard<T>>(0));
  diffuser.push_back(std::make_unique<qgates::Hadamard<T>>(1));
  oracle.asBlock("oracle");
  diffuser.asBlock("diffuser");

  QCircuit<T> gc(2);
  gc.push_back(std::make_unique<qgates::Hadamard<T>>(0));
  gc.push_back(std::make_unique<qgates::Hadamard<T>>(1));
  gc.push_back(std::make_unique<QCircuit<T>>(oracle));
  gc.push_back(std::make_unique<QCircuit<T>>(diffuser));
  gc.push_back(std::make_unique<Measurement<T>>(0));
  gc.push_back(std::make_unique<Measurement<T>>(1));

  const auto simulation = gc.simulate("00", backend);
  std::printf("E4: Grover search for |11> (paper Sec. 5.3)\n");
  std::printf("%-16s %-12s %s\n", "quantity", "paper", "measured");
  std::printf("%-16s %-12s '%s'\n", "result", "'11'",
              simulation.result(0).c_str());
  std::printf("%-16s %-12s %.4f\n", "probability", "1.0000",
              simulation.probability(0));

  // Generalized sweep: success probability vs analytic formula.
  std::printf("\nn qubits  iterations  P(success) measured  analytic\n");
  for (int n = 2; n <= 8; ++n) {
    const std::string marked(static_cast<std::size_t>(n), '1');
    const int iterations = algorithms::groverIterations(n);
    const auto circuit = algorithms::grover<T>(marked, iterations);
    const auto sweep = circuit.simulate(
        std::string(static_cast<std::size_t>(n), '0'), backend);
    double success = 0.0;
    for (std::size_t i = 0; i < sweep.nbBranches(); ++i) {
      if (sweep.result(i) == marked) success = sweep.probability(i);
    }
    std::printf("%5d %10d %18.4f %12.4f\n", n, iterations, success,
                algorithms::groverSuccessProbability(n, iterations));
  }
  return qclab::benchutil::writeReproReport(obsJsonPath, "repro_e4_grover",
                                            wallTimer);
}
