/// \file repro_e1_bell.cpp
/// \brief Experiment E1 (paper §2-§3.3, circuit (1)): Hadamard + CNOT +
/// measurements from |00>.  The paper reports results {'00', '11'} with
/// probabilities {0.5, 0.5}.  Prints the paper row and the measured row.

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

  QCircuit<T> circuit(2);
  circuit.push_back(std::make_unique<qgates::Hadamard<T>>(0));
  circuit.push_back(std::make_unique<qgates::CNOT<T>>(0, 1));
  circuit.push_back(std::make_unique<Measurement<T>>(0));
  circuit.push_back(std::make_unique<Measurement<T>>(1));

  std::printf("E1: Bell circuit measurement (paper circuit (1), Sec. 3.3)\n");
  std::printf("%-28s %-20s %s\n", "quantity", "paper", "measured");

  // Run with both backends to show the two systems agree.
  const sim::KernelBackend<T> kernel;
  const sim::SparseKronBackend<T> sparse;
  for (const sim::Backend<T>* backend :
       {static_cast<const sim::Backend<T>*>(&kernel),
        static_cast<const sim::Backend<T>*>(&sparse)}) {
    const auto simulation = circuit.simulate("00", *backend);
    std::string results, probabilities;
    for (std::size_t i = 0; i < simulation.nbBranches(); ++i) {
      results += "'" + simulation.result(i) + "' ";
      char buffer[16];
      std::snprintf(buffer, sizeof(buffer), "%.4f ",
                    simulation.probability(i));
      probabilities += buffer;
    }
    std::printf("%-28s %-20s %s  [backend: %s]\n", "results", "'00' '11'",
                results.c_str(), backend->name());
    std::printf("%-28s %-20s %s  [backend: %s]\n", "probabilities",
                "0.5 0.5", probabilities.c_str(), backend->name());
  }
  return qclab::benchutil::writeReproReport(obsJsonPath, "repro_e1_bell",
                                            wallTimer);
}
