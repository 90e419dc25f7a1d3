/// \file repro_e2_teleport.cpp
/// \brief Experiment E2 (paper §5.1): quantum teleportation of
/// v = (1/sqrt(2), i/sqrt(2)).  The paper reports four outcomes with
/// probability 0.25 each, and reducedStatevector recovering
/// (0.7071, 0.7071i) on qubit 2 for every outcome.

#include <cstdio>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::initObsRun();
  const qclab::benchutil::WallTimer wallTimer;

  using T = double;
  using namespace qclab;

  const T h = 1.0 / std::sqrt(2.0);
  const std::vector<std::complex<T>> v = {{h, 0.0}, {0.0, h}};

  const auto qtc = algorithms::teleportationCircuit<T>();
  const auto simulation = qtc.simulate(algorithms::teleportationInput(v));

  std::printf("E2: quantum teleportation (paper Sec. 5.1)\n");
  std::printf("%-12s %-18s %-18s %-28s\n", "outcome", "paper P", "measured P",
              "reduced q2 state (paper: 0.7071, 0.7071i)");
  for (std::size_t i = 0; i < simulation.nbBranches(); ++i) {
    const auto reduced = reducedStatevector<T>(
        simulation.state(i), {0, 1}, simulation.result(i));
    std::printf("'%s'         %-18s %-18.4f (%+.4f%+.4fi, %+.4f%+.4fi)\n",
                simulation.result(i).c_str(), "0.25",
                simulation.probability(i), reduced[0].real(),
                reduced[0].imag(), reduced[1].real(), reduced[1].imag());
  }
  return qclab::benchutil::writeReproReport(obsJsonPath, "repro_e2_teleport",
                                            wallTimer);
}
