/// \file repro_e5_qec.cpp
/// \brief Experiment E5 (paper §5.4): distance-3 repetition code protecting
/// v = (1/sqrt(2), i/sqrt(2)) against a bit flip on qubit 0.  The paper
/// reports syndrome result '11' (probability 1) and the restored logical
/// state.  Sweeps all error locations.

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

  const T h = 1.0 / std::sqrt(2.0);
  const std::vector<std::complex<T>> v = {{h, 0.0}, {0.0, h}};
  const auto initial = dense::kron(v, basisState<T>("0000"));

  std::printf("E5: repetition-code error correction (paper Sec. 5.4)\n");
  std::printf("%-20s %-12s %s\n", "quantity", "paper", "measured");

  const auto qec = algorithms::repetitionCodeDemo<T>(0);
  const auto simulation = qec.simulate(initial);
  std::printf("%-20s %-12s '%s'\n", "syndrome", "'11'",
              simulation.result(0).c_str());
  std::printf("%-20s %-12s %.4f\n", "probability", "1.0000",
              simulation.probability(0));
  const auto data = reducedStatevector<T>(simulation.state(0), {3, 4},
                                          simulation.result(0));
  std::printf("%-20s %-12s %+.4f%+.4fi\n", "alpha (|000>)", "0.7071",
              data[0].real(), data[0].imag());
  std::printf("%-20s %-12s %+.4f%+.4fi\n", "beta (|111>)", "0.7071i",
              data[7].real(), data[7].imag());

  std::printf("\nerror qubit  syndrome (expected)  logical fidelity\n");
  for (int errorQubit = -1; errorQubit <= 2; ++errorQubit) {
    const auto demo = algorithms::repetitionCodeDemo<T>(errorQubit);
    const auto sweep = demo.simulate(initial);
    const auto reduced = reducedStatevector<T>(sweep.state(0), {3, 4},
                                               sweep.result(0));
    // Fidelity with the ideal logical state alpha|000> + beta|111>.
    const std::complex<T> overlap =
        std::conj(reduced[0]) * v[0] + std::conj(reduced[7]) * v[1];
    std::printf("%8d     '%s' ('%s')%17.6f\n", errorQubit,
                sweep.result(0).c_str(),
                algorithms::expectedSyndrome(errorQubit).c_str(),
                std::norm(overlap));
  }
  return qclab::benchutil::writeReproReport(obsJsonPath, "repro_e5_qec",
                                            wallTimer);
}
