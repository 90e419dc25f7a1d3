/// \file repro_e5b_qec_noise.cpp
/// \brief Experiment E5b (quantitative companion to paper §5.4): logical
/// error rate of the distance-3 repetition code vs physical bit-flip
/// probability.  Expected shape: logical error = 3p^2 - 2p^3, crossing the
/// unprotected error p at p = 0.5 (pseudo-threshold).

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
  using namespace qclab::noise;

  const T h = 1.0 / std::sqrt(2.0);
  const std::vector<std::complex<T>> v = {{h, 0.0}, {0.0, h}};
  std::vector<std::complex<T>> logical(8);
  logical[0] = v[0];
  logical[7] = v[1];

  std::printf("E5b: repetition-code logical error rate (extension of "
              "paper Sec. 5.4)\n");
  std::printf("%10s %16s %16s %16s %10s\n", "p", "unprotected", "measured",
              "3p^2-2p^3", "wins?");
  for (double p = 0.0; p <= 0.6001; p += 0.05) {
    DensityMatrix<T> encoded(dense::kron(v, basisState<T>("0000")));
    simulateDensity(algorithms::repetitionEncoder<T>(5), encoded);
    for (int q = 0; q < 3; ++q) {
      encoded.applyChannel(KrausChannel<T>::bitFlip(p), {q});
    }
    simulateDensity(algorithms::repetitionSyndromeAndCorrect<T>(), encoded);
    const auto dataRho = density::partialTrace(encoded.matrix(), 5, {3, 4});
    const double logicalError = 1.0 - density::fidelity(logical, dataRho);
    const double analytic = 3 * p * p - 2 * p * p * p;
    std::printf("%10.2f %16.6f %16.6f %16.6f %10s\n", p, p, logicalError,
                analytic, logicalError < p - 1e-12 ? "yes" : "no");
  }
  return qclab::benchutil::writeReproReport(obsJsonPath, "repro_e5b_qec_noise",
                                            wallTimer);
}
