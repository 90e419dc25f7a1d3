/// \file repro_e3_tomography.cpp
/// \brief Experiment E3 (paper §5.2): single-qubit tomography of
/// v = (1/sqrt(2), i/sqrt(2)) with 1000 shots per basis, seeded PRNG.
///
/// Paper reports counts_x = [471, 529], S = (1, -0.058, 1, -0.012), and
/// trace distance 0.006.  Our PRNG stream differs from MATLAB's, so the
/// absolute counts differ; the reproduction targets are the statistical
/// shape (counts ~ Binomial(1000, 0.5) in X/Z, deterministic in Y) and the
/// trace-distance magnitude (~1e-2).  A 100x shot run shows the estimate
/// converging, confirming the workflow.

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
  const auto trueRho = density::densityMatrix(v);

  std::printf("E3: quantum state tomography (paper Sec. 5.2)\n");
  std::printf("%-22s %-22s %s\n", "quantity", "paper", "measured");

  const auto result = algorithms::tomography1Qubit(v, 1000, 1);
  std::printf("%-22s %-22s [%llu, %llu]\n", "counts_x (1000 shots)",
              "[471, 529]",
              static_cast<unsigned long long>(result.counts[0][0]),
              static_cast<unsigned long long>(result.counts[0][1]));
  std::printf("%-22s %-22s [%llu, %llu]\n", "counts_y", "[1000, 0]",
              static_cast<unsigned long long>(result.counts[1][0]),
              static_cast<unsigned long long>(result.counts[1][1]));
  std::printf("%-22s %-22s [%llu, %llu]\n", "counts_z", "~[500, 500]",
              static_cast<unsigned long long>(result.counts[2][0]),
              static_cast<unsigned long long>(result.counts[2][1]));
  std::printf("%-22s %-22s (%.3f, %.3f, %.3f, %.3f)\n", "S coefficients",
              "(1, -0.058, 1, -0.012)", result.coefficients[0],
              result.coefficients[1], result.coefficients[2],
              result.coefficients[3]);
  std::printf("%-22s %-22s %.4f\n", "trace distance", "0.006",
              density::traceDistance(trueRho, result.estimate));

  // Convergence sweep: trace distance shrinks like 1/sqrt(shots).
  std::printf("\nshots -> trace distance (expected ~1/sqrt(shots) decay):\n");
  for (std::uint64_t shots : {100ULL, 1000ULL, 10000ULL, 100000ULL}) {
    const auto sweep = algorithms::tomography1Qubit(v, shots, 1);
    std::printf("  %8llu  %.5f\n", static_cast<unsigned long long>(shots),
                density::traceDistance(trueRho, sweep.estimate));
  }
  return qclab::benchutil::writeReproReport(obsJsonPath, "repro_e3_tomography",
                                            wallTimer);
}
