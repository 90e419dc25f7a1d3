/// \file bench_omp_scaling.cpp
/// \brief Experiment P5: OpenMP thread scaling of the kernel backend (our
/// CPU substitute for the paper's GPU acceleration claim).  Sweeps the
/// thread count on a fixed 20-qubit state.  On a single-core machine every
/// row degenerates to the 1-thread time; the harness itself is the
/// deliverable.
///
/// Prints the whole run as one BENCH_*.json-shaped object (obs::Report)
/// on stdout; `--obs-json <path>` additionally writes it to a file.

#include <cstdio>
#include <string>
#include <vector>

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

namespace {

using T = double;
using C = std::complex<T>;

constexpr int kQubits = 20;

void setThreads(int threads) {
#ifdef QCLAB_HAS_OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::initObsRun();
  qclab::obs::Report report("bench_omp_scaling");

  const auto u = qclab::qgates::Hadamard<T>(0).matrix();
  const qclab::qgates::Hadamard<T> gate(kQubits / 2);
  const auto extended = qclab::sim::extendedUnitary(kQubits, gate);

  for (int threads = 1; threads <= 4; ++threads) {
    setThreads(threads);
    const std::string suffix = "/threads=" + std::to_string(threads);

    std::vector<C> psi(std::size_t{1} << kQubits);
    psi[0] = C(1);
    report.add("apply1" + suffix,
               qclab::benchutil::timeNsPerOp([&] {
                 qclab::sim::apply1(psi, kQubits, kQubits / 2, u);
               }),
               "ns/op");

    std::vector<C> phi(std::size_t{1} << kQubits);
    phi[0] = C(1);
    report.add("spmv" + suffix,
               qclab::benchutil::timeNsPerOp([&] { phi = extended.apply(phi); }),
               "ns/op");

    const std::vector<C> uniform(
        std::size_t{1} << kQubits,
        C(1.0 / std::sqrt(static_cast<double>(1ULL << kQubits))));
    volatile T sink = T(0);
    report.add("measureProbability0" + suffix,
               qclab::benchutil::timeNsPerOp([&] {
                 sink = qclab::sim::measureProbability0(uniform, kQubits,
                                                        kQubits / 2);
               }),
               "ns/op");
    (void)sink;
  }

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
