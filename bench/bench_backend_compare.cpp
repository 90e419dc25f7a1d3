/// \file bench_backend_compare.cpp
/// \brief Experiment P1: the paper's central performance claim — the
/// QCLAB++ in-place kernels vs the MATLAB-QCLAB algorithm of forming the
/// sparse extended unitary I (x) U (x) I and multiplying (paper §3.2).
/// Expected shape: the kernel backend wins at every size and the gap grows
/// with the register size (the sparse path pays O(2^n) matrix construction
/// per gate on top of the multiply).
///
/// A second, same-process row: the per-gate dispatch the kernel backend
/// pays on every call (KernelBackend::applyGate lowers the gate to its
/// kernel record each time) against running the records a compiled
/// program formed once, on the paper's E4 Grover circuits.
///
/// Prints the whole run as one BENCH_*.json-shaped object (obs::Report)
/// on stdout; `--obs-json <path>` additionally writes it to a file.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

namespace {

using T = double;
using C = std::complex<T>;

/// ns/op of applying `gate` to a fresh 2^n state through `backend`.
double timeGate(const qclab::sim::Backend<T>& backend, int n,
                const qclab::qgates::QGate<T>& gate) {
  std::vector<C> psi(std::size_t{1} << n);
  psi[0] = C(1);
  return qclab::benchutil::timeNsPerOp([&] { backend.applyGate(psi, n, gate); });
}

/// ns/op of simulating an n-qubit QFT through `backend`.
double timeQft(const qclab::sim::Backend<T>& backend, int n) {
  const auto circuit = qclab::algorithms::qft<T>(n);
  const auto initial =
      qclab::basisState<T>(std::string(static_cast<std::size_t>(n), '0'));
  return qclab::benchutil::timeNsPerOp(
      [&] { auto simulation = circuit.simulate(initial, backend); });
}

void sweepGate(qclab::obs::Report& report, const char* gateName, int maxN,
               int step,
               const std::function<std::unique_ptr<qclab::qgates::QGate<T>>(
                   int)>& makeGate) {
  const qclab::sim::KernelBackend<T> kernel;
  const qclab::sim::SparseKronBackend<T> sparse;
  for (int n = 4; n <= maxN; n += step) {
    const auto gate = makeGate(n);
    report.add(std::string("kernel/") + gateName + "/n=" + std::to_string(n),
               timeGate(kernel, n, *gate), "ns/op");
    report.add(
        std::string("sparse-kron/") + gateName + "/n=" + std::to_string(n),
        timeGate(sparse, n, *gate), "ns/op");
  }
}

/// Ratio of KernelBackend::applyGate per gate over the compiled records
/// of the unitary part of the E4 Grover circuit at n = 2-5: interleaved
/// samples (the order alternates per pair), reported as the median of the
/// per-pair ratios with its quartiles, unit x (not gated).
void recordsVsApplyGate(qclab::obs::Report& report) {
  constexpr int kPairs = 21;
  const qclab::sim::KernelBackend<T> kernel;
  for (int n = 2; n <= 5; ++n) {
    const auto circuit = qclab::algorithms::grover<T>(
        std::string(static_cast<std::size_t>(n), '1'), -1, false);
    const auto program = qclab::sim::compile(circuit.flatten(), 0, n, nullptr);
    const auto& step = program.steps.front();
    std::vector<C> psi(std::size_t{1} << n);
    psi[0] = C(1);
    const auto viaRecords = [&] {
      for (const auto& op : step.ops) qclab::sim::applyKernelOp(psi, n, op);
    };
    const auto viaBackend = [&] {
      for (const auto& ref : step.gates) {
        kernel.applyGate(psi, n, *ref.gate, ref.offset);
      }
    };
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
      double records = 0.0;
      double backend = 0.0;
      if (pair % 2 == 0) {
        records = qclab::benchutil::timeNsPerOp(viaRecords, 2e6);
        backend = qclab::benchutil::timeNsPerOp(viaBackend, 2e6);
      } else {
        backend = qclab::benchutil::timeNsPerOp(viaBackend, 2e6);
        records = qclab::benchutil::timeNsPerOp(viaRecords, 2e6);
      }
      ratios.push_back(backend / records);
    }
    std::sort(ratios.begin(), ratios.end());
    const std::string name =
        "applygate-vs-records/grover/n=" + std::to_string(n);
    report.add(name, ratios[kPairs / 2], "x");
    report.add(name + "/q1", ratios[kPairs / 4], "x");
    report.add(name + "/q3", ratios[3 * kPairs / 4], "x");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::rejectUnknownArguments(argc, argv);
  qclab::benchutil::initObsRun();
  qclab::obs::Report report("bench_backend_compare");

  sweepGate(report, "hadamard", 16, 2, [](int n) {
    return std::unique_ptr<qclab::qgates::QGate<T>>(
        new qclab::qgates::Hadamard<T>(n / 2));
  });
  sweepGate(report, "cnot", 16, 2, [](int n) {
    return std::unique_ptr<qclab::qgates::QGate<T>>(
        new qclab::qgates::CX<T>(0, n - 1));
  });
  sweepGate(report, "rzz", 16, 4, [](int n) {
    return std::unique_ptr<qclab::qgates::QGate<T>>(
        new qclab::qgates::RotationZZ<T>(0, n - 1, 0.7));
  });

  const qclab::sim::KernelBackend<T> kernel;
  const qclab::sim::SparseKronBackend<T> sparse;
  for (int n = 4; n <= 12; n += 2) {
    report.add("kernel/qft-circuit/n=" + std::to_string(n),
               timeQft(kernel, n), "ns/op");
    report.add("sparse-kron/qft-circuit/n=" + std::to_string(n),
               timeQft(sparse, n), "ns/op");
  }

  recordsVsApplyGate(report);

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
