/// \file bench_batch_sweep.cpp
/// \brief Parameter-sweep throughput: a 16-qubit complete-graph QAOA
/// (p=2) swept over many angle sets, naive loop vs. the batched engine.
///
/// The naive loop rebuilds the circuit and calls simulate per member —
/// paying circuit construction, planning, and state allocation every
/// time.  BatchedSimulation compiles the shape once (fusion plan + block
/// schedule + cached parameter-free prefix) and executes members by
/// parameter rebinding.  Plain simulate fuses a 16-qubit run with the same
/// FusionOptions, so the two run the same kernels and the ratio measures
/// what planning once per shape saves; the report carries it so the
/// regression gate tracks it.
///
/// Prints the run as one BENCH_*.json-shaped object (obs::Report) on
/// stdout; `--obs-json <path>` additionally writes it to a file.

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdio>
#include <string>
#include <vector>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

namespace {

using T = double;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Complete graph on `n` vertices: the densest QAOA cost layer (one RZZ
/// per edge — n(n-1)/2 diagonal gates per layer).
qclab::algorithms::Graph completeGraph(int n) {
  qclab::algorithms::Graph graph;
  graph.nbVertices = n;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) graph.edges.push_back({i, j});
  }
  return graph;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::initObsRun(obsJsonPath);
  qclab::obs::Report report("bench_batch_sweep");

  const int n = 16;
  const int p = 2;
  const std::size_t members = 12;
  const auto graph = completeGraph(n);

  // Member m's angles: a deterministic spread over the sweep grid.
  std::vector<std::vector<T>> gammas(members), betas(members);
  for (std::size_t m = 0; m < members; ++m) {
    for (int layer = 0; layer < p; ++layer) {
      gammas[m].push_back(T(0.1) + T(0.05) * static_cast<T>(m + layer));
      betas[m].push_back(T(0.2) + T(0.03) * static_cast<T>(m) +
                         T(0.1) * static_cast<T>(layer));
    }
  }

  // Naive loop: rebuild + plain simulate per member.
  std::vector<std::vector<std::complex<T>>> naive(members);
  const auto naiveStart = Clock::now();
  for (std::size_t m = 0; m < members; ++m) {
    const auto circuit =
        qclab::algorithms::qaoaCircuit<T>(graph, gammas[m], betas[m]);
    auto simulation = circuit.simulate(std::string(n, '0'));
    naive[m] = simulation.branches().front().state.takeVector();
  }
  const double naiveMs = msSince(naiveStart);

  // Batched engine: one shape compile, members by rebinding.
  const auto prototype =
      qclab::algorithms::qaoaCircuit<T>(graph, gammas[0], betas[0]);
  const auto planStart = Clock::now();
  qclab::sim::BatchedSimulation<T> engine(prototype);
  const double planMs = msSince(planStart);

  std::vector<std::vector<T>> parameterSets(members);
  for (std::size_t m = 0; m < members; ++m) {
    auto instance =
        qclab::algorithms::qaoaCircuit<T>(graph, gammas[m], betas[m]);
    parameterSets[m] = engine.parametersOf(instance);
  }

  const auto batchStart = Clock::now();
  auto results = engine.run(parameterSets);
  const double batchMs = msSince(batchStart);

  // Numerical sanity: members must match the naive reference closely
  // (checked up to rounding; the bitwise guarantee against same-options
  // simulate lives in the tests).
  double maxDiff = 0.0;
  for (std::size_t m = 0; m < members; ++m) {
    const auto& state = results[m].branches().front().state;
    for (std::size_t i = 0; i < state.size(); ++i) {
      maxDiff = std::max(maxDiff, std::abs(state[i] - naive[m][i]));
    }
  }

  const double perMemberNaive = naiveMs / static_cast<double>(members);
  const double perMemberBatch =
      (planMs + batchMs) / static_cast<double>(members);
  report.add("naive/qaoa-k16-p2", perMemberNaive, "ms/member");
  report.add("batch/qaoa-k16-p2", perMemberBatch, "ms/member");
  report.add("batch-plan/qaoa-k16-p2", planMs, "ms");
  report.add("batch-vs-naive/qaoa-k16-p2",
             perMemberBatch > 0 ? perMemberNaive / perMemberBatch : 0.0, "x");
  report.add("max-deviation/qaoa-k16-p2", maxDiff, "abs");

  std::printf("%s\n", report.json().c_str());
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}
