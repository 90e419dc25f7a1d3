/// \file batch_sweep.cpp
/// \brief Parameter sweeps with the batched execution engine: compile a
/// QAOA circuit SHAPE once, then run many angle instances against it by
/// parameter rebinding — instead of rebuilding and re-planning per point.
///
/// Demonstrates ParameterBinding slot order, shape hashing (which
/// members an engine accepts), the cached parameter-free prefix, and the
/// bit-identity guarantee against standalone simulate.

#include <cstdio>
#include <cstring>

#include "qclab/qclab.hpp"

int main() {
  using T = double;
  using namespace qclab;

  // A small MaxCut instance: ring of 8 vertices, QAOA depth p=2.
  algorithms::Graph graph;
  graph.nbVertices = 8;
  for (int v = 0; v < 8; ++v) graph.edges.push_back({v, (v + 1) % 8});
  const auto prototype =
      algorithms::qaoaCircuit<T>(graph, {T(0.4), T(0.7)}, {T(0.3), T(0.6)});

  // Compile the shape once: fusion plan, block schedule, and the cached
  // parameter-free prefix (the leading Hadamard layer never changes
  // across members, so it is swept exactly once).
  sim::BatchedSimulation<T> engine(prototype);
  std::printf("shape hash      : %016llx\n",
              static_cast<unsigned long long>(engine.shapeHash()));
  std::printf("parameters      : %zu per member\n", engine.nbParameters());
  std::printf("cached prefix   : %zu plans + %zu blocks\n",
              engine.prefixPlanCount(), engine.prefixBlockCount());

  // A 5x5 grid over (gamma, beta) scaling factors: 25 members, all the
  // same shape.  Parameter vectors use the engine's slot order; the
  // easiest way to produce them is parametersOf on a bound instance.
  std::vector<std::vector<T>> parameterSets;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      const T g = T(0.2) * (i + 1);
      const T b = T(0.15) * (j + 1);
      const auto instance = algorithms::qaoaCircuit<T>(
          graph, {g, T(1.5) * g}, {b, T(0.5) * b});
      parameterSets.push_back(engine.parametersOf(instance));
    }
  }

  // One call executes the whole sweep (OpenMP across members).
  auto results = engine.run(parameterSets);

  // Score each member: MaxCut expectation value of the cut observable.
  const auto observable = algorithms::maxCutHamiltonian<T>(graph);
  std::size_t best = 0;
  double bestValue = -1.0;
  std::printf("\n  member   <cut>\n");
  for (std::size_t m = 0; m < results.size(); ++m) {
    const double value = static_cast<double>(
        observable.expectation(results[m].branches().front().state));
    if (value > bestValue) {
      bestValue = value;
      best = m;
    }
    if (m % 6 == 0) std::printf("    %2zu     %.4f\n", m, value);
  }
  std::printf("  best member %zu: <cut> = %.4f\n", best, bestValue);

  // The guarantee: every member is BIT-identical to binding the same
  // parameters on a clone and simulating standalone with fusion on (both
  // use the default FusionOptions).
  QCircuit<T> check(prototype);
  ParameterBinding<T> binding(check);
  binding.bind(parameterSets[best]);
  SimulateOptions options;
  options.fusion = true;
  const auto standalone = check.simulate(std::string(8, '0'), options);
  const auto& a = results[best].branches().front().state;
  const auto& b = standalone.branches().front().state;
  const bool identical =
      std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  std::printf("\nbit-identical to standalone simulate: %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
