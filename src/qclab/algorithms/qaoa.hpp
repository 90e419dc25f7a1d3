#pragma once

/// \file qaoa.hpp
/// \brief QAOA circuits for MaxCut — a representative variational workload
/// for the prototyping platform the paper describes (§1).
///
/// For a graph G = (V, E) the MaxCut cost Hamiltonian is
///   C = sum_{(i,j) in E} (1 - Z_i Z_j) / 2,
/// and a depth-p QAOA circuit alternates cost layers exp(-i gamma_k C)
/// (RZZ gates per edge, phases absorbed) with mixer layers
/// exp(-i beta_k sum X) (RX on every vertex), starting from the uniform
/// superposition.

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "qclab/observable.hpp"
#include "qclab/qcircuit.hpp"

namespace qclab::algorithms {

/// An undirected graph as an edge list over vertices 0..nbVertices-1.
struct Graph {
  int nbVertices;
  std::vector<std::pair<int, int>> edges;
};

/// The MaxCut cost observable C = sum_E (1 - Z_i Z_j)/2.  Its expectation
/// on a computational basis state equals the cut value of that vertex
/// bipartition.
template <typename T>
Observable<T> maxCutHamiltonian(const Graph& graph) {
  util::require(graph.nbVertices >= 2, "MaxCut needs at least two vertices");
  Observable<T> cost(graph.nbVertices);
  const std::string identity(static_cast<std::size_t>(graph.nbVertices), 'I');
  // The constant sum_E 1/2, added once as the first term (exact in binary).
  if (!graph.edges.empty()) {
    cost.add(identity, T(0.5) * static_cast<T>(graph.edges.size()));
  }
  for (const auto& [i, j] : graph.edges) {
    util::checkQubit(i, graph.nbVertices);
    util::checkQubit(j, graph.nbVertices);
    util::require(i != j, "self-loop in MaxCut graph");
    std::string zz = identity;
    zz[static_cast<std::size_t>(i)] = 'Z';
    zz[static_cast<std::size_t>(j)] = 'Z';
    cost.add(zz, T(-0.5));
  }
  return cost;
}

/// The depth-p QAOA circuit with parameters gammas (cost angles) and betas
/// (mixer angles); sizes must match and define p.
template <typename T>
QCircuit<T> qaoaCircuit(const Graph& graph, const std::vector<T>& gammas,
                        const std::vector<T>& betas) {
  util::require(!gammas.empty() && gammas.size() == betas.size(),
                "QAOA needs equal, nonzero gamma/beta counts");
  QCircuit<T> circuit(graph.nbVertices);
  for (int v = 0; v < graph.nbVertices; ++v) {
    circuit.push_back(qgates::Hadamard<T>(v));
  }
  for (std::size_t layer = 0; layer < gammas.size(); ++layer) {
    // exp(-i gamma C): per edge, exp(+i gamma/2 Z_i Z_j) up to a global
    // phase -> RZZ(-gamma).
    for (const auto& [i, j] : graph.edges) {
      circuit.push_back(qgates::RotationZZ<T>(i, j, -gammas[layer]));
    }
    // exp(-i beta sum X): RX(2 beta) per vertex.
    for (int v = 0; v < graph.nbVertices; ++v) {
      circuit.push_back(qgates::RotationX<T>(v, T(2) * betas[layer]));
    }
  }
  return circuit;
}

/// Expected cut value of the depth-p QAOA state.
template <typename T>
T qaoaExpectedCut(const Graph& graph, const std::vector<T>& gammas,
                  const std::vector<T>& betas) {
  const auto circuit = qaoaCircuit(graph, gammas, betas);
  const auto state =
      circuit
          .simulate(std::string(static_cast<std::size_t>(graph.nbVertices),
                                '0'))
          .state(0);
  return maxCutHamiltonian<T>(graph).expectation(state);
}

/// Classical reference: the maximum cut by exhaustive search (small
/// graphs; used by tests and for reporting approximation ratios).
inline int maxCutBruteForce(const Graph& graph) {
  int best = 0;
  const std::uint64_t assignments = std::uint64_t{1}
                                    << graph.nbVertices;
  for (std::uint64_t mask = 0; mask < assignments; ++mask) {
    int cut = 0;
    for (const auto& [i, j] : graph.edges) {
      const int si = static_cast<int>((mask >> i) & 1);
      const int sj = static_cast<int>((mask >> j) & 1);
      cut += si != sj;
    }
    best = std::max(best, cut);
  }
  return best;
}

/// Coarse grid search over one QAOA layer (p = 1): returns the best
/// (gamma, beta, expected cut).  A stand-in for the classical optimizer of
/// a full variational loop.
template <typename T>
std::tuple<T, T, T> qaoaGridSearch(const Graph& graph, int resolution = 16) {
  util::require(resolution >= 2, "grid resolution too small");
  T bestGamma = 0, bestBeta = 0, bestValue = 0;
  for (int a = 0; a < resolution; ++a) {
    const T gamma = static_cast<T>(M_PI) * static_cast<T>(a) /
                    static_cast<T>(resolution);
    for (int b = 0; b < resolution; ++b) {
      const T beta = static_cast<T>(M_PI) * static_cast<T>(b) /
                     static_cast<T>(2 * resolution);
      const T value = qaoaExpectedCut<T>(graph, {gamma}, {beta});
      if (value > bestValue) {
        bestValue = value;
        bestGamma = gamma;
        bestBeta = beta;
      }
    }
  }
  return {bestGamma, bestBeta, bestValue};
}

}  // namespace qclab::algorithms
