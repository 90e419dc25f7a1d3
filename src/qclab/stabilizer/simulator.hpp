#pragma once

/// \file simulator.hpp
/// \brief Runs QCircuits on the stabilizer tableau.
///
/// Supports the Clifford subset of the gate catalog (see
/// stabilizer/apply.hpp for the full coverage map, including the
/// value-Clifford angles of the parametric gates) plus Z/X/Y-basis
/// measurements and resets.  Non-Clifford gates throw
/// UnsupportedGateError (an InvalidArgumentError).  One run produces one
/// shot; measurement randomness draws from the provided generator.

#include <map>
#include <string>

#include "qclab/qcircuit.hpp"
#include "qclab/stabilizer/apply.hpp"

namespace qclab::stabilizer {

/// One stabilizer-simulation shot of `circuit` from |0...0>: returns the
/// concatenated measurement outcomes and leaves the collapsed tableau in
/// `tableau` (pass a fresh Tableau of circuit.nbQubits()).
template <typename T>
std::string simulateShot(const QCircuit<T>& circuit, Tableau& tableau,
                         random::Rng& rng) {
  util::require(tableau.nbQubits() >= circuit.nbQubits() + circuit.offset(),
                "tableau too small for the circuit");
  return detail::runShot(circuit.flatten(), tableau, rng);
}

/// Runs `shots` stabilizer shots from |0...0> and returns the outcome
/// histogram (the stabilizer analogue of Simulation::countsMap).
template <typename T>
std::map<std::string, std::uint64_t> sampleCounts(const QCircuit<T>& circuit,
                                                  std::uint64_t shots,
                                                  random::Rng& rng) {
  const auto ops = circuit.flatten();
  std::map<std::string, std::uint64_t> histogram;
  for (std::uint64_t shot = 0; shot < shots; ++shot) {
    Tableau tableau(circuit.nbQubits() + circuit.offset());
    ++histogram[detail::runShot(ops, tableau, rng)];
  }
  return histogram;
}

}  // namespace qclab::stabilizer
