#pragma once

/// \file simulator.hpp
/// \brief Noisy circuit simulation on density matrices.
///
/// Runs the program sim::compile makes of a QCircuit, like the
/// state-vector drivers, but evolves a DensityMatrix (whose operations are
/// statevector kernel calls on a 2n-qubit register) and injects noise
/// channels according to a NoiseModel:
/// after every gate, the per-qubit channel is applied to each qubit the
/// gate touched; measurements rotate into the measurement basis (V†),
/// apply the readout channel, and then dephase the qubit (the outcome
/// distribution stays available on the diagonal, and classically
/// controlled corrections expressed as multi-controlled gates — paper
/// §5.4 — act correctly on the dephased state).  Readout noise acts in
/// the *measurement* frame: a bit-flip readout channel flips the recorded
/// outcome whatever the basis, which is why it is injected between the
/// basis change and the dephase rather than before the basis change.

#include <complex>
#include <cstdint>
#include <optional>

#include "qclab/noise/density_matrix.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/qcircuit.hpp"
#include "qclab/sim/execute.hpp"

namespace qclab::noise {

/// Which channels to inject where.
template <typename T>
struct NoiseModel {
  /// Applied to every qubit touched by a gate, after the gate.
  std::optional<KrausChannel<T>> gateNoise;
  /// Applied to the measured qubit before each measurement.
  std::optional<KrausChannel<T>> measurementNoise;
  /// Applied to every qubit during idle steps is out of scope (no
  /// scheduling model); gate/measurement noise covers the circuit model.

  /// Uniform depolarizing noise model with gate error probability p.
  static NoiseModel depolarizing(T p) {
    NoiseModel model;
    model.gateNoise = KrausChannel<T>::depolarizing(p);
    return model;
  }

  /// Bit-flip noise on gates with probability p (the repetition-code
  /// setting of paper §5.4).
  static NoiseModel bitFlip(T p) {
    NoiseModel model;
    model.gateNoise = KrausChannel<T>::bitFlip(p);
    return model;
  }

  /// Symmetric readout error on measurements with flip probability p.
  static NoiseModel readout(T p) {
    NoiseModel model;
    model.measurementNoise = KrausChannel<T>::readout(p);
    return model;
  }
};

/// Simulates `circuit` on the density matrix `state`, injecting noise per
/// `model`.
template <typename T>
void simulateDensity(const QCircuit<T>& circuit, DensityMatrix<T>& state,
                     const NoiseModel<T>& model = {}) {
  const auto applyNoise = [&](const KrausChannel<T>& channel, int qubit) {
    state.applyChannel(channel, {qubit});
    obs::metrics().add(obs::Counter::kNoiseChannels);
  };
  const sim::Program<T> program =
      sim::compile(circuit.flatten(), 0, state.nbQubits(), nullptr);
  for (const sim::ProgramStep<T>& step : program.steps) {
    if (step.isRun()) {
      for (const sim::GateRef<T>& ref : step.gates) {
        state.applyGate(*ref.gate, ref.offset);
        if (!model.gateNoise) continue;
        for (int qubit : ref.gate->qubits()) {
          applyNoise(*model.gateNoise, qubit + ref.offset);
        }
      }
    } else if (step.reset) {
      state.reset(step.qubit);
    } else {
      // Basis change, readout noise, dephase, change back (paper §3.3
      // recipe applied at the density-matrix level).  The readout
      // channel must act on the rotated qubit: before the V† it would
      // commute with the measurement it is supposed to corrupt (e.g. a
      // bit-flip readout error in front of an X-basis measurement is a
      // no-op on the recorded distribution).
      if (step.rotates()) {
        state.applyGate(qgates::MatrixGate1<T>(step.qubit, step.vDagger));
      }
      if (model.measurementNoise) {
        applyNoise(*model.measurementNoise, step.qubit);
      }
      state.dephase(step.qubit);
      if (step.rotates()) {
        state.applyGate(qgates::MatrixGate1<T>(step.qubit, step.v));
      }
    }
  }
}

/// Convenience: runs `circuit` from |bits> under `model` and returns the
/// final density matrix.
template <typename T>
DensityMatrix<T> simulateDensity(const QCircuit<T>& circuit,
                                 const std::string& bits,
                                 const NoiseModel<T>& model = {}) {
  util::require(static_cast<int>(bits.size()) == circuit.nbQubits(),
                "initial bitstring length must equal nbQubits");
  const obs::ScopedSpan span("simulateDensity");
  DensityMatrix<T> state(bits);
  const obs::ScopedStateBytes memory(state.matrix().size() *
                                     sizeof(std::complex<T>));
  simulateDensity(circuit, state, model);
  return state;
}

}  // namespace qclab::noise
