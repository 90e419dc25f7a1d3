#pragma once

/// \file simulator.hpp
/// \brief Noisy circuit simulation on density matrices.
///
/// Walks a QCircuit exactly like the state-vector simulator but evolves a
/// DensityMatrix and injects noise channels according to a NoiseModel:
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
  for (const sim::FlatOp<T>& op : circuit.flatten()) {
    switch (op.object->objectType()) {
      case ObjectType::kGate: {
        const auto& gate = static_cast<const qgates::QGate<T>&>(*op.object);
        state.applyGate(gate, op.offset);
        if (model.gateNoise) {
          for (int qubit : gate.qubits()) {
            state.applyChannel(*model.gateNoise, {qubit + op.offset});
            obs::metrics().add(obs::Counter::kNoiseChannels);
          }
        }
        break;
      }
      case ObjectType::kMeasurement: {
        const auto& measurement =
            static_cast<const Measurement<T>&>(*op.object);
        const int qubit = measurement.qubit() + op.offset;
        // Basis change, readout noise, dephase, change back (paper §3.3
        // recipe applied at the density-matrix level).  The readout
        // channel must act on the rotated qubit: before the V† it would
        // commute with the measurement it is supposed to corrupt (e.g. a
        // bit-flip readout error in front of an X-basis measurement is a
        // no-op on the recorded distribution).
        if (measurement.basis() != Basis::kZ) {
          const qgates::MatrixGate1<T> change(
              measurement.qubit(), measurement.basisChangeMatrix());
          state.applyGate(change, op.offset);
        }
        if (model.measurementNoise) {
          state.applyChannel(*model.measurementNoise, {qubit});
          obs::metrics().add(obs::Counter::kNoiseChannels);
        }
        state.dephase(qubit);
        if (measurement.basis() != Basis::kZ) {
          const qgates::MatrixGate1<T> revert(measurement.qubit(),
                                              measurement.basisVectors());
          state.applyGate(revert, op.offset);
        }
        break;
      }
      case ObjectType::kReset:
        state.reset(static_cast<const Reset<T>&>(*op.object).qubit() +
                    op.offset);
        break;
      default:
        break;
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
