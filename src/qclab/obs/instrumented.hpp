#pragma once

/// \file instrumented.hpp
/// \brief Backend decorator that meters every gate application.
///
/// InstrumentedBackend<T> wraps any sim::Backend<T> and, per applyGate,
///  - asks the inner backend which kernel path it dispatches the gate to
///    (Backend::dispatchPath — the decorator seam, see DESIGN.md),
///  - counts the application by path and by gate kind in obs::metrics(),
///    with an estimate of the state-vector bytes touched,
///  - times the inner application into the per-path latency histogram
///    (obs::latencyHistograms(), histogram.hpp), feeding the p50/p90/p99
///    and effective-bandwidth figures of the v2 reports, and writes it as
///    one gate event (kernel path, qubits, duration) into the flight ring.
///
/// The decorator is opt-in and adds a per-gate cost (a label string and a
/// counter update, ~100ns) that the bare backends never pay.  Under
/// QCLAB_OBS_DISABLED it degenerates to a pure forwarder, so instrumented
/// and plain runs are bit-identical.

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/histogram.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/sim/backend.hpp"
#include "qclab/sim/kernel_path.hpp"

namespace qclab::obs {

/// Rough estimate of the state-vector bytes read + written when applying a
/// gate over a `dim`-amplitude state through `path`.  Intentionally
/// simple: full-state paths stream every amplitude in and out, SWAP moves
/// only the half with differing bits, a controlled gate touches only its
/// active subspace, and the sparse path pays an extra construction pass.
template <typename T>
std::uint64_t bytesTouchedEstimate(sim::KernelPath path, std::size_t dim,
                                   const qgates::QGate<T>& gate) {
  const std::uint64_t amp = sizeof(std::complex<T>);
  switch (path) {
    case sim::KernelPath::kSwap:
      return dim * amp;
    case sim::KernelPath::kControlled1:
    case sim::KernelPath::kControlledDiagonal1:
      return 2 * (static_cast<std::uint64_t>(dim) >> gate.controls().size()) *
             amp;
    case sim::KernelPath::kSparseKron:
      return 4 * dim * amp;
    default:
      return 2 * dim * amp;
  }
}

/// Metering decorator over any gate-application backend.
template <typename T>
class InstrumentedBackend final : public sim::Backend<T> {
 public:
  /// Wraps `inner` (kept by reference: it must outlive the decorator).
  explicit InstrumentedBackend(
      const sim::Backend<T>& inner = sim::defaultBackend<T>())
      : inner_(inner),
        name_(std::string("instrumented(") + inner.name() + ")") {}

  void applyGate(sim::StateSpan<T> state, int nbQubits,
                 const qgates::QGate<T>& gate,
                 int offset = 0) const override {
    if constexpr (kEnabled) {
      // dispatchPath stays the backend's truth; the counted path is
      // remapped to the kSimd* variant when the vector tier is active,
      // so reports attribute the work to the tier that did it.
      const sim::KernelPath path = sim::simdCountedPath(
          inner_.dispatchPath(gate), gate.nbQubits());
      {
        const PathTimer timer(path, FlightEventKind::kGate,
                              qubitMask64(gate.qubits()));
        inner_.applyGate(state, nbQubits, gate, offset);
      }
      metrics().countGate(path, qgates::gateKindLabel(gate).c_str(),
                          bytesTouchedEstimate(path, state.size(), gate));
    } else {
      inner_.applyGate(state, nbQubits, gate, offset);
    }
  }

  sim::KernelPath dispatchPath(const qgates::QGate<T>& gate) const override {
    return inner_.dispatchPath(gate);
  }

  const char* name() const noexcept override { return name_.c_str(); }

  /// The wrapped backend.
  const sim::Backend<T>& inner() const noexcept { return inner_; }

 private:
  const sim::Backend<T>& inner_;
  std::string name_;
};

}  // namespace qclab::obs
