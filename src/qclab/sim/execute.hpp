#pragma once

/// \file execute.hpp
/// \brief The compile step every circuit driver shares, and the branching
/// statevector executor behind QCircuit::simulate.
///
/// QCircuit::flatten expands sub-circuits once into a flat list of
/// elementary ops (FlatOp), each carrying the qubit offset accumulated
/// over its nesting chain; no driver walks the nesting itself.
/// segmentOps is the one place that decides where a gate run ends: at a
/// measurement, a reset, or a barrier (semantically neutral, but an
/// explicit fusion boundary).  QCircuit::simulate and the dispatch suffix
/// execute the segments through runOps; the batch engine and the
/// trajectory compiler consume the same segments, so every driver fuses
/// the same runs.

#include <algorithm>
#include <complex>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "qclab/dense/ops.hpp"
#include "qclab/measurement.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/qobject.hpp"
#include "qclab/reset.hpp"
#include "qclab/sim/backend.hpp"
#include "qclab/sim/fusion.hpp"
#include "qclab/sim/kernels.hpp"
#include "qclab/simulation.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::sim {

/// One elementary object of a flattened circuit (QCircuit::flatten), with
/// the absolute qubit offset accumulated over its nesting chain.
template <typename T>
struct FlatOp {
  const QObject<T>* object;
  int offset;
};

/// One execution step of a flat op list: a maximal gate run (`gates`
/// non-empty), or a single measurement or reset (`op`).
template <typename T>
struct OpSegment {
  std::vector<GateRef<T>> gates;
  FlatOp<T> op{nullptr, 0};
};

/// Cuts ops[first, end) into gate runs and measurement / reset steps, in
/// order.  A gate run is a maximal stretch of consecutive gates, so
/// measurements, resets, and barriers end it; barriers emit no step of
/// their own.
template <typename T>
std::vector<OpSegment<T>> segmentOps(const std::vector<FlatOp<T>>& ops,
                                     std::size_t first = 0) {
  std::vector<OpSegment<T>> segments;
  for (std::size_t index = first; index < ops.size();) {
    const ObjectType type = ops[index].object->objectType();
    if (type == ObjectType::kBarrier) {
      ++index;
    } else if (type != ObjectType::kGate) {  // measurement or reset
      segments.push_back({{}, ops[index++]});
    } else {
      std::size_t end = index;
      while (end < ops.size() &&
             ops[end].object->objectType() == ObjectType::kGate) {
        ++end;
      }
      OpSegment<T>& segment = segments.emplace_back();
      segment.gates.reserve(end - index);
      for (; index < end; ++index) {
        segment.gates.push_back(
            {static_cast<const qgates::QGate<T>*>(ops[index].object),
             ops[index].offset});
      }
    }
  }
  return segments;
}

/// Throws QubitRangeError unless every op fits an `nbQubits`-qubit
/// register.  Drivers that execute ops inside their own OpenMP region
/// (the batch engine, the trajectory engine, dispatchSampleCounts) call
/// it on the calling thread first: a throw inside the region cannot
/// propagate and ends in std::terminate.
template <typename T>
void checkOps(const std::vector<FlatOp<T>>& ops, int nbQubits) {
  for (const FlatOp<T>& op : ops) {
    const std::vector<int> qubits = op.object->qubits();
    util::checkQubit(qubits.front() + op.offset, nbQubits);
    util::checkQubit(qubits.back() + op.offset, nbQubits);
  }
}

/// Census key of one elementary op: the gate mnemonic incl. controls
/// (qgates::gateKindLabel, so static counts match obs-metered application
/// counts), or "measure" / "reset" / "barrier".
template <typename T>
std::string opKindLabel(const QObject<T>& object) {
  switch (object.objectType()) {
    case ObjectType::kGate:
      return qgates::gateKindLabel(
          static_cast<const qgates::QGate<T>&>(object));
    case ObjectType::kMeasurement:
      return "measure";
    case ObjectType::kReset:
      return "reset";
    default:
      return "barrier";
  }
}

/// Probability below which a measurement outcome is treated as impossible
/// (suppresses branches created purely by rounding, e.g. Grover's "wrong"
/// outcomes at probability ~1e-32).
template <typename T>
inline constexpr T kDropTol = T(100) * std::numeric_limits<T>::epsilon();

/// Measures or resets one qubit on every branch (paper §3.3): each branch
/// splits into its Z outcomes with nonzero probability, in the
/// measurement's basis.  A measurement records its outcome; a reset
/// records nothing and flips outcome 1 back to |0>.
template <typename T>
void splitBranches(Simulation<T>& simulation, const FlatOp<T>& op) {
  const bool reset = op.object->objectType() == ObjectType::kReset;
  const auto* measurement =
      reset ? nullptr : static_cast<const Measurement<T>*>(op.object);
  const obs::ScopedSpan span(reset ? "reset" : "measure", "stage");
  const int nbQubits = simulation.nbQubits();
  const int qubit =
      (reset ? static_cast<const Reset<T>*>(op.object)->qubit()
             : measurement->qubit()) +
      op.offset;
  util::checkQubit(qubit, nbQubits);
  const bool rotate = !reset && measurement->basis() != Basis::kZ;
  // After the collapse, V rotates a qubit measured in another basis back
  // into it; for a reset it is Pauli X, which flips outcome 1 to |0>.
  const dense::Matrix<T> v = rotate  ? measurement->basisVectors()
                             : reset ? dense::pauliX<T>()
                                     : dense::Matrix<T>();
  const dense::Matrix<T> vDagger = rotate ? v.dagger() : dense::Matrix<T>();

  std::vector<Branch<T>> next;
  next.reserve(simulation.branches().size());
  for (auto& branch : simulation.branches()) {
    if (rotate) sim::apply1(branch.state, nbQubits, qubit, vDagger);
    T p0 = sim::measureProbability0(branch.state, nbQubits, qubit);
    p0 = std::min(std::max(p0, T(0)), T(1));
    const T probabilities[2] = {p0, T(1) - p0};
    const bool both =
        probabilities[0] > kDropTol<T> && probabilities[1] > kDropTol<T>;
    if (both) {
      obs::metrics().add(obs::Counter::kBranchSpawns);
    } else {
      obs::metrics().add(obs::Counter::kBranchPrunes);
    }
    for (int outcome = 0; outcome < 2; ++outcome) {
      const T p = probabilities[outcome];
      if (p <= kDropTol<T>) continue;
      Branch<T> child;
      // The state of the last surviving outcome can be moved.
      if (both && outcome == 0) {
        child.state = branch.state;
      } else {
        child.state = std::move(branch.state);
      }
      sim::collapse(child.state, nbQubits, qubit, outcome, p);
      if (rotate || (reset && outcome == 1)) {
        sim::apply1(child.state, nbQubits, qubit, v);
      }
      child.probability = branch.probability * static_cast<double>(p);
      child.result = branch.result;
      child.measurements = branch.measurements;
      if (!reset) {
        child.result += static_cast<char>('0' + outcome);
        child.measurements.emplace_back(qubit, outcome);
      }
      next.push_back(std::move(child));
    }
  }
  simulation.branches() = std::move(next);
  simulation.retrackStateBytes();
}

/// Runs the segments of ops[first, end) on every branch of `simulation`:
/// a gate run is fused into one plan shared by all branches when `fusion`
/// is set and applied gate by gate through `backend` otherwise;
/// measurements and resets split the branches.  Ends with the throttled
/// numerical-health check of the finished branches (sentinel.hpp), which
/// covers the scalar, SIMD, fused, and blocked paths alike.
template <typename T>
void runOps(Simulation<T>& simulation, const std::vector<FlatOp<T>>& ops,
            std::size_t first, const FusionOptions* fusion,
            const Backend<T>& backend) {
  const int nbQubits = simulation.nbQubits();
  for (const OpSegment<T>& segment : segmentOps(ops, first)) {
    if (segment.gates.empty()) {
      splitBranches(simulation, segment.op);
    } else if (fusion != nullptr) {
      const FusionPlan<T> plan = fuseGates(segment.gates, nbQubits, *fusion);
      for (auto& branch : simulation.branches()) {
        applyFusionPlan(branch.state, nbQubits, plan);
      }
    } else {
      for (const GateRef<T>& ref : segment.gates) {
        for (auto& branch : simulation.branches()) {
          backend.applyGate(branch.state, nbQubits, *ref.gate, ref.offset);
        }
      }
    }
  }
  // Branch weights are factored out of branch states, so each branch
  // should be unit-norm on its own.
  if (obs::sentinel().shouldCheck()) {
    for (const auto& branch : simulation.branches()) {
      obs::sentinelCheckState(branch.state.data(), branch.state.size(),
                              "simulate");
    }
  }
  obs::sentinel().throwIfPending();
}

}  // namespace qclab::sim
