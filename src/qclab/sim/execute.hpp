#pragma once

/// \file execute.hpp
/// \brief The compile step every circuit driver shares, and the branching
/// statevector executor behind QCircuit::simulate.
///
/// QCircuit::flatten expands sub-circuits once into a flat list of
/// elementary ops (FlatOp), each carrying the qubit offset accumulated
/// over its nesting chain; no driver walks the nesting itself.  compile
/// turns that list into a Program in one pass: it is the one place that
/// decides where a gate run ends (at a measurement, a reset, or a barrier
/// — semantically neutral, but an explicit fusion boundary), the one
/// place that fuses the runs, and the one place that resolves each
/// measurement or reset to its absolute qubit and basis change.
/// QCircuit::simulate and the dispatch suffix run their program through
/// execute; the batch and trajectory engines compile once and replay
/// their program for every member or trajectory.  Every driver applies a
/// gate run through applyRun.

#include <array>
#include <complex>
#include <limits>
#include <optional>
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

/// One step of a compiled Program: a maximal gate run (`gates` non-empty),
/// or a single measurement or reset of the absolute qubit `qubit`.
template <typename T>
struct ProgramStep {
  /// The gate run; empty for a measurement or reset.
  std::vector<GateRef<T>> gates;
  /// The run's fused blocks when the program was compiled with fusion;
  /// empty otherwise, and then applyRun applies the gates one by one.
  FusionPlan<T> plan;
  int qubit = 0;
  bool reset = false;
  /// After the collapse, `v` rotates a qubit measured in another basis
  /// back into it (`vDagger` rotated it into Z before); for a reset it is
  /// Pauli X, which flips outcome 1 to |0>.  Both are empty for a
  /// Z-basis measurement.
  dense::Matrix<T> v;
  dense::Matrix<T> vDagger;

  bool isRun() const noexcept { return !gates.empty(); }
  /// A measurement in a basis other than Z.
  bool rotates() const noexcept { return !reset && v.rows() != 0; }
};

/// A flat op list compiled for execution: its steps in order, and the
/// number of measurements among them.
template <typename T>
struct Program {
  std::vector<ProgramStep<T>> steps;
  std::size_t nbMeasurements = 0;
};

/// Compiles ops[first, end) of an `nbQubits`-qubit register into a
/// Program.  A gate run is a maximal stretch of consecutive gates, so
/// measurements, resets, and barriers end it; barriers emit no step of
/// their own.  Every run is fused with `fusion` when it is non-null.  The
/// program points into the ops' circuit, which must outlive it.
template <typename T>
Program<T> compile(const std::vector<FlatOp<T>>& ops, std::size_t first,
                   int nbQubits, const FusionOptions* fusion) {
  Program<T> program;
  for (std::size_t index = first; index < ops.size();) {
    const FlatOp<T>& op = ops[index];
    const ObjectType type = op.object->objectType();
    if (type == ObjectType::kBarrier) {
      ++index;
      continue;
    }
    ProgramStep<T>& step = program.steps.emplace_back();
    if (type == ObjectType::kGate) {
      std::size_t end = index;
      while (end < ops.size() &&
             ops[end].object->objectType() == ObjectType::kGate) {
        ++end;
      }
      step.gates.reserve(end - index);
      for (; index < end; ++index) {
        step.gates.push_back(
            {static_cast<const qgates::QGate<T>*>(ops[index].object),
             ops[index].offset});
      }
      if (fusion != nullptr) {
        step.plan = fuseGates(step.gates, nbQubits, *fusion);
      }
      continue;
    }
    ++index;
    step.reset = type == ObjectType::kReset;
    if (step.reset) {
      step.qubit = static_cast<const Reset<T>*>(op.object)->qubit();
      step.v = dense::pauliX<T>();
    } else {
      const auto& measurement = static_cast<const Measurement<T>&>(*op.object);
      step.qubit = measurement.qubit();
      if (measurement.basis() != Basis::kZ) {
        step.v = measurement.basisVectors();
        step.vDagger = step.v.dagger();
      }
      ++program.nbMeasurements;
    }
    step.qubit += op.offset;
    util::checkQubit(step.qubit, nbQubits);
  }
  return program;
}

/// Applies the gate-run step `step` to one state: through its fused plan
/// when it has one, otherwise gate by gate through `backend`, calling
/// `afterGate(ref)` after each gate (the trajectory engine samples its
/// gate noise there).
template <typename State, typename T, typename AfterGate>
void applyRun(State& state, int nbQubits, const ProgramStep<T>& step,
              const Backend<T>& backend, AfterGate&& afterGate) {
  if (!step.plan.blocks.empty()) {
    applyFusionPlan(state, nbQubits, step.plan);
    return;
  }
  for (const GateRef<T>& ref : step.gates) {
    backend.applyGate(state, nbQubits, *ref.gate, ref.offset);
    afterGate(ref);
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
/// measurement's basis.  Both outcome weights are summed from the state,
/// so an outcome with no amplitude is pruned however far the branch's
/// norm has drifted; each child is renormalized by its own weight and
/// carries its share of the two.  A measurement records its outcome; a
/// reset records nothing and flips outcome 1 back to |0>.
template <typename T>
void splitBranches(Simulation<T>& simulation, const ProgramStep<T>& step) {
  const bool reset = step.reset;
  const obs::ScopedSpan span(reset ? "reset" : "measure");
  const int nbQubits = simulation.nbQubits();
  const int qubit = step.qubit;
  const bool rotate = step.rotates();

  std::vector<Branch<T>> next;
  next.reserve(simulation.branches().size());
  for (auto& branch : simulation.branches()) {
    if (rotate) sim::apply1(branch.state, nbQubits, qubit, step.vDagger);
    const std::array<T, 2> weights =
        sim::measureWeights(branch.state, nbQubits, qubit);
    const T total = weights[0] + weights[1];
    const bool both = weights[0] > kDropTol<T> && weights[1] > kDropTol<T>;
    if (both) {
      obs::metrics().add(obs::Counter::kBranchSpawns);
    } else {
      obs::metrics().add(obs::Counter::kBranchPrunes);
    }
    for (int outcome = 0; outcome < 2; ++outcome) {
      const T weight = weights[static_cast<std::size_t>(outcome)];
      if (weight <= kDropTol<T>) continue;
      Branch<T> child;
      // The last surviving outcome inherits by move: its parent is dropped.
      if (both && outcome == 0) {
        child.state = branch.state;
        child.result = branch.result;
        child.measurements = branch.measurements;
      } else {
        child.state = std::move(branch.state);
        child.result = std::move(branch.result);
        child.measurements = std::move(branch.measurements);
      }
      sim::collapse(child.state, nbQubits, qubit, outcome, weight);
      if (rotate || (reset && outcome == 1)) {
        sim::apply1(child.state, nbQubits, qubit, step.v);
      }
      child.probability =
          branch.probability * static_cast<double>(weight / total);
      if (!reset) {
        child.result += static_cast<char>('0' + outcome);
        child.measurements.emplace_back(qubit, outcome);
      }
      next.push_back(std::move(child));
    }
  }
  simulation.branches() = std::move(next);
}

/// Smallest register an unset SimulateOptions::fusion fuses.  Measured
/// fused / unfused simulate speed over GHZ, QFT and Trotter-Ising on 2
/// threads (EXPERIMENTS.md, P12): 0.72-0.89x at n <= 7, 0.88-1.01x at
/// n = 8 and 0.96-1.26x at n = 9; n = 10 is the first size at which
/// fusion wins on every circuit (1.12-1.47x, then 1.14-6.4x up to n = 21).
inline constexpr int kDefaultFusionMinQubits = 10;

/// The fusion decision of QCircuit::simulate and the dispatch suffix,
/// which compile a program on every call: the windows compile fuses
/// with, or nullptr for per-gate application through `backend`.  An
/// explicit `fusion` wins; unset, the run fuses only when `backend` is
/// the kernel engine and the register has at least
/// kDefaultFusionMinQubits qubits, so any other backend passed in (the
/// paper's SparseKronBackend, the metering InstrumentedBackend) still
/// applies every gate itself.
template <typename T>
const FusionOptions* resolveFusion(std::optional<bool> fusion,
                                   const FusionOptions& options,
                                   const Backend<T>& backend, int nbQubits) {
  const bool fuse = fusion.value_or(
      nbQubits >= kDefaultFusionMinQubits &&
      dynamic_cast<const KernelBackend<T>*>(&backend) != nullptr);
  return fuse ? &options : nullptr;
}

/// Runs `program` on every branch of `simulation`: gate runs through
/// applyRun, measurements and resets split the branches.  Ends with the
/// throttled numerical-health check of the finished branches
/// (sentinel.hpp), which covers the scalar, SIMD, fused, and blocked
/// paths alike.
template <typename T>
void execute(Simulation<T>& simulation, const Program<T>& program,
             const Backend<T>& backend) {
  const int nbQubits = simulation.nbQubits();
  for (const ProgramStep<T>& step : program.steps) {
    if (!step.isRun()) {
      splitBranches(simulation, step);
      continue;
    }
    for (auto& branch : simulation.branches()) {
      applyRun(branch.state, nbQubits, step, backend,
               [](const GateRef<T>&) {});
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
