#pragma once

/// \file batch.hpp
/// \brief Batched multi-circuit execution: one fusion plan + block
/// schedule per circuit SHAPE, many parameter instances executed against
/// it with rebinding instead of re-planning.
///
/// A parameter sweep (QAOA angle scans, VQE optimizer steps, barren
/// plateau studies) simulates the SAME circuit structure thousands of
/// times with different angles.  The naive loop pays per member for work
/// that only depends on the structure: circuit construction, the fusion
/// scheduling pass, the block schedule, and the state allocation.
/// BatchedSimulation splits the two:
///
///   - SHAPE (once): clone the prototype circuit and compile it
///     (sim::compile, the step every driver shares): cut its flat op list
///     into gate runs, fuse them into plans with the FusionOptions every
///     driver shares, and build the cache-blocking schedule.
///     The shape is fingerprinted by QCircuit::shapeHash(), which covers
///     everything the plan depends on and no angle values.
///   - INSTANCE (per member): write the member's parameter vector through
///     ParameterBinding (gate setTheta), refresh the fused blocks' kernel
///     records with rebindFusionPlan (recipe replay — bit-identical to
///     re-fusing), and run the plan over a pooled state buffer.
///
/// The engine additionally caches the PARAMETER-FREE PREFIX of the plan:
/// the maximal leading run of fused blocks none of whose gates is a
/// ParameterBinding slot (e.g. the Hadamard layer opening every QAOA or
/// VQE ansatz).  Those blocks produce the same amplitudes for every
/// member, so the constructor applies them once and each member starts
/// from a copy of the cached state instead of re-sweeping them — both the
/// rebind and the application skip the prefix.  The cut point is clamped
/// to a block-schedule item boundary so scheduled runs stay chunked, and
/// the cached values are bit-identical to applying the same blocks per
/// member (kernel path choice never depends on where a sweep starts).
///
/// Execution is parallel across members (sim::parallelRanges); each worker
/// thread owns a private circuit clone + program (gate pointers must
/// target the clone the thread mutates) and one reusable state buffer, so
/// nothing is shared mutably.  Every member's amplitudes are
/// BIT-IDENTICAL to a standalone `circuit.simulate(zeros, options)` with
/// `options.fusion = true`: both paths run the same kernels in the same
/// order on the same values.
///
/// Restriction: unitary circuits only (gates, sub-circuits, barriers).
/// Measurements and resets branch the state per member, which has no
/// shared shape to amortize — the constructor throws on them.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/histogram.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/parameter_binding.hpp"
#include "qclab/qcircuit.hpp"
#include "qclab/sim/execute.hpp"
#include "qclab/sim/fusion.hpp"
#include "qclab/sim/parallel.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::sim {

/// Tuning knobs of the batched execution engine.  Members always start
/// from |0...0> and always run fused: the plans are built once per shape
/// and replayed for every member.
struct BatchOptions {
  /// Threads across batch members; 0 = the OpenMP default.  1 keeps the
  /// whole call, kernels included, on one thread; otherwise a lone member
  /// runs on the calling thread, and its kernels fork the default team.
  int nbThreads = 0;
};

/// A circuit shape compiled for repeated execution under parameter
/// rebinding.  Construction does the per-shape work; run()/forEach() do
/// only per-instance work.  One engine instance must not be run from two
/// threads at once (it parallelizes internally); build one engine per
/// concurrent caller instead — plans themselves are const-shareable.
template <typename T>
class BatchedSimulation {
 public:
  /// Compiles `prototype`'s shape: clones it, cuts and fuses the gate
  /// runs, builds the block schedules (under the "batch/plan" stage
  /// span).  Throws on measurements or resets, a negative thread count or
  /// a register no std::vector state can hold (stateDim), and
  /// QubitRangeError on an op outside the register.
  explicit BatchedSimulation(const QCircuit<T>& prototype,
                             BatchOptions options = {})
      : options_(options),
        prototype_(prototype),
        shapeHash_(prototype.shapeHash()),
        dim_(stateDim<T>(prototype.nbQubits())) {
    util::require(options_.nbThreads >= 0,
                  "thread count must be nonnegative");
    const obs::ScopedSpan span("batch/plan");
    master_ = std::make_unique<Worker>(prototype_, nullptr);
    computePrefix();
  }

  /// Structural fingerprint of the compiled shape (QCircuit::shapeHash).
  std::uint64_t shapeHash() const noexcept { return shapeHash_; }

  /// Extent of the cached parameter-free prefix: number of leading gate
  /// runs whose plans execute entirely from the cache, and number of
  /// leading blocks of the next run's plan.  Both zero when nothing is
  /// cached (diagnostics and tests; members never re-sweep these blocks).
  std::size_t prefixPlanCount() const noexcept { return prefixPlans_; }
  std::size_t prefixBlockCount() const noexcept { return prefixBlocks_; }

  /// Number of bindable parameters per member (ParameterBinding order).
  std::size_t nbParameters() const noexcept {
    return master_->binding.nbParameters();
  }

  /// True when `circuit` has the same shape as the compiled prototype and
  /// can therefore be executed as a parameter instance of this engine.
  bool matchesShape(const QCircuit<T>& circuit) const {
    return circuit.shapeHash() == shapeHash_;
  }

  /// The current parameter vector of a circuit, in this engine's slot
  /// order — turns a same-shape circuit into a batch member.
  static std::vector<T> parametersOf(const QCircuit<T>& circuit) {
    QCircuit<T> copy(circuit);
    return ParameterBinding<T>(copy).parameters();
  }

  /// Simulates every parameter vector of `parameterSets` against the
  /// shape plan and returns one Simulation per member, in order.  Member
  /// m's amplitudes are bit-identical to `instance.simulate(zeros,
  /// options)` with `options.fusion = true`, where `instance` is the
  /// prototype with parameter set m bound.
  std::vector<Simulation<T>> run(
      const std::vector<std::vector<T>>& parameterSets) {
    std::vector<Simulation<T>> results(parameterSets.size());
    forEach(parameterSets, [&results](std::size_t member,
                                      Simulation<T>&& simulation) {
      results[member] = std::move(simulation);
    });
    return results;
  }

  /// Streaming variant of run(): invokes
  /// `callback(member, Simulation<T>&&)` for every member, from the
  /// worker thread that simulated it (callbacks for distinct members may
  /// run concurrently — the callback must be safe for that; its
  /// omp_get_thread_num() is its thread's number in the engine's team, 0
  /// for a call from inside another parallel region).  A callback
  /// that only reads the simulation lets the engine reclaim the member's
  /// state buffer into the per-thread pool; moving the simulation out
  /// transfers ownership and costs one fresh allocation for the next
  /// member.
  template <typename Callback>
  void forEach(const std::vector<std::vector<T>>& parameterSets,
               Callback&& callback) {
    const std::size_t members = parameterSets.size();
    if (members == 0) return;
    // Validate every member's arity up front, so a bad member fails
    // before any other member has run.
    const std::size_t expected = master_->binding.nbParameters();
    for (std::size_t m = 0; m < members; ++m) {
      if (parameterSets[m].size() != expected) [[unlikely]] {
        throw InvalidArgumentError(
            "simulateBatch: member " + std::to_string(m) + " carries " +
            std::to_string(parameterSets[m].size()) +
            " parameters, shape has " + std::to_string(expected));
      }
    }
    obs::metrics().add(obs::Counter::kBatchRuns);
    obs::metrics().add(obs::Counter::kBatchMembers, members);
    const obs::ScopedSpan span("batch");
    const obs::ScopedSpan executeSpan("batch/execute");
    const std::int64_t count = static_cast<std::int64_t>(members);
    const int parts = teamSize(count, 2, options_.nbThreads);
    // Part 0 runs on the master worker built at construction, part p on
    // clone p (circuit copy + plan copy, no re-scheduling), built here on
    // first use and kept: a clone must not copy the master's plans while
    // part 0 rebinds them in place.
    while (clones_.size() + 1 < std::min(members, std::size_t(parts))) {
      clones_.push_back(std::make_unique<Worker>(prototype_, master_.get()));
    }
    const auto runMembers = [&](std::int64_t lo, std::int64_t hi, int part) {
      Worker& worker =
          part == 0 ? *master_ : *clones_[static_cast<std::size_t>(part) - 1];
      std::vector<std::complex<T>> buffer;  // per-thread pooled state
      for (std::int64_t m = lo; m < hi; ++m) {
        const std::size_t member = static_cast<std::size_t>(m);
        {
          const obs::PathTimer timer(
              KernelPath::kBatch, obs::FlightEventKind::kBatchMember, member);
          runMember(worker, parameterSets[member], buffer);
        }
        // Throttled numerical-health check on the finished member's state.
        // kThrow does not raise here (other members may be running);
        // report() just latches and throwIfPending() below raises it.
        if (obs::sentinel().shouldCheck()) {
          obs::sentinelCheckState(buffer.data(), buffer.size(), "batch");
        }
        Simulation<T> simulation(prototype_.nbQubits(), std::move(buffer));
        callback(member, std::move(simulation));
        // Reclaim the buffer when the callback left the state behind.
        if (!simulation.branches().empty()) {
          buffer = simulation.branches().front().state.takeVector();
        } else {
          buffer.clear();
        }
      }
    };
    parallelItems(count, parts, options_.nbThreads, runMembers);
    // Safe point: back on the calling thread, outside any parallel
    // region — raise a sentinel violation latched by any member.
    obs::sentinel().throwIfPending();
  }

 private:
  /// Per-thread execution state: a private circuit clone (the instance
  /// the thread mutates), the binding into that clone, and the clone's
  /// compiled program, whose fusion plans' recipes resolve against the
  /// clone's gate runs.
  struct Worker {
    QCircuit<T> circuit;
    ParameterBinding<T> binding;
    Program<T> program;

    /// The master (`master` null) compiles and fuses; a clone compiles
    /// without fusion and copies the master's plans (block records are
    /// values, recipes are gate indices), so it never re-fuses, and drops
    /// the per-gate records the plans replace.  Every member rebinds
    /// before applying, so the copied records never execute stale.
    Worker(const QCircuit<T>& prototype, const Worker* master)
        : circuit(prototype), binding(circuit) {
      const std::vector<FlatOp<T>> ops = circuit.flatten();
      const int nbQubits = circuit.nbQubits();
      if (master != nullptr) {
        program = compile(ops, 0, nbQubits, nullptr);
        for (std::size_t r = 0; r < program.steps.size(); ++r) {
          program.steps[r].plan = master->program.steps[r].plan;
          program.steps[r].ops = {};
        }
        return;
      }
      const FusionOptions fusion{};
      program = compile(ops, 0, nbQubits, &fusion);
      for (const ProgramStep<T>& step : program.steps) {
        if (!step.isRun()) {
          throw InvalidArgumentError(
              "batched simulation supports unitary circuits only "
              "(no measurements or resets)");
        }
      }
    }
  };

  /// Finds the maximal leading run of fused blocks containing no
  /// ParameterBinding slot gate, clamps it to a schedule-item boundary,
  /// and caches the state those blocks produce from |0...0>.  Members
  /// then start from a copy of that state (one memcpy)
  /// instead of re-sweeping blocks whose product cannot change.
  void computePrefix() {
    const Worker& w = *master_;
    const int nbQubits = prototype_.nbQubits();
    for (std::size_t r = 0; r < w.program.steps.size(); ++r) {
      const ProgramStep<T>& run = w.program.steps[r];
      const FusionPlan<T>& plan = run.plan;
      std::size_t blocks = 0;
      for (const auto& block : plan.blocks) {
        bool parameterFree = true;
        for (const auto& step : block.steps) {
          if (w.binding.isBound(run.gates[step.gateIndex].gate)) {
            parameterFree = false;
            break;
          }
        }
        if (!parameterFree) break;
        ++blocks;
      }
      if (blocks < plan.blocks.size() && !plan.schedule.items.empty()) {
        // Clamp to a schedule-item boundary so blocked runs after the cut
        // still execute as chunked sweeps.
        std::size_t boundary = 0;
        for (const auto& item : plan.schedule.items) {
          if (item.first + item.count > blocks) break;
          boundary = item.first + item.count;
        }
        blocks = boundary;
      }
      if (blocks == plan.blocks.size() && !plan.blocks.empty()) {
        prefixPlans_ = r + 1;
        prefixBlocks_ = 0;
        continue;
      }
      prefixBlocks_ = blocks;
      break;
    }
    if (prefixPlans_ == 0 && prefixBlocks_ == 0) return;

    prefixState_.assign(dim_, std::complex<T>(0));
    prefixState_[0] = std::complex<T>(1);
    for (std::size_t r = 0; r < prefixPlans_; ++r) {
      applyFusionPlan(prefixState_, nbQubits, w.program.steps[r].plan);
    }
    if (prefixBlocks_ > 0) {
      applyFusionPlan(prefixState_, nbQubits,
                      w.program.steps[prefixPlans_].plan, 0, prefixBlocks_);
    }
  }

  /// Executes ONE member on `worker`: bind the parameters, reset the
  /// pooled state to |0...0> (or the cached parameter-free prefix state),
  /// then refresh each remaining plan's fused matrices (recipe replay) and
  /// apply it.
  void runMember(Worker& worker, const std::vector<T>& parameters,
                 std::vector<std::complex<T>>& state) const {
    worker.binding.bind(parameters);
    const int nbQubits = prototype_.nbQubits();
    if (!prefixState_.empty()) {
      state.assign(prefixState_.begin(), prefixState_.end());
    } else {
      state.assign(dim_, std::complex<T>(0));
      state[0] = std::complex<T>(1);
    }
    for (std::size_t r = prefixPlans_; r < worker.program.steps.size(); ++r) {
      ProgramStep<T>& run = worker.program.steps[r];
      const std::size_t first = r == prefixPlans_ ? prefixBlocks_ : 0;
      rebindFusionPlan(run.plan, run.gates, first);
      applyFusionPlan(state, nbQubits, run.plan, first);
    }
  }

  BatchOptions options_;
  QCircuit<T> prototype_;
  std::uint64_t shapeHash_ = 0;
  std::size_t dim_ = 0;  ///< amplitudes of a member's state
  std::unique_ptr<Worker> master_;
  /// Workers of parts 1, 2, ... of the member loop.
  std::vector<std::unique_ptr<Worker>> clones_;
  /// Parameter-free prefix: the plans of runs [0, prefixPlans_) are
  /// entirely member-invariant, plus the first prefixBlocks_ blocks of run
  /// prefixPlans_.  prefixState_ holds the amplitudes after the prefix
  /// (empty when there is no prefix).
  std::size_t prefixPlans_ = 0;
  std::size_t prefixBlocks_ = 0;
  std::vector<std::complex<T>> prefixState_;
};

}  // namespace qclab::sim

namespace qclab {

/// Batched parameter sweep over this circuit's shape: compiles the shape
/// once (fusion plan + block schedule) and executes one member per
/// parameter vector with rebinding.  Declared in qcircuit.hpp; every
/// member is bit-identical to binding the same parameters and calling
/// simulate with fusion on.
template <typename T>
std::vector<Simulation<T>> QCircuit<T>::simulateBatch(
    const std::vector<std::vector<T>>& parameterSets,
    const sim::BatchOptions& options) const {
  sim::BatchedSimulation<T> engine(*this, options);
  return engine.run(parameterSets);
}

template <typename T>
std::vector<Simulation<T>> QCircuit<T>::simulateBatch(
    const std::vector<std::vector<T>>& parameterSets) const {
  return simulateBatch(parameterSets, sim::BatchOptions{});
}

}  // namespace qclab
