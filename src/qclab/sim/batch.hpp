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
///   - SHAPE (once): clone the prototype circuit, cut its flat op list
///     into gate runs (sim::segmentOps, the cut every driver shares), fuse
///     them into plans (fuseGates) and build the cache-blocking schedule.
///     The shape is fingerprinted by QCircuit::shapeHash(), which covers
///     everything the plan depends on and no angle values.
///   - INSTANCE (per member): write the member's parameter vector through
///     ParameterBinding (gate setTheta), refresh the fused matrices with
///     rebindFusionPlan (recipe replay — bit-identical to re-fusing), and
///     run the plan over a pooled state buffer.
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
/// Execution is OpenMP-parallel across members; each worker thread owns a
/// private circuit clone + plans (gate pointers must target the clone the
/// thread mutates) and one reusable state buffer, so nothing is shared
/// mutably.  Every member's amplitudes are BIT-IDENTICAL to a standalone
/// `circuit.simulate(bits, options)` with the same fusion options: both
/// paths run the same kernels in the same order on the same values.
///
/// Restriction: unitary circuits only (gates, sub-circuits, barriers).
/// Measurements and resets branch the state per member, which has no
/// shared shape to amortize — the constructor throws on them.

#include <algorithm>
#include <atomic>
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
#include "qclab/sim/backend.hpp"
#include "qclab/sim/fusion.hpp"
#include "qclab/util/bitstring.hpp"
#include "qclab/util/errors.hpp"

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

namespace qclab::sim {

/// Tuning knobs of the batched execution engine.
struct BatchOptions {
  /// Execute members through fused plans (recommended).  Off runs the
  /// per-gate kernel backend — still amortizing circuit construction and
  /// state allocation, and still bit-identical to standalone simulate
  /// with fusion off.
  bool fusion = true;
  /// Fusion knobs of the shared shape plan: the FusionOptions every driver
  /// defaults to.  Parameter sweeps are dominated by diagonal layers (RZZ
  /// cost layers, RZ mixers), which it fuses into wide diagonal-only runs
  /// (table-driven diagonal sweeps) while dense gates stay in narrow
  /// blocks with fast span kernels.
  FusionOptions fusionOptions{};
  /// OpenMP threads across batch members; 0 = omp_get_max_threads().
  int nbThreads = 0;
  /// Initial basis state of every member ("" = |0...0>).
  std::string initialBits;
};

/// A circuit shape compiled for repeated execution under parameter
/// rebinding.  Construction does the per-shape work; run()/forEach() do
/// only per-instance work.  One engine instance must not be run from two
/// threads at once (it parallelizes internally); build one engine per
/// concurrent caller instead — plans themselves are const-shareable.
template <typename T>
class BatchedSimulation {
 public:
  /// Compiles `prototype`'s shape: clones it, cuts the gate runs,
  /// builds the fusion plans + block schedules (under the "batch/plan"
  /// stage span).  Throws on measurements or resets, and QubitRangeError
  /// on an op outside the register.
  explicit BatchedSimulation(const QCircuit<T>& prototype,
                             BatchOptions options = {})
      : options_(std::move(options)),
        prototype_(prototype),
        shapeHash_(prototype.shapeHash()) {
    const obs::ScopedSpan span("batch/plan", "stage");
    if (options_.initialBits.empty()) {
      options_.initialBits.assign(
          static_cast<std::size_t>(prototype_.nbQubits()), '0');
    }
    util::require(static_cast<int>(options_.initialBits.size()) ==
                      prototype_.nbQubits(),
                  "initial bitstring length must equal nbQubits");
    initialIndex_ = util::bitstringToIndex(options_.initialBits);
    master_ = std::make_unique<Worker>(prototype_, options_, nullptr);
    if (options_.fusion) computePrefix();
  }

  /// Structural fingerprint of the compiled shape (QCircuit::shapeHash).
  std::uint64_t shapeHash() const noexcept { return shapeHash_; }

  /// Extent of the cached parameter-free prefix: number of leading plans
  /// executed entirely from the cache, and number of leading blocks of
  /// the next plan.  Both zero when nothing is cached (diagnostics and
  /// tests; members never re-sweep these blocks).
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
  /// m's amplitudes are bit-identical to
  /// `instance.simulate(bits, {fusion, fusionOptions})` where `instance`
  /// is the prototype with parameter set m bound.
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
  /// run concurrently — the callback must be safe for that).  A callback
  /// that only reads the simulation lets the engine reclaim the member's
  /// state buffer into the per-thread pool; moving the simulation out
  /// transfers ownership and costs one fresh allocation for the next
  /// member.
  template <typename Callback>
  void forEach(const std::vector<std::vector<T>>& parameterSets,
               Callback&& callback) {
    const std::size_t members = parameterSets.size();
    if (members == 0) return;
    // Validate every member's arity up front: a throw inside the OpenMP
    // region below could not propagate (std::terminate), so the bind
    // precondition must fail on the calling thread.
    const std::size_t expected = master_->binding.nbParameters();
    for (std::size_t m = 0; m < members; ++m) {
      util::require(parameterSets[m].size() == expected,
                    "simulateBatch: member " + std::to_string(m) +
                        " carries " +
                        std::to_string(parameterSets[m].size()) +
                        " parameters, shape has " + std::to_string(expected));
    }
    obs::metrics().add(obs::Counter::kBatchRuns);
    obs::metrics().add(obs::Counter::kBatchMembers, members);
    const obs::ScopedSpan span(
        "batch(n=" + std::to_string(prototype_.nbQubits()) +
            ",M=" + std::to_string(members) + ")",
        "circuit", "batch");
    const obs::ScopedSpan executeSpan("batch/execute", "stage");
    const std::int64_t count = static_cast<std::int64_t>(members);
#ifdef QCLAB_HAS_OPENMP
    const int threads = options_.nbThreads > 0 ? options_.nbThreads
                                               : omp_get_max_threads();
    // Release/acquire edges mirroring the barriers below for TSan, which
    // cannot see into libgomp (same pattern as the trajectory engine).
    std::atomic<int> clonesDone{0};
    std::atomic<int> workersDone{0};
#pragma omp parallel num_threads(threads) if (count > 1 && !omp_in_parallel())
#endif
    {
      // Thread 0 reuses the master worker built at construction; other
      // threads clone it (circuit copy + plan copy, no re-scheduling).
      std::unique_ptr<Worker> local;
      Worker* worker = master_.get();
#ifdef QCLAB_HAS_OPENMP
      if (omp_get_thread_num() != 0) {
        local = std::make_unique<Worker>(prototype_, options_, master_.get());
        worker = local.get();
        clonesDone.fetch_add(1, std::memory_order_release);
      }
      // Every clone finishes copying the master's plans before any member
      // runs: thread 0 rebinds those plans in place, and rebindFusionPlan
      // moves each block's recipe out and back in, so a copy taken in that
      // window would have no recipe to rebind.
#pragma omp barrier
      (void)clonesDone.load(std::memory_order_acquire);
#endif
      std::vector<std::complex<T>> buffer;  // per-thread pooled state
#ifdef QCLAB_HAS_OPENMP
#pragma omp for schedule(dynamic)
#endif
      for (std::int64_t m = 0; m < count; ++m) {
        const std::size_t member = static_cast<std::size_t>(m);
        {
          const obs::PathTimer timer(KernelPath::kBatch);
          runMember(*worker, parameterSets[member], buffer);
        }
        obs::flightRecorder().record(
            obs::FlightEventKind::kBatchMember,
            static_cast<std::uint16_t>(KernelPath::kBatch),
            /*qubitMask=*/0, static_cast<std::uint32_t>(member));
        // Throttled numerical-health check on the finished member's state.
        // kThrow cannot raise here (we may be inside the OMP region);
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
#ifdef QCLAB_HAS_OPENMP
      workersDone.fetch_add(1, std::memory_order_release);
#endif
    }
#ifdef QCLAB_HAS_OPENMP
    (void)workersDone.load(std::memory_order_acquire);
#endif
    // Safe point: back on the calling thread, outside any parallel
    // region — raise a sentinel violation latched by any member.
    obs::sentinel().throwIfPending();
  }

 private:
  /// Per-thread execution state: a private circuit clone (the instance
  /// the thread mutates), the binding + gate runs into that clone, and
  /// the fusion plans whose recipes resolve against those runs.
  struct Worker {
    QCircuit<T> circuit;
    ParameterBinding<T> binding;
    /// The clone's gate runs, cut by segmentOps exactly as the fused
    /// simulate path cuts them, so plans match it run for run.
    std::vector<std::vector<GateRef<T>>> runs;
    std::vector<FusionPlan<T>> plans;

    Worker(const QCircuit<T>& prototype, const BatchOptions& options,
           const Worker* master)
        : circuit(prototype), binding(circuit) {
      const std::vector<FlatOp<T>> ops = circuit.flatten();
      checkOps(ops, circuit.nbQubits());
      for (OpSegment<T>& segment : segmentOps(ops)) {
        if (segment.gates.empty()) {
          throw InvalidArgumentError(
              "batched simulation supports unitary circuits only "
              "(no measurements or resets)");
        }
        runs.push_back(std::move(segment.gates));
      }
      if (!options.fusion) return;
      if (master != nullptr) {
        // Copy the master's plans (matrices are values; recipes are gate
        // indices) — every member rebinds before applying, so the copied
        // matrices never execute stale.
        plans = master->plans;
        return;
      }
      plans.reserve(runs.size());
      for (const auto& run : runs) {
        plans.push_back(fuseGates(run, circuit.nbQubits(),
                                  options.fusionOptions));
      }
    }
  };

  /// Finds the maximal leading run of fused blocks containing no
  /// ParameterBinding slot gate, clamps it to a schedule-item boundary,
  /// and caches the state those blocks produce from the initial basis
  /// state.  Members then start from a copy of that state (one memcpy)
  /// instead of re-sweeping blocks whose product cannot change.
  void computePrefix() {
    const Worker& w = *master_;
    const int nbQubits = prototype_.nbQubits();
    for (std::size_t r = 0; r < w.plans.size(); ++r) {
      const FusionPlan<T>& plan = w.plans[r];
      std::size_t blocks = 0;
      for (const auto& block : plan.blocks) {
        bool parameterFree = true;
        for (const auto& step : block.steps) {
          if (w.binding.isBound(w.runs[r][step.gateIndex].gate)) {
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

    const std::size_t dim = std::size_t{1} << nbQubits;
    prefixState_.assign(dim, std::complex<T>(0));
    prefixState_[initialIndex_] = std::complex<T>(1);
    for (std::size_t r = 0; r < prefixPlans_; ++r) {
      applyFusionPlan(prefixState_, nbQubits, w.plans[r]);
    }
    if (prefixBlocks_ > 0) {
      applyFusionPlan(prefixState_, nbQubits, w.plans[prefixPlans_], 0,
                      prefixBlocks_);
    }
  }

  /// Executes ONE member on `worker`: bind the parameters, refresh the
  /// fused matrices (recipe replay), reset the pooled state to the
  /// initial basis state (or the cached parameter-free prefix state), and
  /// run the plans (or the per-gate backend with fusion off).
  void runMember(Worker& worker, const std::vector<T>& parameters,
                 std::vector<std::complex<T>>& state) const {
    worker.binding.bind(parameters);
    const int nbQubits = prototype_.nbQubits();
    const std::size_t dim = std::size_t{1} << nbQubits;
    if (options_.fusion && !prefixState_.empty()) {
      state.assign(prefixState_.begin(), prefixState_.end());
    } else {
      state.assign(dim, std::complex<T>(0));
      state[initialIndex_] = std::complex<T>(1);
    }
    if (options_.fusion) {
      for (std::size_t r = prefixPlans_; r < worker.plans.size(); ++r) {
        const std::size_t first = r == prefixPlans_ ? prefixBlocks_ : 0;
        rebindFusionPlan(worker.plans[r], worker.runs[r], first);
        applyFusionPlan(state, nbQubits, worker.plans[r], first);
      }
    } else {
      const Backend<T>& backend = defaultBackend<T>();
      for (const auto& run : worker.runs) {
        for (const auto& ref : run) {
          backend.applyGate(state, nbQubits, *ref.gate, ref.offset);
        }
      }
    }
  }

  BatchOptions options_;
  QCircuit<T> prototype_;
  std::uint64_t shapeHash_ = 0;
  std::size_t initialIndex_ = 0;
  std::unique_ptr<Worker> master_;
  /// Parameter-free prefix: plans [0, prefixPlans_) are entirely
  /// member-invariant, plus the first prefixBlocks_ blocks of plan
  /// prefixPlans_.  prefixState_ holds the amplitudes after the prefix
  /// (empty when there is no prefix or fusion is off).
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
/// simulate with the matching fusion options.
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
